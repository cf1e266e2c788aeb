// Periodic registry -> PointSink exporter ("watch the watcher").
//
// Snapshots a metrics::Registry and writes one tsdb::Point per
// (measurement, instance) group — tagged instance=<instance>, tier=self —
// through whatever PointSink the daemon already writes telemetry to (the
// ingest engine when enabled, the TSDB directly otherwise).  The exported
// measurements (pmove_breaker, pmove_health, ...) then behave exactly like
// hardware telemetry: queryable, dashboardable, retained, downsampled.
//
// Kept in its own library (pmove_metrics_export) so the registry itself
// stays dependency-free: pmove_util links the registry for breaker/health
// instrumentation while the exporter links pmove_tsdb — no cycle.
#pragma once

#include <cstdint>

#include "metrics/registry.hpp"
#include "tsdb/sink.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"

namespace pmove::metrics {

struct ExporterOptions {
  /// Cadence for export_if_due(); export_once() ignores it.
  TimeNs interval_ns = kNsPerSec;
};

class MetricsExporter {
 public:
  /// Neither pointer is owned; both must outlive the exporter.  `registry`
  /// may be nullptr for Registry::global().
  MetricsExporter(Registry* registry, tsdb::PointSink* sink,
                  ExporterOptions options = {});

  /// Snapshots the registry and writes the grouped points stamped `now`.
  Status export_once(TimeNs now);

  /// True when export_if_due(now) would export: nothing exported yet, or
  /// `interval_ns` has elapsed since the last export.
  [[nodiscard]] bool due(TimeNs now) const;

  /// Cadence-gated export: no-op (ok) until due(now).  Drive it from any
  /// periodic loop.
  Status export_if_due(TimeNs now);

  [[nodiscard]] std::uint64_t exports() const { return exports_; }
  [[nodiscard]] std::uint64_t points_written() const {
    return points_written_;
  }

 private:
  Registry* registry_;
  tsdb::PointSink* sink_;
  ExporterOptions options_;
  TimeNs last_export_ = 0;
  bool exported_once_ = false;
  std::uint64_t exports_ = 0;
  std::uint64_t points_written_ = 0;
};

}  // namespace pmove::metrics
