// Ablation: what self-observation costs.
//
// The MetricsExporter snapshots the introspection registry and writes
// pmove_* points through the normal sink path.  Monitoring the monitor is
// only defensible if it is cheap, so this ablation quantifies all three
// costs on a registry sized like a busy daemon (8-shard ingest tier, WAL,
// breakers, health, query cache):
//
//   1. the hot path — one relaxed fetch_add per counter bump,
//   2. one registry snapshot + grouped TSDB write (a single export), and
//   3. a simulated 60 s monitoring loop at exporter cadences off / 1 s /
//      100 ms, reporting the wall time spent exporting and its share of
//      the session.
#include <cstdio>
#include <vector>

#include "metrics/exporter.hpp"
#include "metrics/names.hpp"
#include "metrics/registry.hpp"
#include "tsdb/db.hpp"
#include "util/clock.hpp"

using namespace pmove;

namespace {

/// Registers the handle population of a daemon with an 8-shard ingest tier.
void populate(metrics::Registry& reg) {
  const char* mi = metrics::kMeasurementIngest;
  for (const char* f : {"submitted_points", "inserted_points",
                        "dropped_points", "spilled_points", "parked_points",
                        "replayed_batches", "abandoned_batches",
                        "blocked_submits", "recovered_points",
                        "sink_failures", "wal_failures"}) {
    reg.counter(mi, "engine", f).inc();
  }
  for (int shard = 0; shard < 8; ++shard) {
    const std::string instance = "shard" + std::to_string(shard);
    for (const char* f :
         {"dropped_points", "spilled_points", "replayed_batches"}) {
      reg.counter(mi, instance, f).inc();
    }
    reg.gauge(mi, instance, "queue_depth").set(3.0);
  }
  for (const char* f :
       {"appends", "append_failures", "fsyncs", "rollbacks", "checkpoints"}) {
    reg.counter(metrics::kMeasurementWal, "wal", f).inc();
  }
  reg.gauge(metrics::kMeasurementWal, "wal", "records").set(100.0);
  for (const char* instance : {"tsdb", "docdb"}) {
    for (const char* f :
         {"opens", "closes", "rejects", "successes", "failures"}) {
      reg.counter(metrics::kMeasurementBreaker, instance, f).inc();
    }
    reg.gauge(metrics::kMeasurementBreaker, instance, metrics::kFieldState)
        .set(0.0);
  }
  for (const char* f :
       {"queries", "cache_hits", "cache_misses", "cache_evictions"}) {
    reg.counter(metrics::kMeasurementQuery, "engine", f).inc();
  }
  reg.histogram(metrics::kMeasurementQuery, "engine", "latency_ns")
      .record(5000.0);
}

}  // namespace

int main() {
  std::printf("ABLATION: self-observation (registry + exporter) overhead\n\n");

  metrics::Registry reg;
  populate(reg);
  std::printf("registry: %zu metrics, %zu samples per snapshot\n\n",
              reg.size(), reg.snapshot().size());
  const WallClock wall;

  // 1. Hot path: the cost a component pays per instrumented event.
  {
    metrics::Counter& c =
        reg.counter(metrics::kMeasurementIngest, "engine", "submitted_points");
    constexpr int kOps = 10'000'000;
    const TimeNs start = wall.now();
    for (int i = 0; i < kOps; ++i) c.inc();
    const TimeNs elapsed = wall.now() - start;
    std::printf("hot path: %d counter bumps in %.1f ms -> %.2f ns/op\n",
                kOps, static_cast<double>(elapsed) / 1e6,
                static_cast<double>(elapsed) / kOps);
  }

  // 2. One export: snapshot + group + TSDB batch write.
  {
    tsdb::TimeSeriesDb db;
    metrics::MetricsExporter exporter(&reg, &db);
    constexpr int kExports = 1000;
    const TimeNs start = wall.now();
    for (int i = 0; i < kExports; ++i) {
      (void)exporter.export_once(i * kNsPerSec);
    }
    const TimeNs elapsed = wall.now() - start;
    std::printf("one export: %.1f us (%llu points/export)\n\n",
                static_cast<double>(elapsed) / kExports / 1e3,
                static_cast<unsigned long long>(exporter.points_written() /
                                                kExports));
  }

  // 3. Cadence sweep: a 60 s monitoring loop ticking at 1 kHz (the daemon's
  //    periodic loop), with the exporter gated at each cadence.  Session
  //    time is virtual; the export work and its wall cost are real.
  std::printf("%-8s %10s %12s %14s %12s\n", "cadence", "exports", "points",
              "export-ms", "overhead%");
  const double session_s = 60.0;
  const TimeNs tick_ns = kNsPerSec / 1000;
  struct Row {
    const char* label;
    TimeNs interval_ns;  // 0 = exporter disabled
  };
  for (const Row& row : std::initializer_list<Row>{
           {"off", 0},
           {"1s", kNsPerSec},
           {"100ms", kNsPerSec / 10}}) {
    tsdb::TimeSeriesDb db;
    metrics::MetricsExporter exporter(&reg, &db,
                                      {.interval_ns = row.interval_ns});
    TimeNs export_wall = 0;
    for (TimeNs t = 0; t < from_seconds(session_s); t += tick_ns) {
      if (row.interval_ns == 0) continue;
      const TimeNs start = wall.now();
      (void)exporter.export_if_due(t);
      export_wall += wall.now() - start;
    }
    std::printf("%-8s %10llu %12llu %14.2f %12.4f\n", row.label,
                static_cast<unsigned long long>(exporter.exports()),
                static_cast<unsigned long long>(exporter.points_written()),
                static_cast<double>(export_wall) / 1e6,
                static_cast<double>(export_wall) /
                    static_cast<double>(from_seconds(session_s)) * 100.0);
  }
  std::printf("\n(overhead%% = exporter wall time / 60 s session; the hot\n"
              " path cost is what instrumented components pay regardless)\n");
  return 0;
}
