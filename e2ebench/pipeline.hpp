// The daemon's write side as the node and jobs workloads drive it: one tick
// submits every report of that tick through the ingest engine and flushes;
// once per virtual second the daemon's housekeeping runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/daemon.hpp"
#include "harness.hpp"
#include "tsdb/point.hpp"

namespace e2e {

using Batch = std::vector<pmove::tsdb::Point>;

/// Virtual-time origin of every workload, a multiple of every GROUP BY
/// interval the dashboards use.
inline constexpr pmove::TimeNs kEpochNs = 1'700'000'000LL * pmove::kNsPerSec;

/// Counts one operation that returned `status`.
inline void count(Ledger& ledger, const pmove::Status& status,
                  const char* what) {
  ledger.op(status.is_ok(),
            status.is_ok() ? "" : std::string(what) + ": " + status.to_string());
}

/// A daemon with the ingest tier on: 2 shards, the WAL under `wal_dir` with
/// its default fsync policy, and the given retention window.
std::unique_ptr<pmove::core::Daemon> make_daemon(const std::string& wal_dir,
                                                 pmove::TimeNs retention_ns,
                                                 Ledger& ledger);

class Pipeline {
 public:
  Pipeline(pmove::core::Daemon& daemon, Tracer& tracer, Ledger& ledger)
      : daemon_(daemon), tracer_(tracer), ledger_(ledger) {}

  /// Submits every batch, then flushes; returns the nanoseconds from the
  /// first submit until flush() returned (the tick's sample→visible time).
  std::int64_t tick(std::vector<Batch>& batches, std::int64_t id);

  /// Daemon::enforce_retention then Daemon::publish_internals_if_due at
  /// `now`; returns the nanoseconds both took.
  std::int64_t housekeeping(pmove::TimeNs now, std::int64_t id);

  /// Retention cutoff of the last housekeeping: rows older are gone.
  [[nodiscard]] pmove::TimeNs cutoff() const { return cutoff_; }

 private:
  pmove::core::Daemon& daemon_;
  Tracer& tracer_;
  Ledger& ledger_;
  pmove::TimeNs cutoff_ = 0;
  std::vector<pmove::Status> statuses_;  ///< per-submit, reused every tick
};

/// The daemon's ingest, export and storage counters, summed over the
/// timed phases of a run.
class DaemonCounters {
 public:
  /// Snapshot at the start of a timed phase.
  void begin(pmove::core::Daemon& daemon);
  /// Adds what changed since begin().
  void end(pmove::core::Daemon& daemon);

  /// The behaviour counters every run prints.
  void add_counters(Report& report) const;
  /// The ingest, metrics and tsdb per-layer metrics of a traced run;
  /// `values` is the number of field values the timed phases wrote.
  void add_layers(Report& report, const Tracer& tracer,
                  std::uint64_t values) const;

 private:
  pmove::tsdb::TsdbStats db_;
  pmove::ingest::IngestStats ingest_;
  std::uint64_t exports_ = 0;
  std::uint64_t seals_ = 0, folds_ = 0, pack_ns_ = 0, wal_bytes_ = 0;
  std::uint64_t blocked_ = 0, exported_ = 0;
  std::size_t max_depth_ = 0, compressed_runs_ = 0;
};

/// Write-side totals of a timed phase: the e2e visible latency and the
/// denominator of ingest_vals_per_s.
struct WriteTotals {
  Samples visible_ms;
  std::int64_t write_ns = 0;  ///< submit + flush + housekeeping
  std::uint64_t values = 0;
};

}  // namespace e2e
