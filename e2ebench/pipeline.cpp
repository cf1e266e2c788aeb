#include "pipeline.hpp"

#include <algorithm>

namespace e2e {

using pmove::TimeNs;

std::unique_ptr<pmove::core::Daemon> make_daemon(const std::string& wal_dir,
                                                 TimeNs retention_ns,
                                                 Ledger& ledger) {
  pmove::core::DaemonConfig config;
  config.retention_ns = retention_ns;
  config.ingest.shard_count = 2;
  config.ingest.wal_dir = wal_dir;
  config.ingest_enabled = true;
  auto daemon = std::make_unique<pmove::core::Daemon>(std::move(config));
  count(ledger, daemon->enable_ingest(), "enable_ingest");
  return daemon;
}

std::int64_t Pipeline::tick(std::vector<Batch>& batches, std::int64_t id) {
  pmove::ingest::IngestEngine& ingest = *daemon_.ingest();
  statuses_.assign(batches.size(), pmove::Status::ok());
  pmove::Status flushed;
  const std::int64_t elapsed = timed(tracer_, "tick", id, [&] {
    for (std::size_t i = 0; i < batches.size(); ++i) {
      Tracer::Scope submit(tracer_, "ingest.submit", id);
      statuses_[i] = ingest.submit(std::move(batches[i]));
    }
    Tracer::Scope flush(tracer_, "ingest.flush", id);
    flushed = ingest.flush();
  });
  // Counted after the clock stops so accounting never lands in the sample.
  for (const pmove::Status& s : statuses_) count(ledger_, s, "submit");
  count(ledger_, flushed, "flush");
  return elapsed;
}

std::int64_t Pipeline::housekeeping(TimeNs now, std::int64_t id) {
  pmove::Status exported;
  const std::int64_t elapsed = timed(tracer_, "housekeeping", id, [&] {
    {
      Tracer::Scope retention(tracer_, "tsdb.retention", id);
      daemon_.enforce_retention(now);
    }
    Tracer::Scope publish(tracer_, "metrics.export", id);
    exported = daemon_.publish_internals_if_due(now);
  });
  cutoff_ = now - daemon_.config().retention_ns;
  count(ledger_, exported, "publish_internals");
  return elapsed;
}

void DaemonCounters::begin(pmove::core::Daemon& daemon) {
  db_ = daemon.timeseries().stats();
  ingest_ = daemon.ingest()->stats();
  exports_ = daemon.metrics_exporter().exports();
}

void DaemonCounters::end(pmove::core::Daemon& daemon) {
  const auto db = daemon.timeseries().stats();
  const auto ingest = daemon.ingest()->stats();
  seals_ += db.run_seals - db_.run_seals;
  folds_ += db.run_folds - db_.run_folds;
  pack_ns_ += db.pack_time_ns - db_.pack_time_ns;
  compressed_runs_ = db.compressed_runs;
  wal_bytes_ += ingest.wal_bytes - ingest_.wal_bytes;
  blocked_ += ingest.blocked_submits - ingest_.blocked_submits;
  max_depth_ = std::max(max_depth_, ingest.max_queue_depth);
  exported_ += daemon.metrics_exporter().exports() - exports_;
}

void DaemonCounters::add_counters(Report& report) const {
  report.counters.insert(
      report.counters.end(),
      {{"run_seals", static_cast<double>(seals_)},
       {"run_folds", static_cast<double>(folds_)},
       {"compressed_runs", static_cast<double>(compressed_runs_)},
       {"blocked_submits", static_cast<double>(blocked_)},
       {"exports", static_cast<double>(exported_)}});
}

void DaemonCounters::add_layers(Report& report, const Tracer& tracer,
                                std::uint64_t values) const {
  add_p50(report, "ingest.submit_p50_us",
          tracer.durations("ingest.submit", 1e3), "us");
  add_p50(report, "ingest.flush_p50_ms", tracer.durations("ingest.flush", 1e6),
          "ms");
  report.per_layer.insert(
      report.per_layer.end(),
      {{"ingest.wal_bytes_per_value",
        static_cast<double>(wal_bytes_) / static_cast<double>(values),
        "B/value"},
       {"ingest.blocked_submits", static_cast<double>(blocked_), "count"},
       {"ingest.max_queue_depth", static_cast<double>(max_depth_), "batches"}});
  add_p50(report, "metrics.export_p50_ms",
          tracer.durations("metrics.export", 1e6), "ms");
  add_p50(report, "tsdb.retention_p50_us",
          tracer.durations("tsdb.retention", 1e3), "us");
  report.per_layer.insert(
      report.per_layer.end(),
      {{"tsdb.run_seals", static_cast<double>(seals_), "count"},
       {"tsdb.run_folds", static_cast<double>(folds_), "count"},
       {"tsdb.pack_ms", static_cast<double>(pack_ns_) / 1e6, "ms"}});
}

}  // namespace e2e
