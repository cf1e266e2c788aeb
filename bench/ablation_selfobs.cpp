// Ablation: what self-observation costs.
//
// The MetricsExporter snapshots the introspection registry and writes
// pmove_* points through the normal sink path.  Monitoring the monitor is
// only defensible if it is cheap, so this ablation quantifies its costs on
// a registry sized like a busy daemon (8-shard ingest tier, WAL, breakers,
// health, query cache):
//
//   1. the hot path — one relaxed fetch_add per counter bump,
//   2. one registry snapshot + grouped TSDB write (a single export),
//   3. a simulated 60 s monitoring loop at exporter cadences off / 1 s /
//      100 ms, reporting the wall time spent exporting and its share of
//      the session, and
//   4. the per-write gate: a single-point write_batch into a daemon's store
//      against the same write into a bare TimeSeriesDb, both holding 100k
//      series.  The daemon reads its components' stats() only when it
//      exports, so the two must cost the same; the bench exits 1 when the
//      daemon's store is more than 1.1x slower.  It also prints (ungated)
//      what one publish_internals costs at that size.
//
// Every figure lands in BENCH_selfobs.json in the working directory.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/daemon.hpp"
#include "metrics/exporter.hpp"
#include "metrics/names.hpp"
#include "metrics/registry.hpp"
#include "support/report.hpp"
#include "support/runner.hpp"
#include "tsdb/db.hpp"
#include "util/clock.hpp"

using namespace pmove;
using bench::Better;

namespace {

/// Registers the handle population of a daemon with an 8-shard ingest tier.
/// Engine-level ingest and query values are gauges: the daemon copies them
/// from the engines' stats() when it exports.
void populate(metrics::Registry& reg) {
  const char* mi = metrics::kMeasurementIngest;
  for (const char* f : {"submitted_points", "inserted_points",
                        "dropped_points", "spilled_points", "blocked_submits",
                        "parked_points", "replayed_points",
                        "abandoned_points", "recovered_points",
                        "sink_failures", "wal_failures"}) {
    reg.gauge(mi, "engine", f).set(1.0);
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
    reg.gauge(metrics::kMeasurementQuery, "engine", f).set(1.0);
  }
  reg.histogram(metrics::kMeasurementQuery, "engine", "latency_ns")
      .record(5000.0);
}

/// One point of gate series `index` at time `t`.
tsdb::Point gate_point(std::size_t index, TimeNs t) {
  tsdb::Point point;
  point.measurement = "selfobs_gate";
  point.tags["series"] = std::to_string(index);
  point.time = t;
  point.fields["value"] = static_cast<double>(index % 97);
  return point;
}

// The per-write gate's store size, rounds and writes per timed run.
constexpr std::size_t kSeries = 100'000;
constexpr int kRounds = 201;
constexpr std::size_t kWritesPerRun = 16;

/// 4. The per-write gate.  Returns false when a store cannot be preloaded.
bool per_write_gate(const WallClock& wall, bench::Report& report) {
  constexpr double kMaxRatio = 1.1;

  core::Daemon daemon;
  tsdb::TimeSeriesDb bare;
  tsdb::TimeSeriesDb* stores[2] = {&daemon.timeseries(), &bare};
  for (tsdb::TimeSeriesDb* db : stores) {
    std::vector<tsdb::Point> preload;
    preload.reserve(kSeries);
    for (std::size_t i = 0; i < kSeries; ++i) {
      preload.push_back(gate_point(i, 0));
    }
    if (Status s = db->write_batch(std::move(preload)); !s.is_ok()) {
      std::fprintf(stderr, "preload failed: %s\n", s.to_string().c_str());
      return false;
    }
  }

  // Every run writes one point into each of the same kWritesPerRun series,
  // spread over the key space, at fresh timestamps.  The runner calls each
  // side untimed, then timed, every round; the untimed call also builds
  // the timed call's batches, so a timed run times write_batch alone, on
  // points built moments before, as a sampler's are.  Short runs, many
  // rounds, and each side's fastest run: that figure is the write path
  // itself, not a noisy neighbour or where the allocator placed two
  // 100k-series stores, while per-write work that scales with the store
  // still shows in full.
  std::vector<std::vector<tsdb::Point>> batches[2];
  int calls[2] = {0, 0};
  const auto writes_into = [&](int side) {
    return [&, side] {
      auto& round = batches[side];
      const std::size_t index = static_cast<std::size_t>(calls[side]++);
      if (index % 2 == 0) {
        const TimeNs t = 1 + static_cast<TimeNs>(index * kWritesPerRun);
        round.assign(2 * kWritesPerRun, {});
        for (std::size_t i = 0; i < round.size(); ++i) {
          round[i].push_back(
              gate_point((i % kWritesPerRun) * (kSeries / kWritesPerRun),
                         t + static_cast<TimeNs>(i)));
        }
      }
      const std::size_t first = index % 2 == 0 ? 0 : kWritesPerRun;
      for (std::size_t w = 0; w < kWritesPerRun; ++w) {
        (void)stores[side]->write_batch(std::move(round[first + w]));
      }
    };
  };
  const bench::AbTimes t =
      bench::run_ab(kRounds, writes_into(0), writes_into(1));
  const double daemon_ns = t.a_s * 1e9 / kWritesPerRun;
  const double bare_ns = t.b_s * 1e9 / kWritesPerRun;
  const double ratio = daemon_ns / bare_ns;
  std::printf("\nper-write gate (%zu series per store, fastest of %d "
              "alternating rounds x %zu single-point writes):\n",
              kSeries, kRounds, kWritesPerRun);
  std::printf("  daemon store write_batch: %10.0f ns\n", daemon_ns);
  std::printf("  bare store write_batch:   %10.0f ns\n", bare_ns);
  std::printf("  ratio: %.2fx (gate <= %.1fx)\n", ratio, kMaxRatio);

  double publish_best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 5; ++i) {
    const TimeNs start = wall.now();
    (void)daemon.publish_internals(from_seconds(1.0 + i));
    publish_best =
        std::min(publish_best, static_cast<double>(wall.now() - start));
  }
  std::printf("  one publish_internals at %zu series: %.2f ms (not gated)\n",
              kSeries, publish_best / 1e6);

  report.metric("per_write.daemon_ns", daemon_ns, "ns", Better::kLower);
  report.metric("per_write.bare_ns", bare_ns, "ns", Better::kLower);
  report.metric("per_write.ratio", ratio, "x", Better::kLower);
  report.metric("publish_internals_ms", publish_best / 1e6, "ms",
                Better::kLower);
  if (report.gate("per_write_ratio", ratio, kMaxRatio, Better::kLower)) {
    std::printf("PASS\n");
  } else {
    std::printf("FAIL: a write to the daemon's store costs %.2fx a bare "
                "store write\n",
                ratio);
  }
  return true;
}

}  // namespace

int main() {
  std::printf("ABLATION: self-observation (registry + exporter) overhead\n\n");

  metrics::Registry reg;
  populate(reg);
  std::printf("registry: %zu metrics, %zu samples per snapshot\n\n",
              reg.size(), reg.snapshot().size());
  const WallClock wall;
  bench::Report report("ablation_selfobs",
                       {{"gate_series", static_cast<std::uint64_t>(kSeries)},
                        {"gate_rounds", kRounds},
                        {"gate_writes_per_run",
                         static_cast<std::uint64_t>(kWritesPerRun)}});

  // 1. Hot path: the cost a component pays per instrumented event.
  {
    metrics::Counter& c =
        reg.counter(metrics::kMeasurementIngest, "shard0", "dropped_points");
    constexpr int kOps = 10'000'000;
    const TimeNs start = wall.now();
    for (int i = 0; i < kOps; ++i) c.inc();
    const TimeNs elapsed = wall.now() - start;
    std::printf("hot path: %d counter bumps in %.1f ms -> %.2f ns/op\n",
                kOps, static_cast<double>(elapsed) / 1e6,
                static_cast<double>(elapsed) / kOps);
    report.metric("hot_path.counter_inc_ns",
                  static_cast<double>(elapsed) / kOps, "ns", Better::kLower);
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
    report.metric("export.one_us",
                  static_cast<double>(elapsed) / kExports / 1e3, "us",
                  Better::kLower);
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
    report.metric(std::string("cadence.") + row.label + ".export_ms",
                  static_cast<double>(export_wall) / 1e6, "ms",
                  Better::kLower);
  }
  std::printf("\n(overhead%% = exporter wall time / 60 s session; the hot\n"
              " path cost is what instrumented components pay regardless)\n");
  if (!per_write_gate(wall, report) || !report.write("BENCH_selfobs.json")) {
    return 1;
  }
  return report.passed() ? 0 : 1;
}
