// Workload `jobs`: job monitoring through one core::Daemon.  Hosts report
// integer counters per CPU every second, tagged {job, host, cpu}; each host
// starts a new job every kJobTicks seconds, so the database holds many short
// series, none long enough to seal.  The dashboard runs through
// QueryEngine::run: per-job, per-host and cluster-wide GROUP BY time()
// panels.  This exercises series creation, tag-index probes, per-series
// view cost, multi-series folds and the telemetry gauge walk on every write.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "pipeline.hpp"
#include "query/engine.hpp"

namespace e2e {
namespace {

using pmove::TimeNs;
using pmove::query::Aggregate;

constexpr int kHosts = 8;
constexpr int kCpus = 32;
constexpr std::int64_t kJobTicks = 20;
constexpr TimeNs kTickNs = pmove::kNsPerSec;
constexpr TimeNs kGroupNs = 10 * pmove::kNsPerSec;
/// Retention = the widest panel window (the host panel's 2 minutes).
constexpr std::int64_t kWindowTicks = 120;
constexpr std::int64_t kClusterTicks = 60;
/// 25 job rotations before timing starts; a timed part adds at most a fifth
/// more series at the default run length.
constexpr std::int64_t kSetupTicks = 500;
/// Timed ticks per part, per second of --seconds.
constexpr std::int64_t kTicksPerRunSecond = 10;
/// Set-ups per run, each followed by a timed part.
constexpr int kSetups = 5;
constexpr const char* kMeasurement = "jobs";
constexpr const char* kFields[] = {"flops", "cycles", "instructions", "bytes"};
enum Field : std::uint64_t { kFlops, kCycles, kInstructions, kBytes };

TimeNs time_of(std::int64_t tick) { return kEpochNs + tick * kTickNs; }

/// One dashboard query and what the generator says it must return.
struct PanelQuery {
  std::string panel;  ///< "job", "host" or "cluster"
  std::string run_span;  ///< "query.run.<panel>"
  pmove::query::Query query;
  int host = -1;            ///< -1: every host
  std::int64_t job = -1;    ///< -1: every job
  std::int64_t first_tick = 0;
  std::int64_t last_tick = 0;
  std::vector<std::pair<Field, std::string>> columns;  ///< field, aggregate
};

class JobsRig {
 public:
  JobsRig(const Options& options, const std::string& wal_dir, Tracer& tracer,
          Ledger& ledger)
      : seed_(options.seed),
        daemon_(make_daemon(wal_dir, kWindowTicks * kTickNs, ledger)),
        pipeline_(*daemon_, tracer, ledger) {
    WriteTotals ignored;
    while (next_tick_ < kSetupTicks) tick(ignored);
  }

  JobsRig(const JobsRig&) = delete;
  JobsRig& operator=(const JobsRig&) = delete;

  pmove::core::Daemon& daemon() { return *daemon_; }
  [[nodiscard]] std::uint64_t jobs_started() const {
    std::uint64_t jobs = 0;
    for (int h = 0; h < kHosts; ++h) {
      jobs += static_cast<std::uint64_t>(job_index(h, next_tick_ - 1) + 1);
    }
    return jobs;
  }

  /// One tick: one submit per host, then housekeeping (1 Hz).
  void tick(WriteTotals& totals) {
    const std::int64_t t = next_tick_++;
    std::vector<Batch> batches(kHosts);
    for (int h = 0; h < kHosts; ++h) {
      const std::int64_t n = job_index(h, t);
      const std::string job = job_id(h, n);
      const std::string host = host_name(seed_, h);
      Batch& batch = batches[static_cast<std::size_t>(h)];
      batch.reserve(kCpus);
      for (int c = 0; c < kCpus; ++c) {
        pmove::tsdb::Point point;
        point.measurement = kMeasurement;
        point.tags = {{"job", job}, {"host", host}, {"cpu", std::to_string(c)}};
        point.time = time_of(t);
        for (std::uint64_t f = 0; f < 4; ++f) {
          point.fields.emplace(kFields[f],
                               field_value(seed_, series(h, c, n), f, t));
        }
        batch.push_back(std::move(point));
      }
    }
    const std::int64_t visible = pipeline_.tick(batches, t);
    totals.visible_ms.add(static_cast<double>(visible) / 1e6);
    totals.write_ns += visible + pipeline_.housekeeping(time_of(t), t);
    totals.values += kHosts * kCpus * 4;
  }

  /// The dashboard at the last written tick: the four newest jobs, one
  /// host's last 2 minutes, and the whole cluster's last minute.
  [[nodiscard]] std::vector<PanelQuery> panels() const {
    const std::int64_t t = next_tick_ - 1;
    std::vector<PanelQuery> out;
    std::vector<std::pair<std::int64_t, int>> current;  // (start, host)
    for (int h = 0; h < kHosts; ++h) {
      current.emplace_back(job_start(h, job_index(h, t)), h);
    }
    std::sort(current.begin(), current.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    for (std::size_t i = 0; i < 4; ++i) {
      const auto [start, h] = current[i];
      const std::int64_t n = job_index(h, t);
      PanelQuery p;
      p.panel = "job";
      p.host = h;
      p.job = n;
      p.first_tick = start;
      p.last_tick = t;
      p.columns = {{kFlops, "sum"}, {kCycles, "max"}};
      p.query = pmove::query::QueryBuilder(kMeasurement)
                    .select(Aggregate::kSum, kFields[kFlops])
                    .select(Aggregate::kMax, kFields[kCycles])
                    .where_tag("job", job_id(h, n))
                    .since(time_of(start))
                    .until(time_of(t))
                    .group_by_time(kGroupNs)
                    .build();
      out.push_back(std::move(p));
    }
    PanelQuery host;
    host.panel = "host";
    host.host = static_cast<int>(seed_ % kHosts);
    host.first_tick = std::max<std::int64_t>(0, t - kWindowTicks);
    host.last_tick = t;
    host.columns = {{kInstructions, "mean"}};
    host.query = pmove::query::QueryBuilder(kMeasurement)
                     .select(Aggregate::kMean, kFields[kInstructions])
                     .where_tag("host", host_name(seed_, host.host))
                     .since(time_of(host.first_tick))
                     .until(time_of(t))
                     .group_by_time(kGroupNs)
                     .build();
    out.push_back(std::move(host));
    PanelQuery cluster;
    cluster.panel = "cluster";
    cluster.first_tick = std::max<std::int64_t>(0, t - kClusterTicks);
    cluster.last_tick = t;
    cluster.columns = {{kBytes, "max"}};
    cluster.query = pmove::query::QueryBuilder(kMeasurement)
                        .select(Aggregate::kMax, kFields[kBytes])
                        .since(time_of(cluster.first_tick))
                        .until(time_of(t))
                        .group_by_time(kGroupNs)
                        .build();
    out.push_back(std::move(cluster));
    for (PanelQuery& p : out) p.run_span = "query.run." + p.panel;
    return out;
  }

  /// The exact answer of `p`, computed from the generator.
  [[nodiscard]] std::vector<std::vector<double>> reference(
      const PanelQuery& p) const {
    std::vector<std::string> aggregates;
    for (const auto& column : p.columns) aggregates.push_back(column.second);
    BucketRef ref(kGroupNs, aggregates);
    const std::int64_t lo = std::max(p.first_tick, first_live_tick());
    for (std::int64_t k = lo; k <= p.last_tick; ++k) {
      for (int h = 0; h < kHosts; ++h) {
        if (p.host >= 0 && h != p.host) continue;
        const std::int64_t n = job_index(h, k);
        if (p.job >= 0 && n != p.job) continue;
        for (int c = 0; c < kCpus; ++c) {
          for (std::size_t i = 0; i < p.columns.size(); ++i) {
            ref.add(time_of(k), i,
                    field_value(seed_, series(h, c, n), p.columns[i].first, k));
          }
        }
      }
    }
    return ref.rows();
  }

  [[nodiscard]] std::uint64_t live_values() const {
    return static_cast<std::uint64_t>(next_tick_ - first_live_tick()) *
           kHosts * kCpus * 4;
  }

 private:
  static std::int64_t offset(int h) { return h * kJobTicks / kHosts; }
  static std::int64_t job_index(int h, std::int64_t t) {
    return (t + offset(h)) / kJobTicks;
  }
  static std::int64_t job_start(int h, std::int64_t n) {
    return std::max<std::int64_t>(0, n * kJobTicks - offset(h));
  }
  static std::string job_id(int h, std::int64_t n) {
    return "job-" + std::to_string(h) + "-" + std::to_string(n);
  }
  static std::uint64_t series(int h, int c, std::int64_t n) {
    return (static_cast<std::uint64_t>(h * kCpus + c) << 32) |
           static_cast<std::uint64_t>(n);
  }
  [[nodiscard]] std::int64_t first_live_tick() const {
    const TimeNs cutoff = pipeline_.cutoff();
    if (cutoff <= kEpochNs) return 0;
    return (cutoff - kEpochNs + kTickNs - 1) / kTickNs;
  }

  std::uint64_t seed_;
  std::unique_ptr<pmove::core::Daemon> daemon_;
  Pipeline pipeline_;
  std::int64_t next_tick_ = 0;
};

}  // namespace

Report run_jobs(const Options& options) {
  Report report;
  Ledger& ledger = report.ledger;
  Tracer tracer(options.trace);
  const std::string wal_dir = options.work_dir + "/wal-jobs";

  // The timed phase may add only a fifth more series than the set-up left,
  // so it is short; the run measures kSetups of them, each after a fresh
  // set-up, and pools their samples.
  const std::int64_t ticks_per_part = options.seconds * kTicksPerRunSecond;
  Samples setup_s;
  WriteTotals totals;
  Samples refresh_ms;
  std::map<std::string, Samples> scan_us, eval_us, matched;
  std::uint64_t cache_hits = 0, cache_queries = 0;
  std::uint64_t index_probes = 0, filtered_queries = 0;
  DaemonCounters counters;
  std::size_t series_start = 0;
  std::uint64_t jobs_start = 0;
  std::int64_t id = 0;
  std::unique_ptr<JobsRig> rig;
  for (int part = 0; part < kSetups; ++part) {
    rig.reset();
    reset_dir(wal_dir);
    const std::int64_t start = now_ns();
    rig = std::make_unique<JobsRig>(options, wal_dir, tracer, ledger);
    setup_s.add(static_cast<double>(now_ns() - start) / 1e9);

    pmove::core::Daemon& daemon = rig->daemon();
    pmove::query::QueryEngine& engine = daemon.query_engine();
    const auto& db = daemon.timeseries();
    series_start = db.stats().series;
    counters.begin(daemon);
    jobs_start = rig->jobs_started();

    tracer.set_recording(true);
    for (std::int64_t i = 0; i < ticks_per_part; ++i, ++id) {
      rig->tick(totals);

      // One refresh per virtual second: every panel once, timed as one unit.
      const std::vector<PanelQuery> panels = rig->panels();
      std::vector<pmove::Expected<pmove::tsdb::QueryResult>> answers;
      answers.reserve(panels.size());
      std::vector<std::int64_t> run_ns(panels.size());
      const auto engine_before = engine.stats();
      const std::uint64_t probes_before =
          tracer.on() ? db.stats().index_probes : 0;
      const std::int64_t elapsed = timed(tracer, "refresh", id, [&] {
        for (std::size_t k = 0; k < panels.size(); ++k) {
          run_ns[k] = timed(tracer, panels[k].run_span, id, [&] {
            answers.push_back(engine.run(panels[k].query));
          });
        }
      });
      refresh_ms.add(static_cast<double>(elapsed) / 1e6);
      const auto engine_after = engine.stats();
      cache_hits += engine_after.cache_hits - engine_before.cache_hits;
      cache_queries += engine_after.queries - engine_before.queries;
      for (const auto& answer : answers) {
        count(ledger, answer ? pmove::Status::ok() : answer.status(),
              "jobs panel query");
      }
      // Answer check of one rotating panel, outside the timed span.
      const std::size_t k = static_cast<std::size_t>(id) % panels.size();
      ledger.op(answers[k] && answers[k]->rows == rig->reference(panels[k]),
                "jobs " + panels[k].panel + " answer differs from the generator");

      if (!tracer.on()) continue;
      index_probes += db.stats().index_probes - probes_before;
      for (const PanelQuery& p : panels) {
        if (!p.query.tag_filters.empty()) ++filtered_queries;
      }
      // Traced run only: the scan each panel's query starts with.
      Tracer::Scope split(tracer, "split", id);
      for (std::size_t j = 0; j < panels.size(); ++j) {
        const pmove::query::Query& q = panels[j].query;
        std::size_t series = 0;
        const std::int64_t scan =
            timed(tracer, "tsdb.scan." + panels[j].panel, id, [&] {
              db.scan(q.measurement, q.time_min, q.time_max, q.tag_filters,
                      [&](std::span<const pmove::tsdb::SeriesView> found) {
                        series = found.size();
                      });
            });
        scan_us[panels[j].panel].add(static_cast<double>(scan) / 1e3);
        eval_us[panels[j].panel].add(static_cast<double>(run_ns[j] - scan) /
                                     1e3);
        matched[panels[j].panel].add(static_cast<double>(series));
      }
    }
    tracer.set_recording(false);
    counters.end(daemon);

    for (const PanelQuery& p : rig->panels()) {
      auto answer = engine.run(p.query);
      ledger.op(answer && answer->rows == rig->reference(p),
                "final jobs " + p.panel + " answer differs from the generator");
    }
  }

  const auto db_after = rig->daemon().timeseries().stats();
  const double write_s = static_cast<double>(totals.write_ns) / 1e9;
  const double hit_ratio =
      cache_queries == 0 ? 0.0
                         : static_cast<double>(cache_hits) /
                               static_cast<double>(cache_queries);
  report.end_to_end = {
      {"setup_s", setup_s.p50(), "s"},
      {"ingest_vals_per_s", static_cast<double>(totals.values) / write_s,
       "values/s"},
      {"visible_p50_ms", totals.visible_ms.p50(), "ms"},
      {"visible_p90_ms", totals.visible_ms.p90(), "ms"},
      {"refresh_p50_ms", refresh_ms.p50(), "ms"},
      {"refresh_p90_ms", refresh_ms.p90(), "ms"},
      {"bytes_per_value",
       static_cast<double>(db_after.column_bytes + db_after.dict_bytes) /
           static_cast<double>(rig->live_values()),
       "B/value"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  report.shape = {
      {"setups", kSetups},
      {"series_start", static_cast<double>(series_start)},
      {"series_end", static_cast<double>(db_after.series)},
      {"jobs_start", static_cast<double>(jobs_start)},
      {"jobs_end", static_cast<double>(rig->jobs_started())},
      {"rows_per_series", static_cast<double>(kJobTicks)},
      {"window_ticks", static_cast<double>(kWindowTicks)},
      {"values_per_report", kCpus * 4},
      {"batches_per_tick", kHosts},
      {"timed_ticks", static_cast<double>(id)},
      {"refreshes", static_cast<double>(refresh_ms.count())},
      {"panels.job", 4},
      {"panels.host", 1},
      {"panels.cluster", 1},
  };
  report.counters = {
      {"cache_hit_ratio", hit_ratio},
      {"pushdown_share", 0},
  };
  counters.add_counters(report);

  if (options.trace) {
    counters.add_layers(report, tracer, totals.values);
    for (const char* panel : {"job", "host", "cluster"}) {
      const std::string name = panel;
      add_p50(report, "tsdb.scan." + name + "_p50_us", scan_us[name], "us");
      add_p50(report, "tsdb.series_matched." + name, matched[name], "series");
      add_p50(report, "query.run." + name + "_p50_us",
              tracer.durations("query.run." + name, 1e3), "us");
      add_p50(report, "query.eval." + name + "_p50_us", eval_us[name], "us");
    }
    report.per_layer.push_back(
        {"tsdb.index_probes_per_query",
         filtered_queries == 0 ? 0.0
                               : static_cast<double>(index_probes) /
                                     static_cast<double>(filtered_queries),
         "probes"});
    report.per_layer.push_back({"query.cache_hit_ratio", hit_ratio, "ratio"});
    add_traced_end_to_end(report);
    report.self_ms = tracer.self_ms();
    tracer.write(options.work_dir + "/trace-jobs.csv");
  }
  rig.reset();
  remove_dir(wal_dir);
  return report;
}

}  // namespace e2e
