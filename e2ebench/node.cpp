// Workload `node`: one skx target through core::Daemon with the ingest tier
// and its WAL on.  Every tick sends one report covering every telemetry
// entry the KB lists (few wide series); the dashboard is the KB's level view
// of hardware threads and its focus view of cpu0 extended to the root,
// rendered with render_dashboard.  The window holds more rows per series
// than a run seals at, so seal, fold, pack and packed scans all run.
#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dashboard/views.hpp"
#include "harness.hpp"
#include "pipeline.hpp"
#include "query/engine.hpp"

namespace e2e {
namespace {

using pmove::TimeNs;

constexpr int kRateHz = 20;
constexpr TimeNs kTickNs = pmove::kNsPerSec / kRateHz;
/// Rows per series in the retention window (= the set-up ticks).  Above the
/// 4,096-row seal threshold.
constexpr std::int64_t kWindowTicks = 4500;
/// Timed ticks per second of --seconds.
constexpr std::int64_t kTicksPerRunSecond = 400;
/// A refresh every 2 virtual seconds.
constexpr std::int64_t kRefreshEvery = 40;
constexpr int kSetups = 3;

struct Measurement {
  std::string name;
  std::vector<std::string> fields;  ///< sorted
  std::map<std::string, std::size_t, std::less<>> field_index;
};

struct View {
  std::string name;
  pmove::dashboard::Dashboard dashboard;
  std::size_t targets = 0;
  std::string render_span;  ///< "dashboard.render.<name>"
};

TimeNs time_of(std::int64_t tick) { return kEpochNs + tick * kTickNs; }

class NodeRig {
 public:
  NodeRig(const Options& options, const std::string& wal_dir, Tracer& tracer,
          Ledger& ledger)
      : options_(options),
        daemon_(make_daemon(wal_dir, kWindowTicks * kTickNs, ledger)),
        pipeline_(*daemon_, tracer, ledger) {
    count(ledger, daemon_->attach_target("skx"), "attach_target");
    if (!daemon_->attached()) return;
    const auto& kb = daemon_->knowledge_base();
    host_ = kb.hostname();
    // Every telemetry entry of the KB: one measurement per DBName, one
    // field per FieldName.  An entry without a FieldName is a single-valued
    // metric (its panel selects *), reported as field "value".
    std::map<std::string, std::set<std::string>> by_measurement;
    for (const auto* component : kb.root().subtree()) {
      auto dtmi = kb.dtmi_for(*component);
      if (!dtmi) continue;
      for (const auto& entry : kb.telemetry_of(dtmi.value())) {
        const auto* db = entry.find("DBName");
        if (db == nullptr) continue;
        const auto* field = entry.find("FieldName");
        const std::string name = field != nullptr ? field->string_or("") : "";
        by_measurement[db->string_or("")].insert(name.empty() ? "value" : name);
      }
    }
    for (auto& [name, fields] : by_measurement) {
      Measurement m;
      m.name = name;
      m.fields.assign(fields.begin(), fields.end());
      for (std::size_t i = 0; i < m.fields.size(); ++i) {
        m.field_index.emplace(m.fields[i], i);
      }
      values_per_tick_ += m.fields.size();
      measurements_.push_back(std::move(m));
    }
    pmove::dashboard::ViewBuilder builder(&kb);
    auto level = builder.level_view(pmove::topology::ComponentKind::kThread,
                                    "kernel.percpu.cpu.idle");
    const auto* cpu0 = kb.root().find_by_name("cpu0");
    auto cpu0_dtmi = cpu0 != nullptr ? kb.dtmi_for(*cpu0)
                                     : pmove::Expected<std::string>(
                                           pmove::Status::not_found("cpu0"));
    auto focus = cpu0_dtmi ? builder.focus_view(cpu0_dtmi.value(), true)
                           : pmove::Expected<pmove::dashboard::Dashboard>(
                                 cpu0_dtmi.status());
    count(ledger, level ? pmove::Status::ok() : level.status(), "level_view");
    count(ledger, focus ? pmove::Status::ok() : focus.status(), "focus_view");
    if (level) add_view("level", std::move(level.value()));
    if (focus) add_view("focus", std::move(focus.value()));
    // The set-up fills the retention window through the same tick calls.
    WriteTotals ignored;
    while (next_tick_ < kWindowTicks) tick(ignored);
  }

  NodeRig(const NodeRig&) = delete;
  NodeRig& operator=(const NodeRig&) = delete;

  [[nodiscard]] bool ready() const {
    return daemon_->attached() && views_.size() == 2 &&
           !measurements_.empty();
  }
  pmove::core::Daemon& daemon() { return *daemon_; }
  [[nodiscard]] const std::vector<View>& views() const { return views_; }
  [[nodiscard]] std::size_t values_per_tick() const { return values_per_tick_; }
  [[nodiscard]] std::size_t measurement_count() const {
    return measurements_.size();
  }

  /// One tick: the report, then housekeeping once per virtual second.
  void tick(WriteTotals& totals) {
    const std::int64_t t = next_tick_++;
    std::vector<Batch> batches(1);
    Batch& report = batches.front();
    report.reserve(measurements_.size());
    for (std::size_t mi = 0; mi < measurements_.size(); ++mi) {
      pmove::tsdb::Point point;
      point.measurement = measurements_[mi].name;
      point.tags.emplace("host", host_);
      point.time = time_of(t);
      const auto& fields = measurements_[mi].fields;
      for (std::size_t fi = 0; fi < fields.size(); ++fi) {
        point.fields.emplace_hint(point.fields.end(), fields[fi],
                                  field_value(options_.seed, mi, fi, t));
      }
      report.push_back(std::move(point));
    }
    const std::int64_t visible = pipeline_.tick(batches, t);
    totals.visible_ms.add(static_cast<double>(visible) / 1e6);
    totals.write_ns += visible;
    totals.values += values_per_tick_;
    if ((t + 1) % kRateHz == 0) {
      totals.write_ns += pipeline_.housekeeping(time_of(t), t);
    }
  }

  /// Live values of the workload's own series (the exporter's pmove_*
  /// rows ride along in the byte count as the daemon's overhead).
  [[nodiscard]] std::uint64_t live_values() const {
    return values_per_tick_ *
           static_cast<std::uint64_t>(next_tick_ - first_live_tick());
  }

  /// Checks one dashboard target's answer against the generator: every row
  /// of the window, in time order, with the exact values.
  bool check(const pmove::dashboard::Target& target,
             const pmove::tsdb::QueryResult& result) const {
    const auto m = std::find_if(
        measurements_.begin(), measurements_.end(),
        [&](const Measurement& x) { return x.name == target.measurement; });
    if (m == measurements_.end() || result.columns.empty() ||
        result.columns[0] != "time") {
      return false;
    }
    const auto mi = static_cast<std::uint64_t>(m - measurements_.begin());
    std::vector<std::uint64_t> field_ids;
    for (std::size_t c = 1; c < result.columns.size(); ++c) {
      auto it = m->field_index.find(result.columns[c]);
      if (it == m->field_index.end()) return false;
      field_ids.push_back(it->second);
    }
    const bool columns_ok =
        target.params.empty()
            ? field_ids.size() == m->fields.size()
            : field_ids.size() == 1 && result.columns[1] == target.params;
    if (!columns_ok) return false;
    const std::int64_t lo = first_live_tick();
    if (result.rows.size() != static_cast<std::size_t>(next_tick_ - lo)) {
      return false;
    }
    for (std::size_t r = 0; r < result.rows.size(); ++r) {
      const auto& row = result.rows[r];
      const std::int64_t t = lo + static_cast<std::int64_t>(r);
      if (row.size() != field_ids.size() + 1 ||
          row[0] != static_cast<double>(time_of(t))) {
        return false;
      }
      for (std::size_t c = 0; c < field_ids.size(); ++c) {
        if (row[c + 1] != field_value(options_.seed, mi, field_ids[c], t)) {
          return false;
        }
      }
    }
    return true;
  }

 private:
  void add_view(std::string name, pmove::dashboard::Dashboard dashboard) {
    View view;
    view.render_span = "dashboard.render." + name;
    view.name = std::move(name);
    for (const auto& panel : dashboard.panels) {
      view.targets += panel.targets.size();
    }
    view.dashboard = std::move(dashboard);
    views_.push_back(std::move(view));
  }

  [[nodiscard]] std::int64_t first_live_tick() const {
    const TimeNs cutoff = pipeline_.cutoff();
    if (cutoff <= kEpochNs) return 0;
    return (cutoff - kEpochNs + kTickNs - 1) / kTickNs;
  }

  const Options& options_;
  std::unique_ptr<pmove::core::Daemon> daemon_;
  Pipeline pipeline_;
  std::string host_;
  std::vector<Measurement> measurements_;
  std::vector<View> views_;
  std::size_t values_per_tick_ = 0;
  std::int64_t next_tick_ = 0;
};

/// Sparkline placeholder render_dashboard prints for a target whose query
/// failed or returned nothing.
std::size_t count_no_data(const std::string& rendered) {
  std::size_t n = 0;
  for (std::size_t pos = rendered.find("|(no data)|");
       pos != std::string::npos;
       pos = rendered.find("|(no data)|", pos + 1)) {
    ++n;
  }
  return n;
}

}  // namespace

Report run_node(const Options& options) {
  Report report;
  Ledger& ledger = report.ledger;
  Tracer tracer(options.trace);
  const std::string wal_dir = options.work_dir + "/wal-node";

  // Set up several times; the last rig is the one measured.
  Samples setup_s;
  std::unique_ptr<NodeRig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    reset_dir(wal_dir);
    const std::int64_t start = now_ns();
    rig = std::make_unique<NodeRig>(options, wal_dir, tracer, ledger);
    setup_s.add(static_cast<double>(now_ns() - start) / 1e9);
  }
  if (!rig->ready()) {
    ledger.op(false, "node set-up incomplete");
    return report;
  }
  pmove::core::Daemon& daemon = rig->daemon();
  pmove::query::QueryEngine& engine = daemon.query_engine();
  const auto& views = rig->views();
  // Split calls of the traced run go through their own uncached engine so
  // the dashboard's cache statistics stay untouched.
  pmove::query::QueryEngine split_engine(
      daemon.timeseries(), pmove::query::EngineOptions{.cache_capacity = 0});

  const std::size_t series_start = daemon.timeseries().stats().series;
  DaemonCounters counters;
  counters.begin(daemon);

  std::vector<const pmove::dashboard::Target*> all_targets;
  for (const View& view : views) {
    for (const auto& panel : view.dashboard.panels) {
      for (const auto& target : panel.targets) all_targets.push_back(&target);
    }
  }
  const std::int64_t timed_ticks = options.seconds * kTicksPerRunSecond;
  WriteTotals totals;
  Samples refresh_ms;
  Samples render_self_ms;
  std::map<std::string, Samples> scan_us, run_us, eval_us, matched;
  std::uint64_t cache_hits = 0, cache_queries = 0;
  std::int64_t refreshes = 0;

  tracer.set_recording(true);
  for (std::int64_t i = 0; i < timed_ticks; ++i) {
    rig->tick(totals);
    if ((i + 1) % kRefreshEvery != 0) continue;

    // One refresh: every panel of both dashboards, timed as one unit.
    const std::int64_t id = refreshes++;
    const auto engine_before = engine.stats();
    std::vector<std::string> rendered(views.size());
    const std::int64_t elapsed = timed(tracer, "refresh", id, [&] {
      for (std::size_t v = 0; v < views.size(); ++v) {
        Tracer::Scope render(tracer, views[v].render_span, id);
        rendered[v] =
            pmove::dashboard::render_dashboard(views[v].dashboard, engine);
      }
    });
    refresh_ms.add(static_cast<double>(elapsed) / 1e6);
    const auto engine_after = engine.stats();
    cache_hits += engine_after.cache_hits - engine_before.cache_hits;
    cache_queries += engine_after.queries - engine_before.queries;
    for (std::size_t v = 0; v < views.size(); ++v) {
      const std::size_t no_data = count_no_data(rendered[v]);
      for (std::size_t k = 0; k < views[v].targets; ++k) {
        ledger.op(k >= no_data, "panel rendered no data");
      }
    }

    // Answer check of one rotating panel, outside the timed span.
    const auto* target =
        all_targets[static_cast<std::size_t>(id) % all_targets.size()];
    auto answer = engine.run(target->to_typed_query());
    ledger.op(answer && rig->check(*target, answer.value()),
              "node panel answer differs from the generator: " +
                  target->measurement + "[" + target->params + "]");

    if (!tracer.on()) continue;
    // Traced run only: split every panel into its TSDB scan and its query.
    Tracer::Scope split(tracer, "split", id);
    double run_total_ms = 0.0;
    for (const View& view : views) {
      for (const auto& panel : view.dashboard.panels) {
        for (const auto& t : panel.targets) {
          const pmove::query::Query q = t.to_typed_query();
          std::size_t series = 0;
          const std::int64_t scan = timed(tracer, "tsdb.scan." + view.name, id,
                                          [&] {
            daemon.timeseries().scan(
                q.measurement, q.time_min, q.time_max, q.tag_filters,
                [&](std::span<const pmove::tsdb::SeriesView> found) {
                  series = found.size();
                });
          });
          const std::int64_t run = timed(tracer, "query.run." + view.name, id,
                                         [&] { (void)split_engine.run(q); });
          scan_us[view.name].add(static_cast<double>(scan) / 1e3);
          run_us[view.name].add(static_cast<double>(run) / 1e3);
          eval_us[view.name].add(static_cast<double>(run - scan) / 1e3);
          matched[view.name].add(static_cast<double>(series));
          run_total_ms += static_cast<double>(run) / 1e6;
        }
      }
    }
    render_self_ms.add(static_cast<double>(elapsed) / 1e6 - run_total_ms);
  }
  tracer.set_recording(false);
  counters.end(daemon);

  // Every panel against the generator at the end of the run.
  for (const auto* target : all_targets) {
    auto answer = engine.run(target->to_typed_query());
    ledger.op(answer && rig->check(*target, answer.value()),
              "final node panel answer differs: " + target->measurement + "[" +
                  target->params + "]");
  }

  const auto db_after = daemon.timeseries().stats();
  const double live_values = static_cast<double>(rig->live_values());
  const double bytes_per_value =
      static_cast<double>(db_after.column_bytes + db_after.dict_bytes) /
      live_values;
  const double write_s = static_cast<double>(totals.write_ns) / 1e9;
  const double vals_per_s = static_cast<double>(totals.values) / write_s;
  const double hit_ratio =
      cache_queries == 0 ? 0.0
                         : static_cast<double>(cache_hits) /
                               static_cast<double>(cache_queries);

  report.end_to_end = {
      {"setup_s", setup_s.p50(), "s"},
      {"ingest_vals_per_s", vals_per_s, "values/s"},
      {"visible_p50_ms", totals.visible_ms.p50(), "ms"},
      {"visible_p90_ms", totals.visible_ms.p90(), "ms"},
      {"refresh_p50_ms", refresh_ms.p50(), "ms"},
      {"refresh_p90_ms", refresh_ms.p90(), "ms"},
      {"bytes_per_value", bytes_per_value, "B/value"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  report.shape = {
      {"setups", kSetups},
      {"series_start", static_cast<double>(series_start)},
      {"series_end", static_cast<double>(db_after.series)},
      {"rows_per_series", static_cast<double>(kWindowTicks)},
      {"measurements", static_cast<double>(rig->measurement_count())},
      {"values_per_report", static_cast<double>(rig->values_per_tick())},
      {"batches_per_tick", 1},
      {"timed_ticks", static_cast<double>(timed_ticks)},
      {"refreshes", static_cast<double>(refreshes)},
      {"panels.level", static_cast<double>(views[0].targets)},
      {"panels.focus", static_cast<double>(views[1].targets)},
  };
  report.counters = {
      {"cache_hit_ratio", hit_ratio},
      {"pushdown_share", 0},
  };
  counters.add_counters(report);

  if (options.trace) {
    counters.add_layers(report, tracer, totals.values);
    report.per_layer.push_back(
        {"tsdb.packed_ratio",
         db_after.bytes_packed == 0
             ? 0.0
             : static_cast<double>(db_after.bytes_raw) /
                   static_cast<double>(db_after.bytes_packed),
         "x"});
    for (const View& view : views) {
      add_p50(report, "tsdb.scan." + view.name + "_p50_us",
              scan_us[view.name], "us");
      add_p50(report, "tsdb.series_matched." + view.name, matched[view.name],
              "series");
      add_p50(report, "query.run." + view.name + "_p50_us", run_us[view.name],
              "us");
      add_p50(report, "query.eval." + view.name + "_p50_us",
              eval_us[view.name], "us");
    }
    report.per_layer.push_back({"tsdb.index_probes_per_query", 0, "probes"});
    report.per_layer.push_back({"query.cache_hit_ratio", hit_ratio, "ratio"});
    add_p50(report, "dashboard.render_self_ms", render_self_ms, "ms");
    add_traced_end_to_end(report);
    report.self_ms = tracer.self_ms();
    tracer.write(options.work_dir + "/trace-node.csv");
  }
  rig.reset();
  remove_dir(wal_dir);
  return report;
}

}  // namespace e2e
