// Workload `fleet`: fleet::Fleet with 3 nodes over loopback sockets.  Hosts
// report two integer counters per CPU every second and ship them every
// kReportsPerTick seconds, all hosts in one write_batch per tick; the
// dashboard runs through Fleet::query.  Grouped
// panels take the exact Point gather, the ungrouped max is pushed down, so
// the ring router, the wire codecs, per-node RPC and both gather paths run.
#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "fleet/wire/codec.hpp"
#include "harness.hpp"
#include "metrics/names.hpp"
#include "metrics/registry.hpp"
#include "pipeline.hpp"

namespace e2e {
namespace {

using pmove::TimeNs;
using pmove::query::Aggregate;
namespace wire = pmove::fleet::wire;

constexpr int kNodes = 3;
constexpr int kHosts = 16;
constexpr int kCpus = 32;
/// One-second reports shipped per write_batch.  Fewer, larger batches keep
/// the six RPCs of a tick a small part of its time.
constexpr int kReportsPerTick = 4;
constexpr TimeNs kGroupNs = 10 * pmove::kNsPerSec;
/// The widest panel window (the host panel's 5 minutes), filled at set-up.
constexpr std::int64_t kWindowSeconds = 300;
constexpr std::int64_t kRecentSeconds = 60;
constexpr std::int64_t kTicksPerRunSecond = 100;
/// A refresh every 10 ticks (40 virtual seconds).
constexpr std::int64_t kRefreshEvery = 10;
constexpr int kSetups = 5;
constexpr const char* kMeasurement = "fleet_cpu";
constexpr const char* kFields[] = {"cycles", "bytes"};
enum Field : std::uint64_t { kCycles, kBytes };

TimeNs time_of(std::int64_t second) {
  return kEpochNs + second * pmove::kNsPerSec;
}

std::uint64_t series(int h, int c) {
  return static_cast<std::uint64_t>(h * kCpus + c);
}

struct PanelQuery {
  std::string panel;  ///< "all", "host" or "peak"
  std::string query_span;  ///< "fleet.query.<panel>"
  pmove::query::Query query;
  int host = -1;  ///< -1: every host
  std::int64_t first_second = 0;
  std::int64_t last_second = 0;
  Field field = kBytes;
  std::vector<std::string> aggregates;
};

class FleetRig {
 public:
  FleetRig(const Options& options, Tracer& tracer, Ledger& ledger)
      : seed_(options.seed), tracer_(tracer), ledger_(ledger) {
    pmove::fleet::FleetOptions fleet_options;
    fleet_options.node.ingest_shards = 1;
    fleet_options.wire.enabled = true;
    fleet_options.wire.transport.pool_size = 1;
    fleet_ = std::make_unique<pmove::fleet::Fleet>(fleet_options);
    for (int i = 0; i < kNodes; ++i) {
      count(ledger, fleet_->add_node("n" + std::to_string(i)), "add_node");
    }
    WriteTotals ignored;
    while (next_second_ < kWindowSeconds) tick(ignored, nullptr);
  }

  FleetRig(const FleetRig&) = delete;
  FleetRig& operator=(const FleetRig&) = delete;

  pmove::fleet::Fleet& fleet() { return *fleet_; }
  [[nodiscard]] std::int64_t seconds_written() const { return next_second_; }

  /// One tick: every host's reports of the next kReportsPerTick seconds in
  /// one write_batch, then flush.  When `copy` is set it receives the batch
  /// as it was written.
  void tick(WriteTotals& totals, Batch* copy) {
    const std::int64_t t = next_second_ / kReportsPerTick;
    Batch batch;
    batch.reserve(kReportsPerTick * kHosts * kCpus);
    for (int k = 0; k < kReportsPerTick; ++k, ++next_second_) {
      for (int h = 0; h < kHosts; ++h) {
        const std::string host = host_name(seed_, h);
        for (int c = 0; c < kCpus; ++c) {
          pmove::tsdb::Point point;
          point.measurement = kMeasurement;
          point.tags = {{"host", host}, {"cpu", std::to_string(c)}};
          point.time = time_of(next_second_);
          for (std::uint64_t f = 0; f < 2; ++f) {
            point.fields.emplace(
                kFields[f], field_value(seed_, series(h, c), f, next_second_));
          }
          batch.push_back(std::move(point));
        }
      }
    }
    if (copy != nullptr) *copy = batch;
    pmove::Status written, flushed;
    const std::int64_t elapsed = timed(tracer_, "tick", t, [&] {
      {
        Tracer::Scope write(tracer_, "fleet.write", t);
        written = fleet_->write_batch(std::move(batch));
      }
      Tracer::Scope flush(tracer_, "fleet.flush", t);
      flushed = fleet_->flush();
    });
    count(ledger_, written, "fleet write_batch");
    count(ledger_, flushed, "fleet flush");
    totals.visible_ms.add(static_cast<double>(elapsed) / 1e6);
    totals.write_ns += elapsed;
    totals.values += kReportsPerTick * kHosts * kCpus * 2;
  }

  /// The dashboard at the last written second.
  [[nodiscard]] std::vector<PanelQuery> panels() const {
    const std::int64_t t = next_second_ - 1;
    const std::int64_t recent = std::max<std::int64_t>(0, t - kRecentSeconds);
    std::vector<PanelQuery> out(3);
    out[0].panel = "all";
    out[0].first_second = recent;
    out[0].aggregates = {"max", "count"};
    out[0].query = pmove::query::QueryBuilder(kMeasurement)
                       .select(Aggregate::kMax, kFields[kBytes])
                       .select(Aggregate::kCount, kFields[kBytes])
                       .since(time_of(recent))
                       .until(time_of(t))
                       .group_by_time(kGroupNs)
                       .build();
    out[1].panel = "host";
    out[1].host = static_cast<int>(seed_ % kHosts);
    out[1].first_second = std::max<std::int64_t>(0, t - kWindowSeconds);
    out[1].field = kCycles;
    out[1].aggregates = {"mean"};
    out[1].query = pmove::query::QueryBuilder(kMeasurement)
                       .select(Aggregate::kMean, kFields[kCycles])
                       .where_tag("host", host_name(seed_, out[1].host))
                       .since(time_of(out[1].first_second))
                       .until(time_of(t))
                       .group_by_time(kGroupNs)
                       .build();
    out[2].panel = "peak";
    out[2].first_second = recent;
    out[2].aggregates = {"max"};
    out[2].query = pmove::query::QueryBuilder(kMeasurement)
                       .select(Aggregate::kMax, kFields[kBytes])
                       .since(time_of(recent))
                       .until(time_of(t))
                       .build();
    for (PanelQuery& p : out) {
      p.last_second = t;
      p.query_span = "fleet.query." + p.panel;
    }
    return out;
  }

  /// The exact answer of `p`, computed from the generator.
  [[nodiscard]] std::vector<std::vector<double>> reference(
      const PanelQuery& p) const {
    const bool grouped = p.query.group_interval > 0;
    // An ungrouped answer is one bucket stamped with the last matched time.
    BucketRef ref(grouped ? kGroupNs : std::numeric_limits<TimeNs>::max(),
                  p.aggregates);
    for (std::int64_t k = p.first_second; k <= p.last_second; ++k) {
      for (int h = 0; h < kHosts; ++h) {
        if (p.host >= 0 && h != p.host) continue;
        for (int c = 0; c < kCpus; ++c) {
          const double v = field_value(seed_, series(h, c), p.field, k);
          for (std::size_t i = 0; i < p.aggregates.size(); ++i) {
            ref.add(time_of(k), i, v);
          }
        }
      }
    }
    auto rows = ref.rows();
    if (!grouped) {
      for (auto& row : rows) {
        row[0] = static_cast<double>(time_of(p.last_second));
      }
    }
    return rows;
  }

  [[nodiscard]] std::uint64_t live_values() const {
    return static_cast<std::uint64_t>(next_second_) * kHosts * kCpus * 2;
  }

 private:
  std::uint64_t seed_;
  Tracer& tracer_;
  Ledger& ledger_;
  std::unique_ptr<pmove::fleet::Fleet> fleet_;
  std::int64_t next_second_ = 0;
};

}  // namespace

Report run_fleet(const Options& options) {
  Report report;
  Ledger& ledger = report.ledger;
  Tracer tracer(options.trace);

  Samples setup_s;
  std::unique_ptr<FleetRig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    const std::int64_t start = now_ns();
    rig = std::make_unique<FleetRig>(options, tracer, ledger);
    setup_s.add(static_cast<double>(now_ns() - start) / 1e9);
  }
  pmove::fleet::Fleet& fleet = rig->fleet();
  std::vector<pmove::fleet::FleetNode*> nodes;
  for (const std::string& name : fleet.nodes()) {
    auto node = fleet.node(name);
    if (node) nodes.push_back(node.value());
  }
  pmove::metrics::Counter& wire_sent = pmove::metrics::Registry::global().counter(
      pmove::metrics::kMeasurementWire, "transport", "bytes_sent");

  const std::int64_t timed_ticks = options.seconds * kTicksPerRunSecond;
  WriteTotals totals;
  Samples refresh_ms;
  std::map<std::string, Samples> node_eval_ms, encode_reply_us,
      decode_reply_us;
  Samples encode_batch_us, decode_batch_us;
  std::uint64_t wire_write_bytes = 0;
  std::uint64_t queries = 0, pushdowns = 0, nodes_missing = 0;
  std::size_t series_start = 0;
  for (auto* node : nodes) series_start += node->db().stats().series;

  tracer.set_recording(true);
  for (std::int64_t i = 0; i < timed_ticks; ++i) {
    Batch copy;
    const std::uint64_t sent_before = wire_sent.value();
    rig->tick(totals, tracer.on() ? &copy : nullptr);
    wire_write_bytes += wire_sent.value() - sent_before;
    if (tracer.on()) {
      // Traced run only: the codec work of the tick's batch.
      wire::Writer w;
      encode_batch_us.add(static_cast<double>(timed(
          tracer, "wire.encode_batch", i,
          [&] { wire::encode_points(copy, w); })) / 1e3);
      Batch decoded;
      wire::Reader r(w.buffer());
      decode_batch_us.add(static_cast<double>(timed(
          tracer, "wire.decode_batch", i,
          [&] { (void)wire::decode_points(r, decoded); })) / 1e3);
    }
    if ((i + 1) % kRefreshEvery != 0) continue;

    const std::int64_t id = static_cast<std::int64_t>(refresh_ms.count());
    const std::vector<PanelQuery> panels = rig->panels();
    std::vector<pmove::Expected<pmove::fleet::FleetQueryResult>> answers;
    answers.reserve(panels.size());
    const std::int64_t elapsed = timed(tracer, "refresh", id, [&] {
      for (const PanelQuery& p : panels) {
        Tracer::Scope query(tracer, p.query_span, id);
        answers.push_back(fleet.query(p.query));
      }
    });
    refresh_ms.add(static_cast<double>(elapsed) / 1e6);
    for (std::size_t k = 0; k < answers.size(); ++k) {
      const auto& answer = answers[k];
      ++queries;
      if (answer) {
        pushdowns += answer->pushdown ? 1 : 0;
        nodes_missing += answer->nodes_missing.size();
      }
      ledger.op(answer && !answer->degraded(),
                "fleet " + panels[k].panel + " query failed or degraded");
    }
    const std::size_t k = static_cast<std::size_t>(id) % panels.size();
    ledger.op(answers[k] && answers[k]->result.rows == rig->reference(panels[k]),
              "fleet " + panels[k].panel + " answer differs from the generator");

    if (!tracer.on()) continue;
    // Traced run only: each panel evaluated on every node directly, and the
    // codec work of each node's reply.  Max over nodes.
    Tracer::Scope split(tracer, "split", id);
    for (std::size_t p = 0; p < panels.size(); ++p) {
      const bool pushdown = answers[p] && answers[p]->pushdown;
      std::int64_t eval_max = 0, encode_max = 0, decode_max = 0;
      for (auto* node : nodes) {
        wire::Writer w;
        std::int64_t eval = 0, encode = 0, decode = 0;
        if (pushdown) {
          pmove::Expected<pmove::fleet::NodePartial> partial =
              pmove::Status::unavailable("not run");
          eval = timed(tracer, "fleet.node_eval." + panels[p].panel, id,
                       [&] { partial = node->execute(panels[p].query); });
          if (partial) {
            encode = timed(tracer, "wire.encode_reply", id,
                           [&] { wire::encode_partial(partial.value(), w); });
            pmove::fleet::NodePartial back;
            wire::Reader r(w.buffer());
            decode = timed(tracer, "wire.decode_reply", id,
                           [&] { (void)wire::decode_partial(r, back); });
          }
        } else {
          pmove::Expected<std::vector<pmove::tsdb::Point>> points =
              pmove::Status::unavailable("not run");
          eval = timed(tracer, "fleet.node_eval." + panels[p].panel, id,
                       [&] { points = node->collect(panels[p].query); });
          if (points) {
            encode = timed(tracer, "wire.encode_reply", id,
                           [&] { wire::encode_points(points.value(), w); });
            Batch back;
            wire::Reader r(w.buffer());
            decode = timed(tracer, "wire.decode_reply", id,
                           [&] { (void)wire::decode_points(r, back); });
          }
        }
        eval_max = std::max(eval_max, eval);
        encode_max = std::max(encode_max, encode);
        decode_max = std::max(decode_max, decode);
      }
      node_eval_ms[panels[p].panel].add(static_cast<double>(eval_max) / 1e6);
      encode_reply_us[panels[p].panel].add(static_cast<double>(encode_max) /
                                           1e3);
      decode_reply_us[panels[p].panel].add(static_cast<double>(decode_max) /
                                           1e3);
    }
  }
  tracer.set_recording(false);

  for (const PanelQuery& p : rig->panels()) {
    auto answer = fleet.query(p.query);
    ledger.op(answer && !answer->degraded() &&
                  answer->result.rows == rig->reference(p),
              "final fleet " + p.panel + " answer differs from the generator");
  }

  std::size_t bytes = 0, points = 0, series_end = 0, max_depth = 0;
  std::uint64_t blocked = 0;
  for (auto* node : nodes) {
    const auto stats = node->db().stats();
    bytes += stats.column_bytes + stats.dict_bytes;
    points += stats.points;
    series_end += stats.series;
    const auto ingest = node->engine().stats();
    blocked += ingest.blocked_submits;
    max_depth = std::max(max_depth, ingest.max_queue_depth);
  }
  ledger.op(points * 2 == rig->live_values(), "fleet lost points");
  const double write_s = static_cast<double>(totals.write_ns) / 1e9;
  const double pushdown_share =
      queries == 0 ? 0.0
                   : static_cast<double>(pushdowns) / static_cast<double>(queries);
  report.end_to_end = {
      {"setup_s", setup_s.p50(), "s"},
      {"ingest_vals_per_s", static_cast<double>(totals.values) / write_s,
       "values/s"},
      {"visible_p50_ms", totals.visible_ms.p50(), "ms"},
      {"visible_p90_ms", totals.visible_ms.p90(), "ms"},
      {"refresh_p50_ms", refresh_ms.p50(), "ms"},
      {"refresh_p90_ms", refresh_ms.p90(), "ms"},
      {"bytes_per_value",
       static_cast<double>(bytes) / static_cast<double>(rig->live_values()),
       "B/value"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  report.shape = {
      {"setups", kSetups},
      {"nodes", kNodes},
      {"series_start", static_cast<double>(series_start)},
      {"series_end", static_cast<double>(series_end)},
      {"rows_per_series", static_cast<double>(rig->seconds_written())},
      {"values_per_report", 2},
      {"reports_per_tick", kReportsPerTick},
      {"values_per_tick", kReportsPerTick * kHosts * kCpus * 2},
      {"batches_per_tick", 1},
      {"timed_ticks", static_cast<double>(timed_ticks)},
      {"refreshes", static_cast<double>(refresh_ms.count())},
      {"panels.all", 1},
      {"panels.host", 1},
      {"panels.peak", 1},
  };
  report.counters = {
      {"blocked_submits", static_cast<double>(blocked)},
      {"pushdown_share", pushdown_share},
      {"nodes_missing", static_cast<double>(nodes_missing)},
  };

  if (options.trace) {
    add_p50(report, "fleet.write_p50_us", tracer.durations("fleet.write", 1e3),
            "us");
    add_p50(report, "fleet.flush_p50_ms", tracer.durations("fleet.flush", 1e6),
            "ms");
    for (const char* panel : {"all", "host", "peak"}) {
      const std::string name = panel;
      add_p50(report, "fleet.query." + name + "_p50_ms",
              tracer.durations("fleet.query." + name, 1e6), "ms");
      add_p50(report, "fleet.node_eval." + name + "_p50_ms",
              node_eval_ms[name], "ms");
      add_p50(report, "wire.encode_reply." + name + "_us",
              encode_reply_us[name], "us");
      add_p50(report, "wire.decode_reply." + name + "_us",
              decode_reply_us[name], "us");
    }
    report.per_layer.push_back(
        {"fleet.pushdown_share", pushdown_share, "ratio"});
    report.per_layer.push_back(
        {"fleet.nodes_missing", static_cast<double>(nodes_missing), "count"});
    add_p50(report, "wire.encode_batch_us", encode_batch_us, "us");
    add_p50(report, "wire.decode_batch_us", decode_batch_us, "us");
    report.per_layer.push_back(
        {"wire.bytes_per_value",
         static_cast<double>(wire_write_bytes) /
             static_cast<double>(totals.values),
         "B/value"});
    report.per_layer.push_back(
        {"ingest.blocked_submits", static_cast<double>(blocked), "count"});
    report.per_layer.push_back(
        {"ingest.max_queue_depth", static_cast<double>(max_depth), "batches"});
    add_traced_end_to_end(report);
    report.self_ms = tracer.self_ms();
    tracer.write(options.work_dir + "/trace-fleet.csv");
  }
  return report;
}

}  // namespace e2e
