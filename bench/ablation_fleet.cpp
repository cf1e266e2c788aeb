// Ablation: the fleet execution tier at 10..100 nodes.
//
// Promoting the cluster model to an execution tier only pays if three
// things hold at scale: consistent-hash placement keeps the per-node load
// balanced as the fleet grows, scatter/gather answers stay bit-for-bit
// identical to a single fat node holding all the data, and killing a node
// degrades queries (nodes_missing) instead of failing them.  This ablation
// sweeps the node count over the same many-series workload and measures
// all three: routed-write throughput and placement imbalance per fleet
// size, exact + pushdown gather latency, a parity gate against the fat
// node (exact, pushdown and grouped pushdown answers), and a node-kill
// chaos pass that must complete degraded.  Results
// land in BENCH_fleet.json in the working directory.
//
// With --wire the same sweep runs twice per fleet size — once over the
// in-process transport and once with every node behind its own loopback
// TCP server — so the wire tier's framing/reconnect overhead is measured
// against the zero-copy baseline, and the socket path faces the same
// parity and chaos gates (the chaos kill actually stops the victim's
// server).  Wire results land in BENCH_fleet_wire.json.
//
// Usage: ablation_fleet [--wire] [series] [points_per_series] [nodes_csv]
//        (default 1000000 series x 1 point, fleets of 10,25,50,100;
//         --wire defaults to 100000 series, fleets of 4,8,16)
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "query/plan.hpp"
#include "query/query.hpp"
#include "support/report.hpp"
#include "support/runner.hpp"
#include "tsdb/db.hpp"
#include "util/clock.hpp"

using namespace pmove;
using bench::Better;

namespace {

/// Alternating rounds of the exact vs pushdown gather pair.
constexpr int kGatherRounds = 3;

std::string series_id(std::size_t s) {
  char id[32];
  std::snprintf(id, sizeof(id), "s-%07zu", s);
  return id;
}

std::vector<tsdb::Point> workload(std::size_t series,
                                  std::size_t per_series) {
  std::vector<tsdb::Point> batch;
  batch.reserve(series * per_series);
  for (std::size_t t = 0; t < per_series; ++t) {
    for (std::size_t s = 0; s < series; ++s) {
      tsdb::Point point;
      point.measurement = "fleet_bench";
      point.tags["series"] = series_id(s);
      point.time = static_cast<TimeNs>(t + 1) * 1'000'000;
      point.fields["value"] =
          static_cast<double>(s % 1'000) + static_cast<double>(t) * 0.5;
      batch.push_back(std::move(point));
    }
  }
  return batch;
}

/// The fleet's parity verdict: the same columns, and every value
/// bit-equal to its counterpart — no epsilon, and the sign of zero and a
/// NaN's bits count.
bool rows_equal(const tsdb::QueryResult& a, const tsdb::QueryResult& b) {
  if (a.columns != b.columns || a.rows.size() != b.rows.size()) return false;
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (std::size_t c = 0; c < a.rows[r].size(); ++c) {
      if (std::bit_cast<std::uint64_t>(a.rows[r][c]) !=
          std::bit_cast<std::uint64_t>(b.rows[r][c])) {
        return false;
      }
    }
  }
  return true;
}

struct FleetRow {
  const char* transport = "inproc";
  int nodes = 0;
  double write_s = 0.0;
  double write_points_per_s = 0.0;
  double imbalance = 0.0;  ///< max node / ideal share
  double exact_query_ms = 0.0;
  double pushdown_query_ms = 0.0;
  bool parity_ok = false;
  bool chaos_degraded_ok = false;
  bool failed = false;  ///< infrastructure failure (write/add_node)
};

struct GroundTruth {
  const query::Query* exact_q = nullptr;
  const query::Query* push_q = nullptr;
  const query::Query* grouped_q = nullptr;  ///< grouped max + count
  const tsdb::QueryResult* exact = nullptr;
  const tsdb::QueryResult* push = nullptr;
  const tsdb::QueryResult* grouped = nullptr;
};

// One fleet at one size, over whichever transport `options` selects:
// routed write, balance, gather latency + parity gate, node-kill chaos
// gate.  kill_node() stops the victim's socket server in wire mode and
// flips the chaos switch in-process, so both paths face the same drill.
FleetRow run_fleet(fleet::FleetOptions options, int n, std::size_t series,
                   std::size_t per_series, const GroundTruth& truth) {
  FleetRow row;
  row.transport = options.wire.enabled ? "wire" : "inproc";
  row.nodes = n;
  const std::size_t total_points = series * per_series;

  fleet::Fleet fleet(std::move(options));
  for (int i = 0; i < n; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "node-%03d", i + 1);
    if (!fleet.add_node(name).is_ok()) {
      std::fprintf(stderr, "add_node failed at %d nodes (%s)\n", n,
                   row.transport);
      row.failed = true;
      return row;
    }
  }

  // Routed write throughput (includes the ring split + per-node ingest;
  // in wire mode also the encode/frame/socket round trip per node batch).
  auto batch = workload(series, per_series);
  const WallClock wall;
  const TimeNs write_start = wall.now();
  if (!fleet.write_batch(std::move(batch)).is_ok() ||
      !fleet.flush().is_ok()) {
    std::fprintf(stderr, "fleet write failed at %d nodes (%s)\n", n,
                 row.transport);
    row.failed = true;
    return row;
  }
  row.write_s = to_seconds(wall.now() - write_start);
  row.write_points_per_s =
      static_cast<double>(total_points) / std::max(1e-9, row.write_s);

  // Placement balance.
  std::size_t max_node_points = 0;
  for (const auto& name : fleet.nodes()) {
    auto node = fleet.node(name);
    if (!node.has_value()) continue;
    max_node_points = std::max(max_node_points, (*node)->point_count());
  }
  const double ideal =
      static_cast<double>(total_points) / static_cast<double>(n);
  row.imbalance = static_cast<double>(max_node_points) / ideal;

  // The parity gate, then scatter/gather latency.  Both pushdown shapes,
  // ungrouped and grouped, must come back pushed down.  Every timed
  // gather must also come back whole (and pushed down), so a fast error
  // or a degraded reply cannot set the fastest time.
  auto exact = fleet.query(*truth.exact_q);
  auto push = fleet.query(*truth.push_q);
  auto grouped = fleet.query(*truth.grouped_q);
  row.parity_ok = exact.has_value() && push.has_value() &&
                  grouped.has_value() && !exact->degraded() &&
                  !push->degraded() && !grouped->degraded() &&
                  push->pushdown && grouped->pushdown &&
                  rows_equal(exact->result, *truth.exact) &&
                  rows_equal(push->result, *truth.push) &&
                  rows_equal(grouped->result, *truth.grouped);
  bool timed_ok = true;
  const bench::AbTimes gather = bench::run_ab(
      kGatherRounds,
      [&] {
        auto r = fleet.query(*truth.exact_q);
        timed_ok = timed_ok && r.has_value() && !r->degraded();
      },
      [&] {
        auto r = fleet.query(*truth.push_q);
        timed_ok = timed_ok && r.has_value() && !r->degraded() && r->pushdown;
      });
  row.parity_ok = row.parity_ok && timed_ok;
  row.exact_query_ms = gather.a_s * 1e3;
  row.pushdown_query_ms = gather.b_s * 1e3;

  // Chaos: kill one data-holding node; the query must complete degraded,
  // naming exactly the dead node.
  std::string victim;
  for (const auto& name : fleet.nodes()) {
    auto node = fleet.node(name);
    if (node.has_value() && (*node)->point_count() > 0) {
      victim = name;
      break;
    }
  }
  if (!fleet.kill_node(victim).is_ok()) {
    std::fprintf(stderr, "kill_node failed at %d nodes (%s)\n", n,
                 row.transport);
    row.failed = true;
    return row;
  }
  auto degraded = fleet.query(*truth.push_q);
  row.chaos_degraded_ok = degraded.has_value() && degraded->degraded() &&
                          degraded->nodes_missing.size() == 1 &&
                          degraded->nodes_missing.front() == victim;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool wire = false;
  int arg = 1;
  if (arg < argc && std::strcmp(argv[arg], "--wire") == 0) {
    wire = true;
    ++arg;
  }
  // The socket sweep defaults smaller: every point batch crosses a real
  // socket, and the interesting signal (framing overhead, parity, chaos)
  // saturates well below the placement sweep's 100-node fleets.
  std::size_t series = wire ? 100'000 : 1'000'000;
  std::size_t per_series = 1;
  std::vector<int> node_counts =
      wire ? std::vector<int>{4, 8, 16} : std::vector<int>{10, 25, 50, 100};
  if (arg < argc) series = static_cast<std::size_t>(std::atoll(argv[arg++]));
  if (arg < argc) {
    per_series = static_cast<std::size_t>(std::atoll(argv[arg++]));
  }
  if (arg < argc) {
    node_counts.clear();
    for (const char* p = argv[arg]; *p != '\0';) {
      node_counts.push_back(std::atoi(p));
      const char* comma = std::strchr(p, ',');
      if (comma == nullptr) break;
      p = comma + 1;
    }
  }
  if (series == 0 || per_series == 0 || node_counts.empty()) {
    std::fprintf(stderr,
                 "usage: ablation_fleet [--wire] [series] "
                 "[points_per_series] [nodes_csv]\n");
    return 2;
  }

  std::printf("ABLATION: fleet execution tier (%zu series x %zu points%s)\n\n",
              series, per_series, wire ? ", wire vs in-process" : "");

  // Ground truth once: the whole workload on a single fat node, evaluated
  // by the same single-node pipeline the fleet gather must reproduce.
  const query::Query exact_q = query::QueryBuilder("fleet_bench")
                                   .select(query::Aggregate::kMean, "value")
                                   .select(query::Aggregate::kSum, "value")
                                   .build();
  const query::Query push_q = query::QueryBuilder("fleet_bench")
                                  .select(query::Aggregate::kMin, "value")
                                  .select(query::Aggregate::kMax, "value")
                                  .select(query::Aggregate::kCount, "value")
                                  .build();
  const query::Query grouped_q = query::QueryBuilder("fleet_bench")
                                     .select(query::Aggregate::kMax, "value")
                                     .select(query::Aggregate::kCount, "value")
                                     .group_by_time(1'000'000)
                                     .build();
  tsdb::TimeSeriesDb fat;
  if (!fat.write_batch(workload(series, per_series)).is_ok()) {
    std::fprintf(stderr, "fat node write failed\n");
    return 1;
  }
  const auto fat_exact = query::run(fat, exact_q);
  const auto fat_push = query::run(fat, push_q);
  const auto fat_grouped = query::run(fat, grouped_q);
  if (!fat_exact.has_value() || !fat_push.has_value() ||
      !fat_grouped.has_value()) {
    std::fprintf(stderr, "fat node query failed\n");
    return 1;
  }
  GroundTruth truth{&exact_q,    &push_q,    &grouped_q,
                    &*fat_exact, &*fat_push, &*fat_grouped};

  std::printf("%6s %8s %10s %14s %11s %10s %10s %7s %6s\n", "nodes", "wire",
              "write_s", "write_pts/s", "imbalance", "exact_ms", "push_ms",
              "parity", "chaos");

  json::Array nodes_config;
  for (const int n : node_counts) nodes_config.push_back(n);
  bench::Report report(
      "ablation_fleet",
      {{"wire", wire},
       {"series", static_cast<std::uint64_t>(series)},
       {"points_per_series", static_cast<std::uint64_t>(per_series)},
       {"nodes", nodes_config},
       {"gather_rounds", kGatherRounds}});
  std::vector<FleetRow> rows;
  for (int n : node_counts) {
    // PMOVE_FLEET_* knobs apply (vnodes, deadlines, pushdown, wire pool /
    // timeouts) so the CI smoke run and a tuning sweep share one binary.
    auto options = fleet::FleetOptions::from_env();
    options.wire.enabled = false;
    rows.push_back(run_fleet(options, n, series, per_series, truth));
    if (wire) {
      options.wire.enabled = true;
      rows.push_back(run_fleet(options, n, series, per_series, truth));
    }
    for (std::size_t i = rows.size() - (wire ? 2 : 1); i < rows.size(); ++i) {
      const FleetRow& row = rows[i];
      if (row.failed) return 1;
      std::printf("%6d %8s %10.3f %14.0f %10.2fx %10.2f %10.2f %7s %6s\n",
                  row.nodes, row.transport, row.write_s,
                  row.write_points_per_s, row.imbalance, row.exact_query_ms,
                  row.pushdown_query_ms, row.parity_ok ? "OK" : "FAIL",
                  row.chaos_degraded_ok ? "OK" : "FAIL");
      const std::string cell =
          std::string(row.transport) + ".n" + std::to_string(row.nodes) + ".";
      report.metric(cell + "write_points_per_s", row.write_points_per_s,
                    "points/s", Better::kHigher);
      report.metric(cell + "imbalance", row.imbalance, "x", Better::kLower);
      report.metric(cell + "exact_query_ms", row.exact_query_ms, "ms",
                    Better::kLower);
      report.metric(cell + "pushdown_query_ms", row.pushdown_query_ms, "ms",
                    Better::kLower);
      report.gate(cell + "parity", row.parity_ok);
      report.gate(cell + "chaos_degraded", row.chaos_degraded_ok);
    }
  }

  if (!report.write(wire ? "BENCH_fleet_wire.json" : "BENCH_fleet.json")) {
    return 1;
  }
  if (wire) {
    std::printf(
        "\nTakeaway: the loopback-socket fleet reproduces the in-process\n"
        "fleet — and the fat node — bit for bit at every size, and pays\n"
        "for it only in framing: the same parity and node-kill gates hold\n"
        "with every byte crossing a real socket.\n");
  } else {
    std::printf(
        "\nTakeaway: placement stays within ~%.1fx of the ideal share as "
        "the\nfleet grows, gathers reproduce the fat node bit-for-bit at "
        "every\nsize, and a killed node costs its shard of the data — never "
        "the\nquery.\n",
        rows.empty()
            ? 0.0
            : std::max_element(rows.begin(), rows.end(),
                               [](const FleetRow& a, const FleetRow& b) {
                                 return a.imbalance < b.imbalance;
                               })
                  ->imbalance);
  }
  return report.passed() ? 0 : 1;
}
