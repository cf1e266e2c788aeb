#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "fleet/fleet.hpp"
#include "query/plan.hpp"
#include "query/query.hpp"
#include "tsdb/db.hpp"

namespace pmove::fleet {
namespace {

using query::Aggregate;
using query::Query;
using query::QueryBuilder;

constexpr std::size_t kSeries = 48;
constexpr std::size_t kPerSeries = 30;
constexpr TimeNs kStep = 1'000'000;  // 1 ms between samples

std::string series_id(std::size_t s) {
  char id[24];
  std::snprintf(id, sizeof(id), "s-%04zu", s);
  return id;
}

/// The canonical workload: timestamps outermost, series in sorted-tag order
/// within each timestamp — so a single fat node's equal-time arrival order
/// matches the fleet's canonical (time, tag set) gather order and parity
/// checks can demand bit-for-bit equality.
std::vector<tsdb::Point> demo_batch(std::size_t series = kSeries,
                                    std::size_t per_series = kPerSeries) {
  std::vector<tsdb::Point> batch;
  batch.reserve(series * per_series);
  for (std::size_t t = 0; t < per_series; ++t) {
    for (std::size_t s = 0; s < series; ++s) {
      tsdb::Point point;
      point.measurement = "fleet_demo";
      point.tags["series"] = series_id(s);
      point.time = static_cast<TimeNs>(t + 1) * kStep;
      point.fields["value"] =
          static_cast<double>(s) * 1.25 + static_cast<double>(t) * 0.01;
      batch.push_back(std::move(point));
    }
  }
  return batch;
}

void join_nodes(Fleet& fleet, int count) {
  for (int i = 0; i < count; ++i) {
    char name[24];
    std::snprintf(name, sizeof(name), "node-%02d", i + 1);
    ASSERT_TRUE(fleet.add_node(name).is_ok()) << name;
  }
}

void load_demo(Fleet& fleet) {
  ASSERT_TRUE(fleet.write_batch(demo_batch()).is_ok());
  ASSERT_TRUE(fleet.flush().is_ok());
}

/// Ground truth: the same batch on one fat node, evaluated by the shared
/// single-node pipeline.
tsdb::QueryResult fat_node_answer(
    const Query& q, std::vector<tsdb::Point> batch = demo_batch()) {
  tsdb::TimeSeriesDb fat;
  EXPECT_TRUE(fat.write_batch(std::move(batch)).is_ok());
  auto result = query::run(fat, q);
  EXPECT_TRUE(result.has_value()) << result.status().to_string();
  return result.has_value() ? *result : tsdb::QueryResult{};
}

/// Bit-level equality: NaN cells and the sign of zero must match too.
void expect_bitwise_equal(const tsdb::QueryResult& fleet_result,
                          const tsdb::QueryResult& fat,
                          const std::string& label) {
  EXPECT_EQ(fleet_result.columns, fat.columns) << label;
  ASSERT_EQ(fleet_result.rows.size(), fat.rows.size()) << label;
  for (std::size_t r = 0; r < fat.rows.size(); ++r) {
    ASSERT_EQ(fleet_result.rows[r].size(), fat.rows[r].size()) << label;
    for (std::size_t c = 0; c < fat.rows[r].size(); ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fleet_result.rows[r][c]),
                std::bit_cast<std::uint64_t>(fat.rows[r][c]))
          << label << " row " << r << " col " << c << ": "
          << fleet_result.rows[r][c] << " vs " << fat.rows[r][c];
    }
  }
}

/// Grouped-pushdown workload in demo_batch's canonical order: a rack tag
/// that spans nodes, many equal extremes across series, and an `aux` field
/// that only every fourth series reports (with gaps), so some nodes and
/// buckets hold none.
std::vector<tsdb::Point> rack_batch() {
  std::vector<tsdb::Point> batch;
  for (std::size_t t = 0; t < kPerSeries; ++t) {
    for (std::size_t s = 0; s < kSeries; ++s) {
      tsdb::Point point;
      point.measurement = "fleet_racks";
      point.tags["rack"] = "r" + std::to_string(s / 16);
      point.tags["series"] = series_id(s);
      point.time = static_cast<TimeNs>(t + 1) * kStep;
      point.fields["value"] =
          static_cast<double>((s * 7 + t * 3) % 11) - 5.0;
      if (s % 4 == 0 && t % 5 != 1) {
        point.fields["aux"] = 0.5 * static_cast<double>(s) +
                              0.25 * static_cast<double>(t);
      }
      batch.push_back(std::move(point));
    }
  }
  return batch;
}

/// 16 series, series s with one value at t = s + 1: NaN first (s = 0),
/// then 1..15.
std::vector<tsdb::Point> nan_first_batch() {
  std::vector<tsdb::Point> batch;
  for (std::size_t s = 0; s < 16; ++s) {
    tsdb::Point point;
    point.measurement = "fleet_nan";
    point.tags["series"] = series_id(s);
    point.time = static_cast<TimeNs>(s + 1) * kStep;
    point.fields["value"] = s == 0 ? std::nan("") : static_cast<double>(s);
    batch.push_back(std::move(point));
  }
  return batch;
}

// ------------------------------------------------------------------- ring

TEST(SeriesKey, CanonicalAndBoundaryAware) {
  const std::map<std::string, std::string> ab_c{{"ab", "c"}};
  const std::map<std::string, std::string> a_bc{{"a", "bc"}};
  EXPECT_NE(series_key("m", ab_c), series_key("m", a_bc));
  EXPECT_NE(series_key("m", {}), series_key("n", {}));
  // Deterministic: the same identity always yields the same key.
  const std::map<std::string, std::string> tags{{"host", "skx"},
                                                {"core", "3"}};
  EXPECT_EQ(series_key("cpu", tags), series_key("cpu", tags));
}

TEST(HashRing, DeterministicPlacement) {
  HashRing a(64);
  HashRing b(64);
  for (const char* n : {"alpha", "beta", "gamma", "delta"}) {
    ASSERT_TRUE(a.add_node(n).is_ok());
    ASSERT_TRUE(b.add_node(n).is_ok());
  }
  for (std::size_t s = 0; s < 200; ++s) {
    const auto key = series_key("m", {{"series", series_id(s)}});
    auto oa = a.owner(key);
    auto ob = b.owner(key);
    ASSERT_TRUE(oa.has_value() && ob.has_value());
    EXPECT_EQ(*oa, *ob);
  }
  EXPECT_FALSE(a.add_node("alpha").is_ok());     // already_exists
  EXPECT_FALSE(a.remove_node("omega").is_ok());  // not_found
}

TEST(HashRing, BalancedDistribution) {
  HashRing ring(64);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ring.add_node("node-" + std::to_string(i)).is_ok());
  }
  const auto counts = ring.distribution(10'000);
  ASSERT_EQ(counts.size(), 10u);
  const double mean = 1'000.0;
  for (const auto& [node, count] : counts) {
    EXPECT_GT(static_cast<double>(count), mean / 4.0) << node;
    EXPECT_LT(static_cast<double>(count), mean * 3.0) << node;
  }
  // Sequential series names (differ in one digit) must spread: this is the
  // regression test for the unmixed-FNV bug where every s-NNNN key landed
  // in a single ring segment.
  std::set<std::string> owners;
  for (std::size_t s = 0; s < 64; ++s) {
    auto who = ring.owner(series_key("fleet_demo", {{"series", series_id(s)}}));
    ASSERT_TRUE(who.has_value());
    owners.insert(*who);
  }
  EXPECT_GE(owners.size(), 5u);
}

TEST(HashRing, JoinMovesOnlyReassignedKeys) {
  HashRing before(64);
  HashRing after(64);
  for (int i = 0; i < 10; ++i) {
    const std::string n = "node-" + std::to_string(i);
    ASSERT_TRUE(before.add_node(n).is_ok());
    ASSERT_TRUE(after.add_node(n).is_ok());
  }
  ASSERT_TRUE(after.add_node("node-new").is_ok());
  std::size_t moved = 0;
  const std::size_t total = 2'000;
  for (std::size_t s = 0; s < total; ++s) {
    const auto key = series_key("m", {{"series", series_id(s)}});
    auto old_owner = before.owner(key);
    auto new_owner = after.owner(key);
    ASSERT_TRUE(old_owner.has_value() && new_owner.has_value());
    if (*new_owner != *old_owner) {
      // A key may only move TO the joining node, never between old nodes.
      EXPECT_EQ(*new_owner, "node-new");
      ++moved;
    }
  }
  EXPECT_GT(moved, 0u);
  // ~1/11 of keys should move; anything past 25% means the ring is
  // reshuffling instead of carving out arcs.
  EXPECT_LT(moved, total / 4);
}

// ----------------------------------------------------------------- router

TEST(FleetRouter, ShardsBatchesAndKeepsSeriesIntact) {
  Fleet fleet;
  join_nodes(fleet, 5);
  load_demo(fleet);
  EXPECT_EQ(fleet.point_count(), kSeries * kPerSeries);

  // Placement actually sharded the workload.
  std::size_t nodes_with_data = 0;
  for (const auto& name : fleet.nodes()) {
    auto node = fleet.node(name);
    ASSERT_TRUE(node.has_value());
    if ((*node)->point_count() > 0) ++nodes_with_data;
  }
  EXPECT_GE(nodes_with_data, 3u);

  // Every series lives on exactly one node, in time order there.
  for (std::size_t s = 0; s < kSeries; ++s) {
    const Query q = QueryBuilder("fleet_demo")
                        .select_all()
                        .where_tag("series", series_id(s))
                        .build();
    std::size_t holders = 0;
    for (const auto& name : fleet.nodes()) {
      auto node = fleet.node(name);
      ASSERT_TRUE(node.has_value());
      auto rows = (*node)->collect(q);
      if (!rows.has_value() || rows->empty()) continue;
      ++holders;
      EXPECT_EQ(rows->size(), kPerSeries);
      EXPECT_TRUE(std::is_sorted(
          rows->begin(), rows->end(),
          [](const tsdb::Point& a, const tsdb::Point& b) {
            return a.time < b.time;
          }));
    }
    EXPECT_EQ(holders, 1u) << series_id(s);
  }
}

TEST(FleetRouter, EmptyRingRefusesWrites) {
  InProcessTransport transport;
  FleetRouter router(&transport);
  auto s = router.write_batch(demo_batch(1, 1));
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
}

// ----------------------------------------------------------- gather parity

TEST(FleetQuery, ExactGatherParityOnAllAggregates) {
  Fleet fleet;
  join_nodes(fleet, 5);
  load_demo(fleet);

  const Aggregate all[] = {Aggregate::kMean,  Aggregate::kMin,
                           Aggregate::kMax,   Aggregate::kSum,
                           Aggregate::kCount, Aggregate::kStddev,
                           Aggregate::kFirst, Aggregate::kLast};
  for (Aggregate agg : all) {
    const Query q =
        QueryBuilder("fleet_demo").select(agg, "value").build();
    auto got = fleet.query(q);
    ASSERT_TRUE(got.has_value()) << q.to_string();
    EXPECT_EQ(got->nodes_queried, 5u);
    EXPECT_FALSE(got->degraded());
    expect_bitwise_equal(got->result, fat_node_answer(q), q.to_string());
  }
}

TEST(FleetQuery, ExactGatherParityOnShapes) {
  Fleet fleet;
  join_nodes(fleet, 4);
  load_demo(fleet);

  const Query shapes[] = {
      // Raw field projection over every series.
      QueryBuilder("fleet_demo").select("value").build(),
      // SELECT * with a tag filter: one series, one owner.
      QueryBuilder("fleet_demo")
          .select_all()
          .where_tag("series", series_id(7))
          .build(),
      // Windowed aggregation: order-sensitive folds per bucket.
      QueryBuilder("fleet_demo")
          .select(Aggregate::kMean, "value")
          .select(Aggregate::kStddev, "value")
          .group_by_time(5 * kStep)
          .build(),
      // Time-bounded sum.
      QueryBuilder("fleet_demo")
          .select(Aggregate::kSum, "value")
          .since(5 * kStep)
          .until(20 * kStep)
          .build(),
  };
  for (const Query& q : shapes) {
    auto got = fleet.query(q);
    ASSERT_TRUE(got.has_value()) << q.to_string();
    EXPECT_FALSE(got->pushdown) << q.to_string();
    expect_bitwise_equal(got->result, fat_node_answer(q), q.to_string());
  }
}

TEST(FleetQuery, PushdownParityAndFlag) {
  Fleet fleet;
  join_nodes(fleet, 5);
  load_demo(fleet);

  const Query q = QueryBuilder("fleet_demo")
                      .select(Aggregate::kMin, "value")
                      .select(Aggregate::kMax, "value")
                      .select(Aggregate::kCount, "value")
                      .build();
  auto got = fleet.query(q);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->pushdown);
  expect_bitwise_equal(got->result, fat_node_answer(q), "pushdown");

  // An order-sensitive aggregate in the list forces the exact strategy.
  const Query mixed = QueryBuilder("fleet_demo")
                          .select(Aggregate::kMin, "value")
                          .select(Aggregate::kMean, "value")
                          .build();
  auto exact = fleet.query(mixed);
  ASSERT_TRUE(exact.has_value());
  EXPECT_FALSE(exact->pushdown);
  expect_bitwise_equal(exact->result, fat_node_answer(mixed), "mixed");
}

TEST(FleetQuery, PushdownDisabledStaysExact) {
  FleetOptions options;
  options.query.pushdown = false;
  Fleet fleet(options);
  join_nodes(fleet, 4);
  load_demo(fleet);

  const Query q =
      QueryBuilder("fleet_demo").select(Aggregate::kCount, "value").build();
  auto got = fleet.query(q);
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->pushdown);
  expect_bitwise_equal(got->result, fat_node_answer(q), "no-pushdown");
}

// Grouped min/max/count push down at every fleet size, and the head's
// per-bucket merge is bit-equal to the fat node and to the exact gather.
TEST(FleetQuery, GroupedPushdownParity) {
  const Query queries[] = {
      QueryBuilder("fleet_racks")
          .select(Aggregate::kMax, "value")
          .select(Aggregate::kCount, "value")
          .group_by_time(5 * kStep)
          .build(),
      QueryBuilder("fleet_racks")
          .select(Aggregate::kMin, "value")
          .select(Aggregate::kMax, "value")
          .select(Aggregate::kCount, "value")
          .where_tag("rack", "r1")
          .since(3 * kStep)
          .until(25 * kStep)
          .group_by_time(7 * kStep)
          .build(),
      // No count(aux) in the query: the head asks for one and drops it.
      QueryBuilder("fleet_racks")
          .select(Aggregate::kMax, "aux")
          .select(Aggregate::kMin, "aux")
          .group_by_time(4 * kStep)
          .build(),
      QueryBuilder("fleet_racks")
          .select(Aggregate::kMin, "value")
          .select(Aggregate::kCount, "aux")
          .since(6 * kStep)
          .group_by_time(10 * kStep)
          .build(),
      // Ungrouped: the one-bucket case of the same merge.
      QueryBuilder("fleet_racks")
          .select(Aggregate::kMax, "value")
          .select(Aggregate::kMin, "aux")
          .where_tag("rack", "r2")
          .build(),
  };
  for (int n = 1; n <= 5; ++n) {
    Fleet fleet;
    join_nodes(fleet, n);
    FleetOptions exact_options;
    exact_options.query.pushdown = false;
    Fleet exact_fleet(exact_options);
    join_nodes(exact_fleet, n);
    for (Fleet* f : {&fleet, &exact_fleet}) {
      ASSERT_TRUE(f->write_batch(rack_batch()).is_ok());
      ASSERT_TRUE(f->flush().is_ok());
    }
    for (const Query& q : queries) {
      const std::string label =
          q.to_string() + " [" + std::to_string(n) + " nodes]";
      auto got = fleet.query(q);
      auto exact = exact_fleet.query(q);
      ASSERT_TRUE(got.has_value()) << label;
      ASSERT_TRUE(exact.has_value()) << label;
      EXPECT_TRUE(got->pushdown) << label;
      EXPECT_FALSE(exact->pushdown) << label;
      EXPECT_FALSE(got->degraded()) << label;
      EXPECT_FALSE(got->result.rows.empty()) << label;
      expect_bitwise_equal(got->result, fat_node_answer(q, rack_batch()),
                           label + " vs fat node");
      expect_bitwise_equal(got->result, exact->result,
                           label + " vs exact gather");
    }
  }
}

// Bucket stamps cross the wire as doubles, so only intervals above 1,024
// ns push down; shorter ones keep the exact gather.  Both are exact.
TEST(FleetQuery, ShortGroupIntervalsKeepTheExactGather) {
  Fleet fleet;
  join_nodes(fleet, 3);
  load_demo(fleet);
  for (const TimeNs interval : {TimeNs{1}, TimeNs{1024}, TimeNs{1025}}) {
    const Query q = QueryBuilder("fleet_demo")
                        .select(Aggregate::kMax, "value")
                        .select(Aggregate::kCount, "value")
                        .until(3 * kStep)
                        .group_by_time(interval)
                        .build();
    auto got = fleet.query(q);
    ASSERT_TRUE(got.has_value()) << q.to_string();
    EXPECT_EQ(got->pushdown, interval > 1024) << q.to_string();
    expect_bitwise_equal(got->result, fat_node_answer(q), q.to_string());
  }
}

// An ungrouped pushdown is stamped with the latest matched time across
// nodes, also when every matched time lies before the epoch.
TEST(FleetQuery, PushdownStampsNegativeLastMatchedTime) {
  Fleet fleet;
  join_nodes(fleet, 3);
  std::vector<tsdb::Point> batch = demo_batch();
  for (tsdb::Point& p : batch) p.time -= 1'000 * kStep;
  ASSERT_TRUE(fleet.write_batch(batch).is_ok());
  ASSERT_TRUE(fleet.flush().is_ok());
  const Query q = QueryBuilder("fleet_demo")
                      .select(Aggregate::kMax, "value")
                      .select(Aggregate::kCount, "value")
                      .build();
  auto got = fleet.query(q);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->pushdown);
  expect_bitwise_equal(got->result, fat_node_answer(q, batch), q.to_string());
  ASSERT_EQ(got->result.rows.size(), 1u);
  EXPECT_LT(got->result.rows[0][0], 0.0);
}

// The fleet's first value is NaN, which poisons min/max on the fat node.
// Its node answers NaN, but node rows do not say whether that NaN comes
// first fleet-wide — so the head answers from the exact gather instead of
// skipping the NaN as "no values".
TEST(FleetQuery, NaNFirstMinMaxMatchesFatNode) {
  Fleet fleet;
  join_nodes(fleet, 4);
  ASSERT_TRUE(fleet.write_batch(nan_first_batch()).is_ok());
  ASSERT_TRUE(fleet.flush().is_ok());
  const Query queries[] = {
      QueryBuilder("fleet_nan").select(Aggregate::kMax, "value").build(),
      QueryBuilder("fleet_nan")
          .select(Aggregate::kMin, "value")
          .select(Aggregate::kCount, "value")
          .group_by_time(5 * kStep)
          .build(),
      // From t = 2 on no NaN matches: the pushdown answers.
      QueryBuilder("fleet_nan")
          .select(Aggregate::kMax, "value")
          .since(2 * kStep)
          .group_by_time(5 * kStep)
          .build(),
  };
  for (const Query& q : queries) {
    auto got = fleet.query(q);
    ASSERT_TRUE(got.has_value()) << q.to_string();
    EXPECT_EQ(got->pushdown, q.time_min == 2 * kStep) << q.to_string();
    expect_bitwise_equal(got->result, fat_node_answer(q, nan_first_batch()),
                         q.to_string());
  }
  auto max = fleet.query(queries[0]);
  ASSERT_TRUE(max.has_value());
  EXPECT_TRUE(std::isnan(max->result.rows.at(0).at(1)));
}

// Two nodes whose extremes are zeros of opposite sign: which zero a single
// node keeps depends on row order, so the head takes the exact gather.
TEST(FleetQuery, SignedZeroExtremesAcrossNodesMatchFatNode) {
  Fleet fleet;
  join_nodes(fleet, 2);
  // The first two series ids the ring places on different nodes.
  std::vector<std::string> ids;
  std::string first_owner;
  for (std::size_t s = 0; ids.size() < 2; ++s) {
    auto owner =
        fleet.router().route_series("fleet_zeros", {{"series", series_id(s)}});
    ASSERT_TRUE(owner.has_value());
    if (ids.empty()) first_owner = *owner;
    if (ids.empty() || *owner != first_owner) ids.push_back(series_id(s));
  }
  // ids[0] reaches its zero extreme first (t = 1) with +0.0, ids[1] later
  // with -0.0; `hi` peaks at zero, `lo` bottoms out at zero.
  std::vector<tsdb::Point> batch;
  const auto add = [&](const std::string& id, TimeNs t, double hi, double lo) {
    tsdb::Point point;
    point.measurement = "fleet_zeros";
    point.tags["series"] = id;
    point.time = t * kStep;
    point.fields["hi"] = hi;
    point.fields["lo"] = lo;
    batch.push_back(std::move(point));
  };
  add(ids[0], 1, 0.0, 0.0);
  add(ids[1], 2, -0.0, -0.0);
  add(ids[0], 3, -1.0, 1.0);
  add(ids[1], 4, -2.0, 2.0);
  ASSERT_TRUE(fleet.write_batch(batch).is_ok());
  ASSERT_TRUE(fleet.flush().is_ok());
  for (const TimeNs interval : {TimeNs{0}, 10 * kStep}) {
    QueryBuilder b("fleet_zeros");
    b.select(Aggregate::kMax, "hi").select(Aggregate::kMin, "lo");
    if (interval > 0) b.group_by_time(interval);
    const Query q = b.build();
    auto got = fleet.query(q);
    ASSERT_TRUE(got.has_value()) << q.to_string();
    EXPECT_FALSE(got->pushdown) << q.to_string();
    const tsdb::QueryResult fat = fat_node_answer(q, batch);
    expect_bitwise_equal(got->result, fat, q.to_string());
    ASSERT_EQ(fat.rows.size(), 1u);
    EXPECT_FALSE(std::signbit(fat.rows[0][1]));
    EXPECT_FALSE(std::signbit(fat.rows[0][2]));
  }
}

TEST(FleetQuery, NotFoundMatchesSingleNodeSemantics) {
  Fleet fleet;
  join_nodes(fleet, 3);
  load_demo(fleet);
  auto got = fleet.query(
      QueryBuilder("no_such_measurement").select("value").build());
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(got.status().message(),
            "measurement not found: no_such_measurement");
}

// ------------------------------------------------------------- rebalancing

TEST(FleetMembership, JoinIsLossless) {
  Fleet fleet;
  join_nodes(fleet, 3);
  load_demo(fleet);
  const Query q =
      QueryBuilder("fleet_demo").select(Aggregate::kSum, "value").build();
  auto before = fleet.query(q);
  ASSERT_TRUE(before.has_value());

  ASSERT_TRUE(fleet.add_node("joiner").is_ok());
  EXPECT_EQ(fleet.point_count(), kSeries * kPerSeries);
  auto joiner = fleet.node("joiner");
  ASSERT_TRUE(joiner.has_value());
  EXPECT_GT((*joiner)->point_count(), 0u);  // migration actually moved data

  auto after = fleet.query(q);
  ASSERT_TRUE(after.has_value());
  expect_bitwise_equal(after->result, before->result, "join");
}

TEST(FleetMembership, LeaveIsLossless) {
  Fleet fleet;
  join_nodes(fleet, 4);
  load_demo(fleet);
  const Query q =
      QueryBuilder("fleet_demo").select(Aggregate::kSum, "value").build();
  auto before = fleet.query(q);
  ASSERT_TRUE(before.has_value());

  // Drain a node that actually holds data, so the test proves migration.
  std::string victim;
  for (const auto& name : fleet.nodes()) {
    auto node = fleet.node(name);
    ASSERT_TRUE(node.has_value());
    if ((*node)->point_count() > 0) {
      victim = name;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(fleet.remove_node(victim).is_ok());
  EXPECT_EQ(fleet.size(), 3u);
  EXPECT_EQ(fleet.point_count(), kSeries * kPerSeries);

  auto after = fleet.query(q);
  ASSERT_TRUE(after.has_value());
  expect_bitwise_equal(after->result, before->result, "leave");
}

TEST(FleetMembership, GuardsReservedNamesAndLastNode) {
  Fleet fleet;
  EXPECT_EQ(fleet.add_node("head").code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(fleet.add_node("").code(),
            ErrorCode::kInvalidArgument);
  join_nodes(fleet, 1);
  load_demo(fleet);
  EXPECT_EQ(fleet.remove_node("node-01").code(), ErrorCode::kUnavailable);
  EXPECT_EQ(fleet.point_count(), kSeries * kPerSeries);
}

// --------------------------------------------------------- partial failure

TEST(FleetQuery, DegradedGatherReportsMissingNodes) {
  Fleet fleet;
  join_nodes(fleet, 5);
  load_demo(fleet);

  std::string victim;
  std::size_t victim_points = 0;
  for (const auto& name : fleet.nodes()) {
    auto node = fleet.node(name);
    ASSERT_TRUE(node.has_value());
    if ((*node)->point_count() > 0) {
      victim = name;
      victim_points = (*node)->point_count();
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  fleet.transport().set_node_down(victim, true);

  const Query q =
      QueryBuilder("fleet_demo").select(Aggregate::kCount, "value").build();
  auto got = fleet.query(q);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->degraded());
  ASSERT_EQ(got->nodes_missing.size(), 1u);
  EXPECT_EQ(got->nodes_missing.front(), victim);
  ASSERT_EQ(got->result.rows.size(), 1u);
  EXPECT_EQ(got->result.rows.front().back(),
            static_cast<double>(kSeries * kPerSeries - victim_points));

  // Revive: the answer is whole again.
  fleet.transport().set_node_down(victim, false);
  auto healed = fleet.query(q);
  ASSERT_TRUE(healed.has_value());
  EXPECT_FALSE(healed->degraded());
  EXPECT_EQ(healed->result.rows.front().back(),
            static_cast<double>(kSeries * kPerSeries));
}

TEST(FleetQuery, DeadlineExpiryMarksSlowNodeMissing) {
  FleetOptions options;
  options.query.budget.floor_ns = 5'000'000;  // 5 ms budget...
  Fleet fleet(options);
  join_nodes(fleet, 4);
  load_demo(fleet);

  std::string victim;
  for (const auto& name : fleet.nodes()) {
    auto node = fleet.node(name);
    ASSERT_TRUE(node.has_value());
    if ((*node)->point_count() > 0) {
      victim = name;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  // ...against an 80 ms injected link delay: the gather abandons the node.
  fleet.transport().set_link_latency(kHeadNode, victim, 80'000'000);

  const Query q =
      QueryBuilder("fleet_demo").select(Aggregate::kCount, "value").build();
  auto got = fleet.query(q);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->degraded());
  ASSERT_EQ(got->nodes_missing.size(), 1u);
  EXPECT_EQ(got->nodes_missing.front(), victim);
}

TEST(FleetQuery, AdaptiveDeadlineTracksObservedLatency) {
  FleetOptions options;
  options.query.budget.floor_ns = 20'000'000;  // 20 ms cold-start budget
  Fleet fleet(options);
  join_nodes(fleet, 3);
  load_demo(fleet);
  const std::string node = fleet.nodes().front();
  auto& engine = fleet.engine();

  // Before any scatter: the conservative floor.
  EXPECT_EQ(engine.node_deadline(node), options.query.budget.floor_ns);
  EXPECT_EQ(engine.node_latency_ewma(node), 0);

  const Query q =
      QueryBuilder("fleet_demo").select(Aggregate::kCount, "value").build();
  // A consistently slow node earns a wider budget than the floor.
  fleet.transport().set_link_latency(kHeadNode, node, 15'000'000);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(fleet.query(q).has_value());
  EXPECT_GT(engine.node_latency_ewma(node), 10'000'000);
  EXPECT_GT(engine.node_deadline(node), options.query.budget.floor_ns);
}

TEST(FleetQuery, BreakerOpensOnRepeatedScatterFailures) {
  Fleet fleet;
  join_nodes(fleet, 3);
  load_demo(fleet);
  const std::string victim = fleet.nodes().front();
  fleet.transport().set_node_down(victim, true);

  const Query q =
      QueryBuilder("fleet_demo").select(Aggregate::kCount, "value").build();
  for (int i = 0; i < BreakerOptions{}.failure_threshold; ++i) {
    auto got = fleet.query(q);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->degraded());
  }
  EXPECT_EQ(fleet.engine().node_breaker_state(victim),
            CircuitBreaker::State::kOpen);

  // While open the node is skipped (breaker reject), still reported missing.
  auto got = fleet.query(q);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->nodes_missing.size(), 1u);
  EXPECT_EQ(got->nodes_missing.front(), victim);
}

// ----------------------------------------------------------------- gossip

TEST(FleetGossip, HeadSeesNodesItCannotReachDirectly) {
  Fleet fleet;
  join_nodes(fleet, 5);
  const std::string hidden = fleet.nodes().back();
  fleet.transport().set_link_down(kHeadNode, hidden, true);

  TimeNs now = from_seconds(1.0);
  for (int round = 0; round < 4; ++round) {
    now += from_seconds(1.0);
    fleet.tick(now);
  }
  // The head never talked to `hidden`, but peer gossip carried its digest.
  auto digest = fleet.gossip().head_table().digest(hidden);
  ASSERT_TRUE(digest.has_value());
  EXPECT_GT(digest->version, 0u);
  EXPECT_EQ(fleet.gossip().head_table().liveness(
                hidden, now, fleet.gossip().suspect_after_ns()),
            NodeLiveness::kAlive);
  EXPECT_EQ(fleet.overall(now), HealthState::kHealthy);
}

TEST(FleetGossip, SilentNodeAgesIntoSuspicion) {
  Fleet fleet;
  join_nodes(fleet, 4);
  TimeNs now = from_seconds(1.0);
  fleet.tick(now);
  EXPECT_EQ(fleet.overall(now), HealthState::kHealthy);

  const std::string victim = fleet.nodes().front();
  fleet.transport().set_node_down(victim, true);
  now += fleet.gossip().suspect_after_ns() + from_seconds(1.0);
  fleet.tick(now);

  EXPECT_EQ(fleet.gossip().head_table().liveness(
                victim, now, fleet.gossip().suspect_after_ns()),
            NodeLiveness::kSuspected);
  EXPECT_EQ(fleet.overall(now), HealthState::kFailed);
  const std::string table = fleet.render_health(now);
  EXPECT_NE(table.find("suspected"), std::string::npos);
  EXPECT_NE(table.find(victim), std::string::npos);
}

// ----------------------------------------------------------- fault points

TEST(FleetFaults, RoutePointFailsWrites) {
  Fleet fleet;
  join_nodes(fleet, 3);
  fault::arm("fleet.route", {.mode = fault::FaultMode::kFailTimes,
                             .count = 1'000'000});
  EXPECT_FALSE(fleet.write_batch(demo_batch(8, 2)).is_ok());
  EXPECT_GT(fault::fire_count("fleet.route"), 0u);
  fault::disarm("fleet.route");
  // Healed: the same batch lands.
  EXPECT_TRUE(fleet.write_batch(demo_batch(8, 2)).is_ok());
  EXPECT_TRUE(fleet.flush().is_ok());
  EXPECT_EQ(fleet.point_count(), 16u);
}

TEST(FleetFaults, ScatterPointDegradesQueries) {
  Fleet fleet;
  join_nodes(fleet, 4);
  load_demo(fleet);
  fault::arm("fleet.scatter",
             {.mode = fault::FaultMode::kFailTimes, .count = 1});
  auto got = fleet.query(
      QueryBuilder("fleet_demo").select(Aggregate::kCount, "value").build());
  fault::disarm("fleet.scatter");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->degraded());
  EXPECT_EQ(got->nodes_missing.size(), 1u);
}

TEST(FleetFaults, GossipPointCountsAsFailures) {
  Fleet fleet;
  join_nodes(fleet, 4);
  fault::arm("fleet.gossip",
             {.mode = fault::FaultMode::kFailTimes, .count = 3});
  const GossipRound round = fleet.tick(from_seconds(1.0));
  fault::disarm("fleet.gossip");
  EXPECT_EQ(round.failures, 3u);
  EXPECT_GT(round.exchanges, 0u);
}

}  // namespace
}  // namespace pmove::fleet
