// The bench support library: the A/B runner's call order and minima, and
// the BENCH_*.json schema round trip.  Time is a VirtualClock the recorded
// calls advance, so no test sleeps or depends on machine speed.
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "json/value.hpp"
#include "support/report.hpp"
#include "support/runner.hpp"
#include "util/clock.hpp"

namespace pmove::bench {
namespace {

// Each call appends its side to `calls` and advances the virtual clock by
// the next duration (ns) scripted for that side.
struct FakeSides {
  std::vector<char> calls;
  VirtualClock clock;
  std::vector<TimeNs> a_durations;
  std::vector<TimeNs> b_durations;
  std::size_t a_next = 0;
  std::size_t b_next = 0;

  AbTimes run(int rounds) {
    return run_ab(
        rounds,
        [this] {
          calls.push_back('A');
          clock.advance(a_durations.at(a_next++));
        },
        [this] {
          calls.push_back('B');
          clock.advance(b_durations.at(b_next++));
        },
        clock);
  }
};

TEST(AbRunner, AlternatesWarmThenTimedPerSide) {
  FakeSides sides;
  sides.a_durations.assign(8, 1000);
  sides.b_durations.assign(8, 1000);
  (void)sides.run(4);
  const std::vector<char> expected = {'A', 'A', 'B', 'B', 'A', 'A', 'B', 'B',
                                      'A', 'A', 'B', 'B', 'A', 'A', 'B', 'B'};
  EXPECT_EQ(sides.calls, expected);
}

TEST(AbRunner, KeepsEachSidesFastestTimedRun) {
  FakeSides sides;
  // Runs alternate untimed, timed per side.  The untimed runs are the
  // fastest of all, so a runner that timed them would report 100 / 200 ns.
  sides.a_durations = {100, 5000, 100, 3000, 100, 4000};
  sides.b_durations = {200, 7000, 200, 9000, 200, 6500};
  const AbTimes t = sides.run(3);
  EXPECT_DOUBLE_EQ(t.a_s, to_seconds(3000));
  EXPECT_DOUBLE_EQ(t.b_s, to_seconds(6500));
  EXPECT_EQ(sides.calls.size(), 12u);
}

TEST(AbRunner, RunsAtLeastOneRound) {
  FakeSides sides;
  sides.a_durations = {1000, 2000};
  sides.b_durations = {1000, 4000};
  const AbTimes t = sides.run(0);
  EXPECT_EQ(sides.calls.size(), 4u);
  EXPECT_DOUBLE_EQ(t.a_s, to_seconds(2000));
  EXPECT_DOUBLE_EQ(t.b_s, to_seconds(4000));
}

TEST(SameResult, ComparesValueForValueWithNanEqualNan) {
  tsdb::QueryResult a;
  a.columns = {"time", "max"};
  a.rows = {{1.0, 2.0}, {2.0, std::numeric_limits<double>::quiet_NaN()}};
  tsdb::QueryResult b = a;
  EXPECT_TRUE(same_result(a, b));
  b.rows[0][1] = 2.5;
  EXPECT_FALSE(same_result(a, b));
  b = a;
  b.columns[1] = "min";
  EXPECT_FALSE(same_result(a, b));
  b = a;
  b.rows.pop_back();
  EXPECT_FALSE(same_result(a, b));
}

TEST(Report, DocumentParsesBackWithEverySchemaKey) {
  Report report("unit", {{"points", 10}, {"packed", true}});
  report.metric("scan.mps", 12.5, "Mp/s", Better::kHigher);
  report.metric("write.ns", 800.0, "ns", Better::kLower);
  EXPECT_TRUE(report.gate("speedup", 9.0, 8.0, Better::kHigher));
  EXPECT_TRUE(report.gate("ratio", 1.02, 1.1, Better::kLower));
  EXPECT_TRUE(report.passed());
  EXPECT_FALSE(report.gate("parity", false));
  EXPECT_FALSE(report.passed());

  const auto parsed = json::Value::parse(report.document().dump_pretty());
  ASSERT_TRUE(parsed.has_value());
  const json::Value& doc = *parsed;
  for (const char* key : {"bench", "commit", "build_type",
                          "hardware_threads", "config", "metrics", "gates"}) {
    EXPECT_NE(doc.find(key), nullptr) << key;
  }
  EXPECT_EQ(doc.find("bench")->as_string(), "unit");
  EXPECT_FALSE(doc.find("commit")->as_string().empty());
  EXPECT_TRUE(doc.find("hardware_threads")->is_integer());
  EXPECT_EQ(doc.find("config")->find("points")->as_int(), 10);

  const json::Array& metrics = doc.find("metrics")->as_array();
  ASSERT_EQ(metrics.size(), 2u);
  for (const json::Value& m : metrics) {
    for (const char* key : {"name", "value", "unit", "better"}) {
      EXPECT_NE(m.find(key), nullptr) << key;
    }
  }
  EXPECT_EQ(metrics[0].find("name")->as_string(), "scan.mps");
  EXPECT_DOUBLE_EQ(metrics[0].find("value")->as_double(), 12.5);
  EXPECT_EQ(metrics[0].find("better")->as_string(), "higher");
  EXPECT_EQ(metrics[1].find("better")->as_string(), "lower");

  const json::Array& gates = doc.find("gates")->as_array();
  ASSERT_EQ(gates.size(), 3u);
  for (const json::Value& g : gates) {
    for (const char* key : {"name", "value", "bound", "pass"}) {
      EXPECT_NE(g.find(key), nullptr) << key;
    }
  }
  EXPECT_TRUE(gates[1].find("pass")->as_bool());
  EXPECT_EQ(gates[2].find("name")->as_string(), "parity");
  EXPECT_FALSE(gates[2].find("pass")->as_bool());
}

}  // namespace
}  // namespace pmove::bench
