#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <thread>
#include <vector>

#include "exact_reference.hpp"
#include "query/plan.hpp"
#include "tsdb/db.hpp"
#include "tsdb/point.hpp"

namespace pmove::tsdb {
namespace {

Point make_point(std::string measurement, TimeNs t, double value,
                 std::string tag = "") {
  Point p;
  p.measurement = std::move(measurement);
  p.time = t;
  p.fields["value"] = value;
  if (!tag.empty()) p.tags["tag"] = std::move(tag);
  return p;
}

// ----------------------------------------------------------- line protocol

TEST(LineProtocolTest, RoundTrip) {
  Point p;
  p.measurement = "kernel_percpu_cpu_idle";
  p.tags["host"] = "skx";
  p.tags["tag"] = "278e26c2";
  p.fields["_cpu0"] = 1.5;
  p.fields["_cpu1"] = 2.0;
  p.time = 1690000000000000000;
  auto restored = Point::from_line(p.to_line());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->measurement, p.measurement);
  EXPECT_EQ(restored->tags, p.tags);
  EXPECT_EQ(restored->fields, p.fields);
  EXPECT_EQ(restored->time, p.time);
}

TEST(LineProtocolTest, EscapesSpecialCharacters) {
  Point p;
  p.measurement = "weird m,easure=ment";
  p.tags["k ey"] = "v,alue";
  p.fields["f=ield"] = 1.0;
  p.time = 42;
  auto restored = Point::from_line(p.to_line());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->measurement, p.measurement);
  EXPECT_EQ(restored->tags.at("k ey"), "v,alue");
  EXPECT_EQ(restored->fields.count("f=ield"), 1u);
}

TEST(LineProtocolTest, IntegerFieldsCompact) {
  Point p = make_point("m", 7, 12345.0);
  EXPECT_EQ(p.to_line(), "m value=12345 7");
}

TEST(LineProtocolTest, ParseWithoutTimestamp) {
  auto p = Point::from_line("m,host=a value=3.5");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->time, 0);
  EXPECT_DOUBLE_EQ(p->fields.at("value"), 3.5);
}

TEST(LineProtocolTest, Rejections) {
  for (const char* bad :
       {"", "   ", "m", "m novalue", "m k=v x", "m k=abc 5", ",t=1 k=1 5"}) {
    EXPECT_FALSE(Point::from_line(bad).has_value()) << bad;
  }
}

TEST(LineProtocolTest, EscapedCommasAndSpacesInTags) {
  auto p = Point::from_line(
      "cpu\\ usage,host=node\\,1,zone=us\\ east value=1 9");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->measurement, "cpu usage");
  EXPECT_EQ(p->tags.at("host"), "node,1");
  EXPECT_EQ(p->tags.at("zone"), "us east");
  // And the inverse direction: to_line must escape what from_line unescapes.
  auto round = Point::from_line(p->to_line());
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->tags, p->tags);
  EXPECT_EQ(round->measurement, p->measurement);
}

TEST(LineProtocolTest, BackslashInIdentifierRoundTrips) {
  Point p;
  p.measurement = "dir\\path";
  p.tags["k\\ey"] = "v\\al,ue";
  p.fields["f"] = 2.0;
  p.time = 5;
  auto restored = Point::from_line(p.to_line());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->measurement, p.measurement);
  EXPECT_EQ(restored->tags, p.tags);
}

TEST(LineProtocolTest, EmptyFieldSetRejected) {
  // A line with tags but no field set must not parse to a field-less point.
  for (const char* bad : {"m,host=a 5", "m,host=a", "m,host=a  5"}) {
    EXPECT_FALSE(Point::from_line(bad).has_value()) << bad;
  }
}

TEST(LineProtocolTest, EmptyTagKeyOrFieldNameRejected) {
  EXPECT_FALSE(Point::from_line("m,=v value=1 5").has_value());
  EXPECT_FALSE(Point::from_line("m,host=a =1 5").has_value());
}

TEST(LineProtocolTest, WireSizeMatchesLineSize) {
  Point p;
  p.measurement = "weird m,easure=ment";
  p.tags["k ey"] = "v,alue";
  p.tags["host"] = "skx";
  p.fields["f=ield"] = 1.5;
  p.fields["_cpu11"] = 123456.0;
  p.time = 1690000000000000000;
  EXPECT_EQ(p.wire_size(), p.to_line().size());
  Point minimal = make_point("m", 0, 0.25);
  minimal.time = 0;
  EXPECT_EQ(minimal.wire_size(), minimal.to_line().size());
}

TEST(LineProtocolTest, OutOfOrderTimestampsParseIndependently) {
  // Decreasing timestamps across lines are a transport reality (shard
  // workers and retries reorder batches); each line must stand alone.
  TimeSeriesDb db;
  ASSERT_TRUE(db.write_line("m value=3 300").is_ok());
  ASSERT_TRUE(db.write_line("m value=1 100").is_ok());
  ASSERT_TRUE(db.write_line("m value=2 200").is_ok());
  auto result = query::run(db, "SELECT \"value\" FROM \"m\"");
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_DOUBLE_EQ(result->rows[0][1], 1.0);
  EXPECT_DOUBLE_EQ(result->rows[2][1], 3.0);
}

// ------------------------------------------------------------------ writes

TEST(DbTest, WriteAndCount) {
  TimeSeriesDb db;
  EXPECT_TRUE(db.write(make_point("m1", 1, 1.0)).is_ok());
  EXPECT_TRUE(db.write(make_point("m1", 2, 2.0)).is_ok());
  EXPECT_TRUE(db.write(make_point("m2", 1, 3.0)).is_ok());
  EXPECT_EQ(db.point_count(), 3u);
  EXPECT_EQ(db.point_count("m1"), 2u);
  EXPECT_EQ(db.point_count("nope"), 0u);
  EXPECT_EQ(db.measurements(), (std::vector<std::string>{"m1", "m2"}));
  EXPECT_GT(db.bytes_written(), 0u);
}

TEST(DbTest, WriteValidation) {
  TimeSeriesDb db;
  Point no_measurement;
  no_measurement.fields["v"] = 1;
  EXPECT_FALSE(db.write(no_measurement).is_ok());
  Point no_fields;
  no_fields.measurement = "m";
  EXPECT_FALSE(db.write(no_fields).is_ok());
}

TEST(DbTest, WriteLineParsesAndStores) {
  TimeSeriesDb db;
  EXPECT_TRUE(db.write_line("m,tag=abc value=5 100").is_ok());
  EXPECT_FALSE(db.write_line("garbage").is_ok());
  EXPECT_EQ(db.point_count("m"), 1u);
}

TEST(DbTest, OutOfOrderInsertKeepsTimeOrder) {
  TimeSeriesDb db;
  ASSERT_TRUE(db.write(make_point("m", 30, 3.0)).is_ok());
  ASSERT_TRUE(db.write(make_point("m", 10, 1.0)).is_ok());
  ASSERT_TRUE(db.write(make_point("m", 20, 2.0)).is_ok());
  auto result = query::run(db, "SELECT \"value\" FROM \"m\"");
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_LT(result->rows[0][0], result->rows[1][0]);
  EXPECT_LT(result->rows[1][0], result->rows[2][0]);
}

TEST(DbTest, WriteBatchBulkInsert) {
  TimeSeriesDb db;
  std::vector<Point> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back(make_point("m", 1000 - i * 10, static_cast<double>(i)));
  }
  ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
  EXPECT_EQ(db.point_count("m"), 100u);
  // Out-of-order batch contents still come back time-sorted.
  auto result = query::run(db, "SELECT \"value\" FROM \"m\"");
  ASSERT_TRUE(result.has_value());
  for (std::size_t r = 1; r < result->rows.size(); ++r) {
    EXPECT_LE(result->rows[r - 1][0], result->rows[r][0]);
  }
}

TEST(DbTest, WriteBatchRejectsAtomically) {
  TimeSeriesDb db;
  std::vector<Point> batch;
  batch.push_back(make_point("m", 1, 1.0));
  Point invalid;  // no measurement, no fields
  batch.push_back(invalid);
  batch.push_back(make_point("m", 2, 2.0));
  EXPECT_FALSE(db.write_batch(std::move(batch)).is_ok());
  // All-or-nothing: the valid points must not have landed.
  EXPECT_EQ(db.point_count(), 0u);
}

// ----------------------------------------------------------------- queries

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 10; ++i) {
      Point p;
      p.measurement = "kernel_percpu_cpu_idle";
      p.tags["tag"] = i < 5 ? "run-a" : "run-b";
      p.time = i * 100;
      p.fields["_cpu0"] = i;
      p.fields["_cpu1"] = 10.0 * i;
      ASSERT_TRUE(db_.write(std::move(p)).is_ok());
    }
  }
  TimeSeriesDb db_;
};

TEST_F(QueryTest, PaperListing3Shape) {
  auto result = query::run(db_,
      "SELECT \"_cpu0\", \"_cpu1\" FROM \"kernel_percpu_cpu_idle\" WHERE "
      "tag=\"run-a\"");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->columns,
            (std::vector<std::string>{"time", "_cpu0", "_cpu1"}));
  ASSERT_EQ(result->rows.size(), 5u);
  EXPECT_DOUBLE_EQ(result->rows[2][1], 2.0);
  EXPECT_DOUBLE_EQ(result->rows[2][2], 20.0);
}

TEST_F(QueryTest, SelectStarCollectsAllFields) {
  auto result = query::run(db_, "SELECT * FROM \"kernel_percpu_cpu_idle\"");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->columns,
            (std::vector<std::string>{"time", "_cpu0", "_cpu1"}));
  EXPECT_EQ(result->rows.size(), 10u);
}

TEST_F(QueryTest, TimeRangeFilters) {
  auto result = query::run(db_,
      "SELECT \"_cpu0\" FROM \"kernel_percpu_cpu_idle\" WHERE time >= 200 "
      "AND time <= 400");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->rows.size(), 3u);
  auto strict = query::run(db_,
      "SELECT \"_cpu0\" FROM \"kernel_percpu_cpu_idle\" WHERE time > 200 "
      "AND time < 400");
  EXPECT_EQ(strict->rows.size(), 1u);
}

TEST_F(QueryTest, MissingFieldIsNaN) {
  ASSERT_TRUE(db_.write(make_point("kernel_percpu_cpu_idle", 9999, 1.0))
                  .is_ok());  // only "value" field
  auto result = query::run(db_,
      "SELECT \"_cpu0\" FROM \"kernel_percpu_cpu_idle\" WHERE time >= 9999");
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_TRUE(std::isnan(result->rows[0][1]));
}

TEST_F(QueryTest, Aggregates) {
  auto result = query::run(db_,
      "SELECT min(\"_cpu0\"), max(\"_cpu0\"), mean(\"_cpu0\"), "
      "sum(\"_cpu0\"), count(\"_cpu0\") FROM \"kernel_percpu_cpu_idle\"");
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->rows.size(), 1u);
  const auto& row = result->rows[0];
  EXPECT_DOUBLE_EQ(row[1], 0.0);
  EXPECT_DOUBLE_EQ(row[2], 9.0);
  EXPECT_DOUBLE_EQ(row[3], 4.5);
  EXPECT_DOUBLE_EQ(row[4], 45.0);
  EXPECT_DOUBLE_EQ(row[5], 10.0);
}

TEST_F(QueryTest, StddevFirstLast) {
  auto result = query::run(db_,
      "SELECT stddev(\"_cpu0\"), first(\"_cpu0\"), last(\"_cpu0\") FROM "
      "\"kernel_percpu_cpu_idle\" WHERE tag=\"run-a\"");
  ASSERT_TRUE(result.has_value());
  const auto& row = result->rows[0];
  EXPECT_NEAR(row[1], 1.5811, 1e-3);  // stddev of 0..4
  EXPECT_DOUBLE_EQ(row[2], 0.0);
  EXPECT_DOUBLE_EQ(row[3], 4.0);
}

TEST_F(QueryTest, AggregateOfEmptySelectionIsNaN) {
  auto result = query::run(db_,
      "SELECT mean(\"_cpu0\") FROM \"kernel_percpu_cpu_idle\" WHERE "
      "tag=\"missing\"");
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(std::isnan(result->rows[0][1]));
}

TEST_F(QueryTest, ErrorCases) {
  EXPECT_FALSE(query::run(db_, "").has_value());
  EXPECT_FALSE(query::run(db_, "DELETE FROM x").has_value());
  EXPECT_FALSE(query::run(db_, "SELECT \"a\" FROM \"missing_measurement\"")
                   .has_value());
  EXPECT_FALSE(query::run(db_, "SELECT FROM \"kernel_percpu_cpu_idle\"")
                   .has_value());
  EXPECT_FALSE(query::run(db_, "SELECT bogus(\"x\") FROM \"kernel_percpu_cpu_idle\"")
                   .has_value());
  EXPECT_FALSE(
      query::run(db_, "SELECT \"a\", mean(\"b\") FROM \"kernel_percpu_cpu_idle\"")
          .has_value());
  EXPECT_FALSE(query::run(db_, "SELECT \"a\" FROM \"kernel_percpu_cpu_idle\" "
                         "WHERE time ~ 5")
                   .has_value());
}

TEST_F(QueryTest, CaseInsensitiveKeywords) {
  auto result = query::run(db_,
      "select \"_cpu0\" from \"kernel_percpu_cpu_idle\" where tag='run-b'");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->rows.size(), 5u);
}


TEST_F(QueryTest, GroupByTimeDownsamples) {
  // 10 points at t = 0..900; 250ns buckets -> 4 buckets of sizes 3,2,3,2.
  auto result = query::run(db_,
      "SELECT mean(\"_cpu0\"), count(\"_cpu0\") FROM "
      "\"kernel_percpu_cpu_idle\" GROUP BY time(250ns)");
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  ASSERT_EQ(result->rows.size(), 4u);
  EXPECT_DOUBLE_EQ(result->rows[0][0], 0.0);    // bucket start stamps
  EXPECT_DOUBLE_EQ(result->rows[1][0], 250.0);
  EXPECT_DOUBLE_EQ(result->rows[0][1], 1.0);    // mean of {0,1,2}
  EXPECT_DOUBLE_EQ(result->rows[0][2], 3.0);    // count
  EXPECT_DOUBLE_EQ(result->rows[1][1], 3.5);    // mean of {3,4}
}

TEST_F(QueryTest, GroupByTimeWithWhere) {
  auto result = query::run(db_,
      "SELECT sum(\"_cpu0\") FROM \"kernel_percpu_cpu_idle\" WHERE "
      "tag=\"run-a\" GROUP BY time(1s)");
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->rows.size(), 1u);  // all of run-a in one 1s bucket
  EXPECT_DOUBLE_EQ(result->rows[0][1], 10.0);  // 0+1+2+3+4
}

TEST_F(QueryTest, GroupByTimeUnits) {
  // 1us = 1000ns covers all points in one bucket.
  auto result = query::run(db_,
      "SELECT count(\"_cpu0\") FROM \"kernel_percpu_cpu_idle\" "
      "GROUP BY time(1us)");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result->rows[0][1], 10.0);
}

TEST_F(QueryTest, GroupByTimeErrors) {
  // Raw selectors cannot be grouped.
  EXPECT_FALSE(query::run(db_, "SELECT \"_cpu0\" FROM "
                         "\"kernel_percpu_cpu_idle\" GROUP BY time(1s)")
                   .has_value());
  EXPECT_FALSE(query::run(db_, "SELECT mean(\"_cpu0\") FROM "
                         "\"kernel_percpu_cpu_idle\" GROUP BY tag")
                   .has_value());
  EXPECT_FALSE(query::run(db_, "SELECT mean(\"_cpu0\") FROM "
                         "\"kernel_percpu_cpu_idle\" GROUP BY time(abc)")
                   .has_value());
  EXPECT_FALSE(query::run(db_, "SELECT mean(\"_cpu0\") FROM "
                         "\"kernel_percpu_cpu_idle\" GROUP BY time(0s)")
                   .has_value());
}

// --------------------------------------------------------------- retention

TEST(RetentionTest, DropsOldPoints) {
  TimeSeriesDb db(RetentionPolicy{1000});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.write(make_point("m", i * 500, i)).is_ok());
  }
  // now = 4500; cutoff = 3500 -> keeps t in {3500, 4000, 4500}.
  const std::size_t dropped = db.enforce_retention(4500);
  EXPECT_EQ(dropped, 7u);
  EXPECT_EQ(db.point_count("m"), 3u);
}

TEST(RetentionTest, ZeroDurationKeepsForever) {
  TimeSeriesDb db;
  ASSERT_TRUE(db.write(make_point("m", 0, 1.0)).is_ok());
  EXPECT_EQ(db.enforce_retention(1'000'000'000), 0u);
  EXPECT_EQ(db.point_count(), 1u);
}



TEST(DbConcurrencyTest, ParallelWritersAndReaders) {
  TimeSeriesDb db;
  constexpr int kWriters = 3;
  constexpr int kPerWriter = 2000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&db, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        Point p;
        p.measurement = "m" + std::to_string(w);
        p.time = i;
        p.fields["v"] = i;
        ASSERT_TRUE(db.write(std::move(p)).is_ok());
      }
    });
  }
  // A reader hammers queries while writes are in flight.
  threads.emplace_back([&db] {
    for (int i = 0; i < 200; ++i) {
      auto result = query::run(db, "SELECT count(\"v\") FROM \"m0\"");
      if (result.has_value()) {
        ASSERT_LE(result->rows[0][1], 2000.0);
      }
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(db.point_count(), kWriters * kPerWriter);
}

TEST(DbPersistenceTest, DumpLoadRoundTrip) {
  TimeSeriesDb db;
  for (int i = 0; i < 20; ++i) {
    Point p;
    p.measurement = i % 2 == 0 ? "m_even" : "m_odd";
    p.tags["tag"] = "run";
    p.time = i * 10;
    p.fields["v"] = 1.5 * i;
    ASSERT_TRUE(db.write(std::move(p)).is_ok());
  }
  const std::string path =
      "/tmp/pmove_tsdb_" + std::to_string(::getpid()) + ".lp";
  ASSERT_TRUE(db.dump_to_file(path).is_ok());
  TimeSeriesDb restored;
  ASSERT_TRUE(restored.load_from_file(path).is_ok());
  EXPECT_EQ(restored.point_count(), db.point_count());
  EXPECT_EQ(restored.measurements(), db.measurements());
  auto original = query::run(db, "SELECT \"v\" FROM \"m_even\"");
  auto replayed = query::run(restored, "SELECT \"v\" FROM \"m_even\"");
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->rows, original->rows);
  std::remove(path.c_str());
  EXPECT_FALSE(restored.load_from_file("/no/such.lp").is_ok());
}

TEST(DbTest, ClearResets) {
  TimeSeriesDb db;
  ASSERT_TRUE(db.write(make_point("m", 0, 1.0)).is_ok());
  db.clear();
  EXPECT_EQ(db.point_count(), 0u);
  EXPECT_EQ(db.bytes_written(), 0u);
}

TEST(QueryResultTest, ColumnIndex) {
  QueryResult result;
  result.columns = {"time", "_cpu0"};
  EXPECT_EQ(result.column_index("_cpu0"), 1u);
  EXPECT_EQ(result.column_index("none"), 2u);  // == columns.size()
}

// ------------------------------------------------------- columnar engine
//
// The storage rewrite must be invisible from the outside: same query
// answers bit for bit, same dump format, same epoch semantics.  These
// tests pin the parts the generic suites above don't reach — escaped
// round-trips, every aggregate against an independent evaluator, trim +
// compaction behaviour, and the zero-copy scan API itself.

TEST(ColumnarTest, DumpLoadRoundTripsEscapesAndMixedFieldSets) {
  TimeSeriesDb db;
  std::vector<Point> batch;
  for (int i = 0; i < 12; ++i) {
    Point p;
    p.measurement = "weird m,easure=ment";
    p.tags["k ey"] = i % 2 == 0 ? "v,alue" : "other=value";
    p.tags["host"] = "h" + std::to_string(i % 3);
    p.time = (11 - i) * 100;  // arrive in reverse time order
    // Disjoint field sets per parity class: the columnar store must track
    // presence, not just store NaN.
    if (i % 2 == 0) p.fields["f=irst"] = 0.1 * i;
    if (i % 3 == 0) p.fields["se cond"] = -2.5 * i;
    if (p.fields.empty()) p.fields["f=irst"] = 7.0;
    batch.push_back(std::move(p));
  }
  ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
  const std::string path =
      "/tmp/pmove_columnar_" + std::to_string(::getpid()) + ".lp";
  ASSERT_TRUE(db.dump_to_file(path).is_ok());
  TimeSeriesDb restored;
  ASSERT_TRUE(restored.load_from_file(path).is_ok());
  // Point-level equality in scan order, not just counts.
  const auto all = [](const TimeSeriesDb& d) {
    return d.collect("weird m,easure=ment",
                     std::numeric_limits<TimeNs>::min(),
                     std::numeric_limits<TimeNs>::max(), {});
  };
  const std::vector<Point> expect = all(db);
  const std::vector<Point> got = all(restored);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].measurement, expect[i].measurement);
    EXPECT_EQ(got[i].tags, expect[i].tags);
    EXPECT_EQ(got[i].fields, expect[i].fields);
    EXPECT_EQ(got[i].time, expect[i].time);
  }
  std::remove(path.c_str());
}

TEST(ColumnarTest, EveryAggregateMatchesIndependentEvaluator) {
  TimeSeriesDb db;
  // Two interleaved tag sets with awkward doubles, so a sum that is not
  // exactly rounded shows up as a last-bit difference in sum/mean/stddev.
  std::vector<double> values;
  std::vector<Point> batch;
  for (int i = 0; i < 257; ++i) {
    Point p;
    p.measurement = "agg";
    p.tags["set"] = i % 2 == 0 ? "a" : "b";
    p.time = i;
    const double v = std::sin(0.1 * i) * 1e3 + 1.0 / (i + 3);
    p.fields["v"] = v;
    values.push_back(v);
    batch.push_back(std::move(p));
  }
  ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());

  // An independent evaluator of the documented rule (docs/STORAGE.md §1):
  // the exact sum rounded once (a test-only big-integer reference), mean
  // one division of it, stddev two-pass with n-1 over each rounded
  // squared deviation, summed exactly.
  const double sum = pmove::testing::reference_sum(values);
  const double mean = sum / static_cast<double>(values.size());
  std::vector<double> squares;
  for (double v : values) {
    const double d = v - mean;
    squares.push_back(d * d);
  }
  const double stddev =
      std::sqrt(pmove::testing::reference_sum(squares) /
                static_cast<double>(values.size() - 1));
  const double expected[] = {
      mean,
      *std::min_element(values.begin(), values.end()),
      *std::max_element(values.begin(), values.end()),
      sum,
      static_cast<double>(values.size()),
      stddev,
      values.front(),
      values.back(),
  };
  const char* names[] = {"mean", "min",    "max",   "sum",
                         "count", "stddev", "first", "last"};
  for (std::size_t i = 0; i < std::size(names); ++i) {
    auto result = query::run(db, "SELECT " + std::string(names[i]) +
                           "(\"v\") FROM \"agg\"");
    ASSERT_TRUE(result.has_value()) << names[i];
    ASSERT_EQ(result->rows.size(), 1u) << names[i];
    // Bit-for-bit: EXPECT_EQ, not NEAR.
    EXPECT_EQ(result->rows[0][1], expected[i]) << names[i];
  }
}

TEST(ColumnarTest, RetentionTrimCompactsAndBumpsOnlyTrimmedEpochs) {
  TimeSeriesDb db(RetentionPolicy{1000});
  std::vector<Point> batch;
  for (int i = 0; i < 3000; ++i) {
    batch.push_back(make_point("old", i, i));
  }
  batch.push_back(make_point("fresh", 2999, 1.0));
  ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
  const std::uint64_t old_epoch = db.write_epoch("old");
  const std::uint64_t fresh_epoch = db.write_epoch("fresh");
  // cutoff = 2999 - 1000: trims most of "old" (past the compaction
  // threshold, so the head offset collapses) and nothing of "fresh".
  const std::size_t dropped = db.enforce_retention(2999);
  EXPECT_EQ(dropped, 1999u);
  EXPECT_EQ(db.point_count("old"), 1001u);
  EXPECT_NE(db.write_epoch("old"), old_epoch);
  EXPECT_EQ(db.write_epoch("fresh"), fresh_epoch);
  // Trimmed data is gone from every read path; survivors are intact.
  auto result = query::run(db, "SELECT first(\"value\"), count(\"value\") "
                         "FROM \"old\"");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->rows[0][1], 1999.0);
  EXPECT_EQ(result->rows[0][2], 1001.0);
  // Stats see the live rows only.
  EXPECT_EQ(db.stats().points, 1002u);
}

TEST(ColumnarTest, ScanOrdersSeriesAndClipsRows) {
  TimeSeriesDb db;
  std::vector<Point> batch;
  for (int i = 0; i < 10; ++i) {
    Point p;
    p.measurement = "m";
    p.tags["host"] = i % 2 == 0 ? "zeta" : "alpha";
    p.time = i;
    p.fields["v"] = i;
    batch.push_back(std::move(p));
  }
  ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
  // Absent measurement: callback still runs (empty), returns false.
  bool visited = false;
  EXPECT_FALSE(db.scan("nope", 0, 10, {},
                       [&](std::span<const SeriesView> views) {
                         visited = true;
                         EXPECT_TRUE(views.empty());
                       }));
  EXPECT_TRUE(visited);
  // Series arrive ordered by decoded tag set (alpha before zeta even
  // though zeta was created first), rows clipped to the time range.
  int calls = 0;
  EXPECT_TRUE(db.scan(
      "m", 2, 7, {}, [&](std::span<const SeriesView> views) {
        ++calls;
        ASSERT_EQ(views.size(), 2u);
        EXPECT_EQ(views[0].decode_tags().at("host"), "alpha");
        EXPECT_EQ(views[1].decode_tags().at("host"), "zeta");
        // alpha holds odd times {3,5,7}, zeta even {2,4,6}.  These rows
        // live in one (active) run, so the views are contiguous and the
        // span accessors are valid.
        ASSERT_EQ(views[0].rows(), 3u);
        ASSERT_TRUE(views[0].contiguous());
        EXPECT_EQ(views[0].times()[0], 3);
        EXPECT_EQ(views[0].values(0)[2], 7.0);
        ASSERT_EQ(views[1].rows(), 3u);
        EXPECT_EQ(views[1].times()[0], 2);
      }));
  EXPECT_EQ(calls, 1);
  // A range covering only one series omits the empty view entirely.
  EXPECT_TRUE(db.scan("m", 2, 2, {},
                      [&](std::span<const SeriesView> views) {
                        ASSERT_EQ(views.size(), 1u);
                        EXPECT_EQ(views[0].decode_tags().at("host"),
                                  "zeta");
                      }));
  // Unknown tag value: found, but zero matching series.
  EXPECT_TRUE(db.scan("m", 0, 10, {{"host", "gamma"}},
                      [&](std::span<const SeriesView> views) {
                        EXPECT_TRUE(views.empty());
                      }));
}

TEST(ColumnarTest, ScanReadersRaceBatchWriters) {
  // TSan target: scan callbacks read view rows under the shared lock
  // while writers append, seal runs, fold them, and retention trims under
  // the exclusive lock.  Any view escaping the lock or a writer mutating
  // live storage mid-callback is a data race here.
  TimeSeriesDb db(RetentionPolicy{100'000});
  // Tiny runs so the race window covers seal + fold, not just appends.
  db.set_run_config({/*seal_rows=*/64, /*max_sealed=*/2, /*fold_ratio=*/0.5});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int b = 0; b < 60; ++b) {
      std::vector<Point> batch;
      for (int i = 0; i < 200; ++i) {
        Point p;
        p.measurement = "race";
        p.tags["set"] = "s" + std::to_string(i % 4);
        p.time = b * 200 + i;
        p.fields["v"] = i;
        batch.push_back(std::move(p));
      }
      ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
      if (b % 16 == 15) db.enforce_retention(b * 200);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        db.scan("race", 0, std::numeric_limits<TimeNs>::max(), {},
                [](std::span<const SeriesView> views) {
                  double sum = 0.0;
                  for (const SeriesView& view : views) {
                    std::size_t rows = 0;
                    view.for_each_row([&](SeriesView::Loc loc, TimeNs) {
                      ++rows;
                      for (std::size_t f = 0; f < view.field_count(); ++f) {
                        if (view.has_value(f, loc)) {
                          sum += view.value_at(f, loc);
                        }
                      }
                    });
                    ASSERT_EQ(rows, view.rows());
                  }
                  ASSERT_GE(sum, 0.0);
                });
        // Leave a gap between scans: glibc's rwlock admits readers while
        // one holds it, so back-to-back scanning from three threads would
        // starve the writer's exclusive acquisition indefinitely.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(db.point_count(), 12'000u);
}

TEST(ColumnarTest, StatsReportStorageFootprint) {
  TimeSeriesDb db;
  std::vector<Point> batch;
  for (int i = 0; i < 8; ++i) {
    Point p;
    p.measurement = i < 4 ? "a" : "b";
    p.tags["host"] = "h" + std::to_string(i % 2);
    p.time = i;
    p.fields["x"] = i;
    p.fields["y"] = -i;
    batch.push_back(std::move(p));
  }
  ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
  const TsdbStats stats = db.stats();
  EXPECT_EQ(stats.measurements, 2u);
  EXPECT_EQ(stats.series, 4u);  // 2 measurements x 2 tag sets
  EXPECT_EQ(stats.points, 8u);
  EXPECT_GE(stats.dict_strings, 3u);  // "host", "h0", "h1"
  EXPECT_GT(stats.dict_bytes, 0u);
  // 8 rows x (time + seq) + 16 field cells x 8 bytes.
  EXPECT_EQ(stats.column_bytes, 8u * 16u + 16u * 8u);
}

// ------------------------------------------------------------- LSM runs

TEST(ColumnarTest, OutOfOrderArrivalsSpanActiveAndSealedRuns) {
  TimeSeriesDb db;
  // Tiny seal threshold, folding effectively disabled: the series ends up
  // as base + several sealed runs + a live active run, and the scan has to
  // interleave all of them.
  db.set_run_config({/*seal_rows=*/8, /*max_sealed=*/1000,
                     /*fold_ratio=*/1e9});
  // Deterministic shuffle of [0, 60): every batch straddles earlier ones.
  std::uint64_t lcg = 42;
  std::vector<TimeNs> times(60);
  for (int i = 0; i < 60; ++i) times[i] = i;
  for (int i = 59; i > 0; --i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(times[i], times[(lcg >> 33) % (i + 1)]);
  }
  for (int b = 0; b < 20; ++b) {
    std::vector<Point> batch;
    for (int i = 0; i < 3; ++i) {
      batch.push_back(make_point("m", times[b * 3 + i],
                                 static_cast<double>(times[b * 3 + i])));
    }
    ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
  }
  const TsdbStats stats = db.stats();
  EXPECT_GT(stats.sealed_runs, 1u);
  EXPECT_GT(stats.active_rows, 0u);
  EXPECT_GT(stats.run_seals, 0u);
  EXPECT_EQ(stats.run_folds, 0u);
  // The view stitches the runs back into (time, seq) order.
  EXPECT_TRUE(db.scan(
      "m", 0, 100, {}, [&](std::span<const SeriesView> views) {
        ASSERT_EQ(views.size(), 1u);
        ASSERT_EQ(views[0].rows(), 60u);
        TimeNs prev = -1;
        views[0].for_each_row(
            [&](SeriesView::Loc loc, TimeNs t) {
              EXPECT_GT(t, prev);
              prev = t;
              const std::size_t v = views[0].field_index("value");
              ASSERT_TRUE(views[0].has_value(v, loc));
              EXPECT_EQ(views[0].value_at(v, loc), static_cast<double>(t));
            });
      }));
  auto result = query::run(db, "SELECT \"value\" FROM \"m\"");
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->rows.size(), 60u);
  for (int i = 0; i < 60; ++i) EXPECT_EQ(result->rows[i][0], i);
}

TEST(ColumnarTest, RetentionTrimsAcrossRunsAndCompactionPreservesResults) {
  TimeSeriesDb db(RetentionPolicy{30});
  db.set_run_config({/*seal_rows=*/8, /*max_sealed=*/1000,
                     /*fold_ratio=*/1e9});
  // Writes arrive newest-first so every run holds a slice of the full
  // range and the retention cutoff lands inside all of them.
  for (int b = 7; b >= 0; --b) {
    std::vector<Point> batch;
    for (int i = 9; i >= 0; --i) {
      const TimeNs t = b * 10 + i;
      batch.push_back(make_point("m", t, static_cast<double>(t)));
    }
    ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
  }
  ASSERT_GT(db.stats().sealed_runs, 1u);
  // cutoff = 79 - 30 = 49: rows 0..48 drop, 49..79 survive.
  EXPECT_EQ(db.enforce_retention(79), 49u);
  EXPECT_EQ(db.point_count("m"), 31u);
  auto before = query::run(
      db, "SELECT first(\"value\"), last(\"value\"), count(\"value\"), "
          "sum(\"value\") FROM \"m\"");
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->rows[0][1], 49.0);
  // Folding every run into the base must not change any answer.
  EXPECT_GT(db.compact(), 0u);
  const TsdbStats stats = db.stats();
  EXPECT_EQ(stats.sealed_runs, 0u);
  EXPECT_EQ(stats.active_rows, 0u);
  EXPECT_GT(stats.run_folds, 0u);
  EXPECT_EQ(db.point_count("m"), 31u);
  auto after = query::run(
      db, "SELECT first(\"value\"), last(\"value\"), count(\"value\"), "
          "sum(\"value\") FROM \"m\"");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(before->rows, after->rows);
  // A fully folded series reads back as one contiguous view.
  EXPECT_TRUE(db.scan("m", 0, 100, {},
                      [](std::span<const SeriesView> views) {
                        ASSERT_EQ(views.size(), 1u);
                        EXPECT_TRUE(views[0].contiguous());
                      }));
}

TEST(ColumnarTest, AggregatesBitForBitIdenticalAcrossRunConfigs) {
  // The run layout is an implementation detail: any seal/fold schedule
  // must present the same cells in the same (time, seq) order and
  // therefore produce bit-identical results.  Workload: out-of-order times,
  // two tag sets, one field that skips rows (presence maps in play).
  const RunConfig configs[] = {
      {/*seal_rows=*/2, /*max_sealed=*/1, /*fold_ratio=*/0.25},
      {/*seal_rows=*/16, /*max_sealed=*/2, /*fold_ratio=*/0.5},
      {/*seal_rows=*/4096, /*max_sealed=*/8, /*fold_ratio=*/0.5},
  };
  std::vector<TimeSeriesDb> dbs(std::size(configs));
  std::uint64_t lcg = 7;
  std::vector<Point> workload;
  for (int i = 0; i < 333; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    Point p;
    p.measurement = "m";
    p.tags["set"] = i % 3 == 0 ? "a" : "b";
    p.time = static_cast<TimeNs>((lcg >> 33) % 500);
    p.fields["v"] = std::sin(0.37 * i) * 1e6 + 1.0 / (i + 2);
    if (i % 5 != 0) p.fields["w"] = std::cos(0.11 * i);
    workload.push_back(std::move(p));
  }
  for (std::size_t d = 0; d < dbs.size(); ++d) {
    dbs[d].set_run_config(configs[d]);
    for (std::size_t start = 0; start < workload.size(); start += 16) {
      std::vector<Point> batch(
          workload.begin() + start,
          workload.begin() +
              std::min(start + 16, workload.size()));
      ASSERT_TRUE(dbs[d].write_batch(std::move(batch)).is_ok());
    }
  }
  // Mid-stream layouts really differ before queries compare them.
  EXPECT_GT(dbs[0].stats().run_folds, 0u);
  EXPECT_EQ(dbs[2].stats().run_seals, 0u);
  const char* queries[] = {
      "SELECT \"v\", \"w\" FROM \"m\"",
      "SELECT mean(\"v\"), sum(\"v\"), stddev(\"v\") FROM \"m\"",
      "SELECT min(\"v\"), max(\"v\"), count(\"w\") FROM \"m\"",
      "SELECT first(\"v\"), last(\"w\") FROM \"m\"",
      "SELECT sum(\"w\") FROM \"m\" WHERE set=\"b\"",
      "SELECT mean(\"v\") FROM \"m\" GROUP BY time(50ns)",
      "SELECT stddev(\"w\") FROM \"m\" WHERE time >= 100 AND time <= 400",
  };
  for (const char* text : queries) {
    auto baseline = query::run(dbs[0], text);
    ASSERT_TRUE(baseline.has_value()) << text;
    for (std::size_t d = 1; d < dbs.size(); ++d) {
      auto got = query::run(dbs[d], text);
      ASSERT_TRUE(got.has_value()) << text;
      EXPECT_EQ(baseline->columns, got->columns) << text;
      ASSERT_EQ(baseline->rows.size(), got->rows.size()) << text;
      for (std::size_t r = 0; r < baseline->rows.size(); ++r) {
        ASSERT_EQ(baseline->rows[r].size(), got->rows[r].size()) << text;
        for (std::size_t c = 0; c < baseline->rows[r].size(); ++c) {
          // Bit-level equality: stricter than ==, and NaN (a missing
          // field) must reproduce as NaN too.
          EXPECT_EQ(std::bit_cast<std::uint64_t>(baseline->rows[r][c]),
                    std::bit_cast<std::uint64_t>(got->rows[r][c]))
              << text << " row " << r << " col " << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace pmove::tsdb
