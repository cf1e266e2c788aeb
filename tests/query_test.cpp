// Tests for the read-path query module: typed AST + parser, plan/execute,
// the engine's epoch-keyed result cache, and the PointSink write-path
// unification.
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "query/engine.hpp"
#include "query/plan.hpp"
#include "query/query.hpp"
#include "tsdb/db.hpp"
#include "tsdb/sink.hpp"
#include "util/status.hpp"
#include "util/task_pool.hpp"

namespace pmove::query {
namespace {

tsdb::Point make_point(std::string measurement, TimeNs t, double cpu0,
                       double cpu1, std::string tag = "run-a") {
  tsdb::Point p;
  p.measurement = std::move(measurement);
  p.time = t;
  p.fields["_cpu0"] = cpu0;
  p.fields["_cpu1"] = cpu1;
  p.tags["tag"] = std::move(tag);
  return p;
}

/// 10 points, t = 0..900ns, values chosen so every aggregate is
/// non-trivial (irrational-ish doubles exercise bit-for-bit comparisons).
void fill_kernel_series(tsdb::TimeSeriesDb& db) {
  std::vector<tsdb::Point> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(make_point("kernel_percpu_cpu_idle",
                               static_cast<TimeNs>(i) * 100,
                               std::sqrt(2.0) * i + 0.1,
                               std::atan(1.0) * (9 - i) + 0.3));
  }
  ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
}

// ---------------------------------------------------------------- parser

TEST(QueryParse, RoundTripsThroughCanonicalText) {
  const char* samples[] = {
      "SELECT \"_cpu0\", \"_cpu1\" FROM \"m\"",
      "SELECT * FROM \"m\" WHERE tag=\"abc\"",
      "SELECT mean(\"f\") FROM \"m\" WHERE time >= 100 AND time <= 899",
      "SELECT mean(\"f\"), max(\"f\") FROM \"m\" GROUP BY time(250ns)",
  };
  for (const char* text : samples) {
    auto q = Query::parse(text);
    ASSERT_TRUE(q.has_value()) << text;
    auto again = Query::parse(q->to_string());
    ASSERT_TRUE(again.has_value()) << q->to_string();
    EXPECT_EQ(*q, *again) << text;
  }
}

TEST(QueryParse, KeepsSeedErrorMessages) {
  EXPECT_EQ(Query::parse("DELETE FROM \"m\"").status().message(),
            "query must start with SELECT");
  EXPECT_EQ(Query::parse("SELECT median(\"f\") FROM \"m\"").status().message(),
            "unknown aggregate function: median");
}

TEST(QueryParse, BuilderMatchesParsedText) {
  auto parsed = Query::parse(
      "SELECT mean(\"_cpu0\") FROM \"m\" WHERE tag=\"t1\" AND time >= 0 "
      "AND time <= 999 GROUP BY time(250ns)");
  ASSERT_TRUE(parsed.has_value());
  const Query built = QueryBuilder("m")
                          .select(Aggregate::kMean, "_cpu0")
                          .where_tag("tag", "t1")
                          .since(0)
                          .until(999)
                          .group_by_time(250)
                          .build();
  EXPECT_EQ(built, *parsed);
}

TEST(QueryPlan, KindFollowsSelectors) {
  EXPECT_EQ(make_plan(QueryBuilder("m").select("f").build()).kind,
            PlanKind::kRawScan);
  EXPECT_EQ(make_plan(QueryBuilder("m").select(Aggregate::kSum, "f").build())
                .kind,
            PlanKind::kAggregate);
  EXPECT_EQ(make_plan(QueryBuilder("m")
                          .select(Aggregate::kSum, "f")
                          .group_by_time(100)
                          .build())
                .kind,
            PlanKind::kGroupedAggregate);
}

TEST(QueryRun, TypedMatchesLegacyStringPath) {
  tsdb::TimeSeriesDb db;
  fill_kernel_series(db);
  const char* texts[] = {
      "SELECT \"_cpu0\" FROM \"kernel_percpu_cpu_idle\"",
      "SELECT * FROM \"kernel_percpu_cpu_idle\" WHERE tag=\"run-a\"",
      "SELECT stddev(\"_cpu1\") FROM \"kernel_percpu_cpu_idle\"",
      "SELECT mean(\"_cpu0\") FROM \"kernel_percpu_cpu_idle\" "
      "GROUP BY time(250ns)",
  };
  for (const char* text : texts) {
    auto via_string = run(db, text);
    auto parsed = Query::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    auto via_typed = run(db, *parsed);
    ASSERT_TRUE(via_string.has_value()) << text;
    ASSERT_TRUE(via_typed.has_value()) << text;
    EXPECT_EQ(via_string->columns, via_typed->columns) << text;
    EXPECT_EQ(via_string->rows, via_typed->rows) << text;
  }
}

// The columnar run() path (scan + execute_columnar) against the row
// evaluator (collect + execute) that the fleet's exact gather uses: same
// slices, two code paths, answers must be bit-for-bit identical — raw
// merges with equal timestamps across series included, because both sort
// by (time, arrival seq).
TEST(QueryRun, ColumnarMatchesRowEvaluatorAcrossTagSets) {
  tsdb::TimeSeriesDb db;
  std::vector<tsdb::Point> batch;
  for (int i = 0; i < 60; ++i) {
    tsdb::Point p;
    p.measurement = "multi";
    p.tags["set"] = "s" + std::to_string(i % 3);
    p.time = (i / 3) * 100;  // three series share every timestamp
    p.fields["v"] = std::sqrt(2.0) * i;
    if (i % 3 != 2) p.fields["w"] = -0.25 * i;  // absent in series s2
    batch.push_back(std::move(p));
  }
  ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
  const char* texts[] = {
      "SELECT \"v\", \"w\" FROM \"multi\"",
      "SELECT * FROM \"multi\"",
      "SELECT sum(\"v\"), stddev(\"v\"), first(\"w\"), last(\"w\"), "
      "count(\"w\") FROM \"multi\"",
      "SELECT mean(\"v\") FROM \"multi\" GROUP BY time(300ns)",
      "SELECT min(\"v\"), max(\"w\") FROM \"multi\" WHERE set=\"s1\"",
      "SELECT mean(\"w\") FROM \"multi\" WHERE time >= 500 AND "
      "time <= 1500 GROUP BY time(200ns)",
  };
  for (const char* text : texts) {
    auto parsed = Query::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    auto columnar = run(db, *parsed);
    auto row = execute(make_plan(*parsed),
                       db.collect(parsed->measurement, parsed->time_min,
                                  parsed->time_max, parsed->tag_filters));
    ASSERT_TRUE(columnar.has_value()) << text;
    ASSERT_TRUE(row.has_value()) << text;
    EXPECT_EQ(columnar->columns, row->columns) << text;
    ASSERT_EQ(columnar->rows.size(), row->rows.size()) << text;
    for (std::size_t r = 0; r < row->rows.size(); ++r) {
      ASSERT_EQ(columnar->rows[r].size(), row->rows[r].size()) << text;
      for (std::size_t c = 0; c < row->rows[r].size(); ++c) {
        const double a = columnar->rows[r][c];
        const double b = row->rows[r][c];
        if (std::isnan(a) || std::isnan(b)) {
          EXPECT_TRUE(std::isnan(a) && std::isnan(b)) << text;
        } else {
          EXPECT_EQ(a, b) << text << " row " << r << " col " << c;
        }
      }
    }
  }
  // Validation errors surface identically through the columnar path.
  auto mixed = run(db, Query::parse("SELECT \"v\", mean(\"w\") "
                                    "FROM \"multi\"")
                           .value());
  ASSERT_FALSE(mixed.has_value());
  EXPECT_EQ(mixed.status().message(),
            "cannot mix raw fields with aggregates in one query");
}

// ------------------------------------------------------------- PointSink

/// Implements only the one virtual hot path; write()/write_line() must
/// arrive here as batches of one.
class RecordingSink : public tsdb::PointSink {
 public:
  Status write_batch(std::vector<tsdb::Point> points) override {
    ++batches;
    for (auto& p : points) accepted.push_back(std::move(p));
    return Status::ok();
  }

  int batches = 0;
  std::vector<tsdb::Point> accepted;
};

TEST(PointSink, SinglePointAndLineDelegateToWriteBatch) {
  RecordingSink sink;
  ASSERT_TRUE(sink.write(make_point("m", 1, 0.5, 0.25)).is_ok());
  ASSERT_TRUE(sink.write_line("m,tag=run-a _cpu0=1.5 7").is_ok());
  EXPECT_FALSE(sink.write_line("not a line protocol entry").is_ok());
  EXPECT_EQ(sink.batches, 2);
  ASSERT_EQ(sink.accepted.size(), 2u);
  EXPECT_EQ(sink.accepted[0].time, 1);
  EXPECT_EQ(sink.accepted[1].measurement, "m");
  EXPECT_EQ(sink.accepted[1].time, 7);
}

// ------------------------------------------------------------ write epoch

TEST(WriteEpoch, BumpsOnEveryMutationAndNeverRepeats) {
  tsdb::TimeSeriesDb db;
  EXPECT_EQ(db.write_epoch("m"), 0u);
  ASSERT_TRUE(db.write(make_point("m", 10, 1.0, 2.0)).is_ok());
  const std::uint64_t first = db.write_epoch("m");
  EXPECT_GT(first, 0u);
  ASSERT_TRUE(db.write(make_point("m", 20, 1.0, 2.0)).is_ok());
  const std::uint64_t second = db.write_epoch("m");
  EXPECT_GT(second, first);

  // Dropping the one series and writing it again must not resurrect an
  // old epoch value.
  EXPECT_EQ(db.drop_series("m", {{"tag", "run-a"}}), 2u);
  const std::uint64_t dropped = db.write_epoch("m");
  EXPECT_GT(dropped, second);
  ASSERT_TRUE(db.write(make_point("m", 30, 1.0, 2.0)).is_ok());
  EXPECT_GT(db.write_epoch("m"), dropped);

  // clear() resets entries but keeps the counter running.
  db.clear();
  EXPECT_EQ(db.write_epoch("m"), 0u);
  ASSERT_TRUE(db.write(make_point("m", 40, 1.0, 2.0)).is_ok());
  EXPECT_GT(db.write_epoch("m"), second);
}

TEST(WriteEpoch, RetentionTrimBumps) {
  tsdb::TimeSeriesDb db(tsdb::RetentionPolicy{100});
  ASSERT_TRUE(db.write(make_point("m", 10, 1.0, 2.0)).is_ok());
  ASSERT_TRUE(db.write(make_point("m", 500, 1.0, 2.0)).is_ok());
  const std::uint64_t before = db.write_epoch("m");
  EXPECT_EQ(db.enforce_retention(500), 1u);
  EXPECT_GT(db.write_epoch("m"), before);
  // No points trimmed -> epoch untouched (cache entries stay valid).
  const std::uint64_t after = db.write_epoch("m");
  EXPECT_EQ(db.enforce_retention(500), 0u);
  EXPECT_EQ(db.write_epoch("m"), after);
}

// ------------------------------------------------------------ result cache

TEST(QueryEngineCache, ServesRepeatsAndInvalidatesOnWrite) {
  tsdb::TimeSeriesDb db;
  fill_kernel_series(db);
  QueryEngine engine(db);
  const Query q = QueryBuilder("kernel_percpu_cpu_idle").select("_cpu0").build();

  auto first = engine.run(q);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->rows.size(), 10u);
  auto second = engine.run(q);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->rows, first->rows);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_EQ(engine.stats().cache_misses, 1u);

  // A write to the measurement bumps its epoch: next run recomputes and
  // sees the new point.
  ASSERT_TRUE(db.write(make_point("kernel_percpu_cpu_idle", 1000, 9.0, 9.0))
                  .is_ok());
  auto third = engine.run(q);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->rows.size(), 11u);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_EQ(engine.stats().cache_misses, 2u);

  // Writes to other measurements leave the entry valid.
  ASSERT_TRUE(db.write(make_point("other", 0, 1.0, 1.0)).is_ok());
  auto fourth = engine.run(q);
  ASSERT_TRUE(fourth.has_value());
  EXPECT_EQ(engine.stats().cache_hits, 2u);
}

TEST(QueryEngineCache, ClearAndRewriteNeverServesStaleRows) {
  tsdb::TimeSeriesDb db;
  fill_kernel_series(db);
  QueryEngine engine(db);
  const Query q =
      QueryBuilder("kernel_percpu_cpu_idle").select("_cpu0").build();
  ASSERT_TRUE(engine.run(q).has_value());

  db.clear();
  ASSERT_TRUE(db.write(make_point("kernel_percpu_cpu_idle", 5, 42.0, 43.0))
                  .is_ok());
  auto fresh = engine.run(q);
  ASSERT_TRUE(fresh.has_value());
  ASSERT_EQ(fresh->rows.size(), 1u);
  EXPECT_EQ(fresh->rows[0][1], 42.0);
}

TEST(QueryEngineCache, ErrorsAreNotCached) {
  tsdb::TimeSeriesDb db;
  QueryEngine engine(db);
  const Query q = QueryBuilder("missing").select("f").build();
  EXPECT_FALSE(engine.run(q).has_value());
  EXPECT_FALSE(engine.run(q).has_value());
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  EXPECT_EQ(engine.stats().cache_misses, 2u);
}

TEST(QueryEngineCache, EvictsLeastRecentlyUsed) {
  tsdb::TimeSeriesDb db;
  fill_kernel_series(db);
  EngineOptions options;
  options.cache_capacity = 2;
  QueryEngine engine(db, options);
  const Query a = QueryBuilder("kernel_percpu_cpu_idle").select("_cpu0").build();
  const Query b = QueryBuilder("kernel_percpu_cpu_idle").select("_cpu1").build();
  const Query c = QueryBuilder("kernel_percpu_cpu_idle").select_all().build();
  ASSERT_TRUE(engine.run(a).has_value());
  ASSERT_TRUE(engine.run(b).has_value());
  ASSERT_TRUE(engine.run(c).has_value());  // evicts `a`
  ASSERT_TRUE(engine.run(a).has_value());  // miss again
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  EXPECT_EQ(engine.stats().cache_misses, 4u);
  EXPECT_GE(engine.stats().cache_evictions, 1u);
}

TEST(QueryEngineCache, CapacityZeroDisablesCaching) {
  tsdb::TimeSeriesDb db;
  fill_kernel_series(db);
  EngineOptions options;
  options.cache_capacity = 0;
  QueryEngine engine(db, options);
  const Query q = QueryBuilder("kernel_percpu_cpu_idle").select("_cpu0").build();
  ASSERT_TRUE(engine.run(q).has_value());
  ASSERT_TRUE(engine.run(q).has_value());
  EXPECT_EQ(engine.stats().cache_hits, 0u);
}

// ------------------------------------------------------------ concurrency

TEST(QueryEngineConcurrency, ReadersRunAgainstBatchWriters) {
  tsdb::TimeSeriesDb db;
  QueryEngine engine(db);
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kBatches = 40;
  constexpr int kBatchSize = 25;

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&db, &go, w] {
      while (!go.load()) std::this_thread::yield();
      for (int b = 0; b < kBatches; ++b) {
        std::vector<tsdb::Point> batch;
        for (int i = 0; i < kBatchSize; ++i) {
          const int n = b * kBatchSize + i;
          batch.push_back(make_point(
              "stress", static_cast<TimeNs>(n) * 1000 + w, 1.0, 2.0));
        }
        ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
      }
    });
  }
  const Query count_q = QueryBuilder("stress")
                            .select(Aggregate::kCount, "_cpu0")
                            .build();
  const Query raw_q = QueryBuilder("stress").select("_cpu0").build();
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&engine, &go, &count_q, &raw_q, r] {
      while (!go.load()) std::this_thread::yield();
      double last = 0.0;
      for (int i = 0; i < 200; ++i) {
        auto result = engine.run(r % 2 == 0 ? count_q : raw_q);
        if (!result.has_value()) continue;  // measurement not written yet
        if (result->rows.empty()) continue;
        if (r % 2 == 0) {
          // Counts observed by one reader never go backwards.
          const double count = result->rows[0][1];
          EXPECT_GE(count, last);
          last = count;
        }
      }
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();

  EXPECT_EQ(db.point_count("stress"),
            static_cast<std::size_t>(kWriters * kBatches * kBatchSize));
  auto final_count = engine.run(count_q);
  ASSERT_TRUE(final_count.has_value());
  EXPECT_EQ(final_count->rows[0][1],
            static_cast<double>(kWriters * kBatches * kBatchSize));
}

// ----------------------------------------------------------- tag index

// Regression pin: a tag filter naming a key or value the measurement has
// never seen must behave like "measurement found, zero matching series" —
// scan() returns true with an empty view span, and the query layer turns
// that into an empty/NaN result — identically with the inverted index
// forced on (min_series = 1) and effectively off (huge threshold).
TEST(QueryIndex, UnknownFilterStringsReportFoundWithZeroViews) {
  for (std::size_t threshold : {std::size_t{1}, std::size_t{1u << 20}}) {
    tsdb::TimeSeriesDb db;
    db.set_index_config({.min_series = threshold});
    std::vector<tsdb::Point> batch;
    for (int i = 0; i < 8; ++i) {
      tsdb::Point p;
      p.measurement = "idx";
      p.tags["host"] = "h" + std::to_string(i);
      p.time = i * 100;
      p.fields["v"] = 1.0 * i;
      batch.push_back(std::move(p));
    }
    ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());

    const std::map<std::string, std::string> unknown_key = {{"rack", "r1"}};
    const std::map<std::string, std::string> unknown_value = {{"host", "zz"}};
    for (const auto& filters : {unknown_key, unknown_value}) {
      bool visited = false;
      std::size_t views = 99;
      const bool found =
          db.scan("idx", 0, 10'000, filters,
                  [&](std::span<const tsdb::SeriesView> vs) {
                    visited = true;
                    views = vs.size();
                  });
      EXPECT_TRUE(found) << "threshold " << threshold;
      EXPECT_TRUE(visited) << "threshold " << threshold;
      EXPECT_EQ(views, 0u) << "threshold " << threshold;
    }

    // Through the query layer: aggregates over zero series yield the
    // one NaN row the evaluator has always produced, raw scans yield no
    // rows, and neither is an error — regardless of index engagement.
    for (const char* text :
         {"SELECT count(\"v\") FROM \"idx\" WHERE rack=\"r1\"",
          "SELECT count(\"v\") FROM \"idx\" WHERE host=\"zz\""}) {
      auto result = run(db, Query::parse(text).value());
      ASSERT_TRUE(result.has_value()) << text;
      ASSERT_EQ(result->rows.size(), 1u) << text;
      EXPECT_TRUE(std::isnan(result->rows[0][1])) << text;
    }
    auto raw = run(db, Query::parse("SELECT \"v\" FROM \"idx\" "
                                    "WHERE host=\"zz\"")
                           .value());
    ASSERT_TRUE(raw.has_value());
    EXPECT_TRUE(raw->rows.empty());
  }
}

TEST(QueryIndex, IndexOnOffParityAndProbeAccounting) {
  tsdb::TimeSeriesDb indexed;
  tsdb::TimeSeriesDb scanned;
  indexed.set_index_config({.min_series = 1});
  scanned.set_index_config({.min_series = 1u << 20});
  constexpr int kSeries = 24;
  for (auto* db : {&indexed, &scanned}) {
    std::vector<tsdb::Point> batch;
    for (int i = 0; i < kSeries; ++i) {
      for (int j = 0; j < 5; ++j) {
        tsdb::Point p;
        p.measurement = "probes";
        p.tags["shard"] = "s" + std::to_string(i % 4);
        p.tags["uniq"] = "u" + std::to_string(i);
        p.time = j * 100;
        p.fields["v"] = std::sqrt(2.0) * (i * 5 + j);
        batch.push_back(std::move(p));
      }
    }
    ASSERT_TRUE(db->write_batch(std::move(batch)).is_ok());
  }

  const char* texts[] = {
      "SELECT count(\"v\"), sum(\"v\") FROM \"probes\" WHERE uniq=\"u7\"",
      "SELECT min(\"v\"), max(\"v\") FROM \"probes\" WHERE shard=\"s2\"",
      "SELECT \"v\" FROM \"probes\" WHERE shard=\"s1\"",
  };
  for (const char* text : texts) {
    auto a = run(indexed, Query::parse(text).value());
    auto b = run(scanned, Query::parse(text).value());
    ASSERT_TRUE(a.has_value()) << text;
    ASSERT_TRUE(b.has_value()) << text;
    EXPECT_EQ(a->rows, b->rows) << text;
  }

  // A unique-tag probe touches exactly one posting entry: the probe
  // counter grows by the smallest posting-list size (1), never by a
  // full-measurement scan.
  const auto before = indexed.stats();
  bool saw = false;
  indexed.scan("probes", 0, 10'000, {{"uniq", "u7"}},
               [&](std::span<const tsdb::SeriesView> vs) {
                 saw = vs.size() == 1;
               });
  EXPECT_TRUE(saw);
  const auto after = indexed.stats();
  EXPECT_EQ(after.index_scans, before.index_scans + 1);
  EXPECT_LE(after.index_probes - before.index_probes, 1u);
  EXPECT_GT(after.index_postings, 0u);

  // Below the threshold the linear probe is used and accounted as such.
  const auto fb_before = scanned.stats();
  scanned.scan("probes", 0, 10'000, {{"uniq", "u7"}},
               [](std::span<const tsdb::SeriesView>) {});
  const auto fb_after = scanned.stats();
  EXPECT_EQ(fb_after.index_fallbacks, fb_before.index_fallbacks + 1);
  EXPECT_EQ(fb_after.index_scans, fb_before.index_scans);
}

// ------------------------------------------------------- parallel parity

/// Awkward dataset for the morsel-driven evaluator: several tag sets
/// sharing timestamps (cross-series first/last ties), a field absent in
/// one series, NaN cells (min/max poisoning), and out-of-order writes so
/// part of the data sits in sealed runs rather than the base.
void fill_parallel_dataset(tsdb::TimeSeriesDb& db) {
  std::vector<tsdb::Point> batch;
  for (int i = 0; i < 120; ++i) {
    tsdb::Point p;
    p.measurement = "par";
    p.tags["set"] = "s" + std::to_string(i % 4);
    p.time = (i / 4) * 100;  // four series share every timestamp
    p.fields["v"] = (i % 17 == 3) ? std::nan("") : std::sqrt(2.0) * i;
    if (i % 4 != 1) p.fields["w"] = -0.5 * i + 0.125;
    batch.push_back(std::move(p));
  }
  ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
  // Late out-of-order tail: lands in a separate run until compaction.
  std::vector<tsdb::Point> late;
  for (int i = 0; i < 24; ++i) {
    tsdb::Point p;
    p.measurement = "par";
    p.tags["set"] = "s" + std::to_string(i % 4);
    p.time = 50 + (i / 4) * 400;
    p.fields["v"] = std::atan(1.0) * i;
    late.push_back(std::move(p));
  }
  ASSERT_TRUE(db.write_batch(std::move(late)).is_ok());
}

void expect_bit_identical(const tsdb::QueryResult& a,
                          const tsdb::QueryResult& b,
                          const std::string& label) {
  EXPECT_EQ(a.columns, b.columns) << label;
  ASSERT_EQ(a.rows.size(), b.rows.size()) << label;
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_EQ(a.rows[r].size(), b.rows[r].size()) << label << " row " << r;
    for (std::size_t c = 0; c < a.rows[r].size(); ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rows[r][c]),
                std::bit_cast<std::uint64_t>(b.rows[r][c]))
          << label << " row " << r << " col " << c << " serial "
          << a.rows[r][c] << " parallel " << b.rows[r][c];
    }
  }
}

// The determinism contract: with morsels forced on tiny data, a
// multi-thread pool must produce bit-for-bit the result of a 1-thread
// pool for every aggregate and query shape, on both live-run and
// compacted/packed layouts.
TEST(QueryParallel, ParallelMatchesSerialBitForBit) {
  const char* texts[] = {
      // All eight aggregates at once (per-field parallel path).
      "SELECT count(\"v\"), min(\"v\"), max(\"v\"), first(\"v\"), "
      "last(\"v\"), sum(\"v\"), mean(\"v\"), stddev(\"v\") FROM \"par\"",
      // Exact-partial subset (morsel-decomposable aggregates only).
      "SELECT count(\"v\"), min(\"v\"), max(\"w\"), first(\"v\"), "
      "last(\"w\") FROM \"par\"",
      "SELECT first(\"v\"), last(\"v\") FROM \"par\"",
      // Grouped buckets.
      "SELECT mean(\"v\"), stddev(\"w\"), count(\"v\") FROM \"par\" "
      "GROUP BY time(250ns)",
      // Single-series filter (single-contiguous fast path).
      "SELECT min(\"v\"), max(\"v\"), last(\"w\") FROM \"par\" "
      "WHERE set=\"s2\"",
      // Time-bounded.
      "SELECT sum(\"v\"), count(\"w\") FROM \"par\" WHERE time >= 300 "
      "AND time <= 2100",
      // Raw materialization, multi-series and single-series.
      "SELECT \"v\", \"w\" FROM \"par\"",
      "SELECT \"v\" FROM \"par\" WHERE set=\"s0\"",
  };
  for (const bool compacted : {false, true}) {
    tsdb::TimeSeriesDb db;
    fill_parallel_dataset(db);
    if (compacted) db.compact();
    util::TaskPool serial(1);
    util::TaskPool wide(4);
    ExecOptions serial_opts;
    serial_opts.pool = &serial;
    ExecOptions wide_opts;
    wide_opts.pool = &wide;
    wide_opts.parallel_min_rows = 1;  // force morsels on tiny data
    wide_opts.morsel_rows = 8;
    for (const char* text : texts) {
      auto q = Query::parse(text);
      ASSERT_TRUE(q.has_value()) << text;
      auto a = run(db, *q, serial_opts);
      auto b = run(db, *q, wide_opts);
      ASSERT_TRUE(a.has_value()) << text;
      ASSERT_TRUE(b.has_value()) << text;
      expect_bit_identical(*a, *b,
                           std::string(text) +
                               (compacted ? " [compacted]" : " [live]"));
    }
  }
}

// ------------------------------------------------- order-exact partials

/// The columnar run() against the row evaluator over the same collected
/// points — the serial fold in (time, seq) order — bit for bit.
void expect_matches_row_evaluator(const tsdb::TimeSeriesDb& db,
                                  const Query& q, const ExecOptions& opts,
                                  const std::string& label) {
  auto columnar = run(db, q, opts);
  auto rows = execute(make_plan(q), db.collect(q.measurement, q.time_min,
                                               q.time_max, q.tag_filters));
  ASSERT_TRUE(columnar.has_value()) << label;
  ASSERT_TRUE(rows.has_value()) << label;
  expect_bit_identical(*rows, *columnar, label);
}

tsdb::Point zero_point(std::string set, TimeNs t, double v) {
  tsdb::Point p;
  p.measurement = "zeros";
  p.tags["set"] = std::move(set);
  p.time = t;
  p.fields["v"] = v;
  return p;
}

// Zeros of both signs tying for the extreme across series: the serial fold
// keeps the one that comes first in (time, seq) row order, whichever
// series holds it — not the lowest series in scan order.
TEST(QueryExactPartials, SignedZeroExtremesFollowRowOrder) {
  tsdb::TimeSeriesDb db;
  // Series a sorts (and is created) first but holds its zero later.
  ASSERT_TRUE(db.write(zero_point("a", 2, -0.0)).is_ok());
  ASSERT_TRUE(db.write(zero_point("b", 1, 0.0)).is_ok());
  // Equal times: the earlier write (lower seq) comes first.
  ASSERT_TRUE(db.write(zero_point("d", 10, 0.0)).is_ok());
  ASSERT_TRUE(db.write(zero_point("c", 10, -0.0)).is_ok());
  for (const Aggregate agg : {Aggregate::kMin, Aggregate::kMax}) {
    for (const TimeNs interval : {TimeNs{0}, TimeNs{100}}) {
      for (const bool by_seq : {false, true}) {
        QueryBuilder b("zeros");
        b.select(agg, "v");
        if (by_seq) {
          b.since(10);
        } else {
          b.until(5);
        }
        if (interval > 0) b.group_by_time(interval);
        const Query q = b.build();
        auto got = run(db, q);
        ASSERT_TRUE(got.has_value()) << q.to_string();
        ASSERT_EQ(got->rows.size(), 1u) << q.to_string();
        EXPECT_FALSE(std::signbit(got->rows[0][1])) << q.to_string();
        expect_matches_row_evaluator(db, q, ExecOptions{}, q.to_string());
      }
    }
  }
}

/// Grouped-partials workload: five series sharing most timestamps (first/
/// last ties across series), negative times, NaN cells (a bucket whose
/// first value is NaN poisons min/max), zeros of both signs (fields z and
/// nz reach them as extremes), a field absent from some rows, and
/// out-of-order arrival.
std::vector<tsdb::Point> partials_workload() {
  std::vector<tsdb::Point> points;
  std::uint64_t lcg = 11;
  for (int i = 0; i < 400; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    tsdb::Point p;
    p.measurement = "gp";
    p.tags["set"] = "s" + std::to_string((lcg >> 20) % 5);
    p.time = static_cast<TimeNs>((lcg >> 33) % 160) * 5 - 200;
    double v = static_cast<double>((lcg >> 44) % 9) - 4.0;
    switch ((lcg >> 40) % 8) {
      case 0:
        v = std::nan("");
        break;
      case 1:
        v = -0.0;
        break;
      case 2:
        v = 0.0;
        break;
      default:
        break;
    }
    p.fields["v"] = v;
    if ((lcg >> 52) % 4 != 0) {
      p.fields["w"] = std::sqrt(2.0) * (i % 2 == 0 ? i : -i);
    }
    // Zero extremes of both signs in most buckets: min(z) and max(nz).
    const double z[] = {0.0, -0.0, 1.0, 2.0};
    p.fields["z"] = z[(lcg >> 56) % 4];
    p.fields["nz"] = -p.fields["z"];
    points.push_back(std::move(p));
  }
  return points;
}

// Grouped count/min/max/first/last fold per (series, bucket) partial and
// merge per bucket; the answer must be the serial fold's over the merged
// rows, bit for bit, at every thread count, run layout and compaction.
TEST(QueryExactPartials, GroupedMatchesRowEvaluator) {
  const char* texts[] = {
      "SELECT count(\"v\"), min(\"v\"), max(\"v\"), first(\"v\"), "
      "last(\"v\") FROM \"gp\" GROUP BY time(50ns)",
      "SELECT min(\"w\"), max(\"w\"), count(\"w\"), first(\"w\"), "
      "last(\"w\"), max(\"v\") FROM \"gp\" GROUP BY time(37ns)",
      "SELECT max(\"v\"), count(\"w\"), last(\"v\") FROM \"gp\" "
      "WHERE set=\"s1\" GROUP BY time(100ns)",
      "SELECT min(\"v\"), first(\"w\"), count(\"v\") FROM \"gp\" "
      "WHERE time >= -120 AND time <= 480 GROUP BY time(64ns)",
      "SELECT max(\"v\"), min(\"v\") FROM \"gp\" GROUP BY time(1000ns)",
      "SELECT min(\"z\"), max(\"nz\"), first(\"z\"), count(\"nz\") "
      "FROM \"gp\" GROUP BY time(25ns)",
      "SELECT min(\"z\"), max(\"nz\") FROM \"gp\" WHERE time >= 0",
      // Ungrouped: the one-bucket case of the same fold.
      "SELECT count(\"v\"), min(\"v\"), max(\"v\"), first(\"w\"), "
      "last(\"w\") FROM \"gp\"",
  };
  const tsdb::RunConfig configs[] = {
      {/*seal_rows=*/2, /*max_sealed=*/1, /*fold_ratio=*/0.25},
      {/*seal_rows=*/16, /*max_sealed=*/2, /*fold_ratio=*/0.5},
      {/*seal_rows=*/4096, /*max_sealed=*/8, /*fold_ratio=*/0.5},
  };
  const std::vector<tsdb::Point> workload = partials_workload();
  for (std::size_t c = 0; c < std::size(configs); ++c) {
    for (const bool compacted : {false, true}) {
      tsdb::TimeSeriesDb db;
      db.set_run_config(configs[c]);
      for (std::size_t start = 0; start < workload.size(); start += 16) {
        std::vector<tsdb::Point> batch(
            workload.begin() + static_cast<std::ptrdiff_t>(start),
            workload.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(start + 16, workload.size())));
        ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
      }
      if (compacted) db.compact();
      for (const std::size_t threads : {1u, 2u, 4u}) {
        util::TaskPool pool(threads);
        ExecOptions opts;
        opts.pool = &pool;
        opts.parallel_min_rows = 1;
        for (const char* text : texts) {
          auto q = Query::parse(text);
          ASSERT_TRUE(q.has_value()) << text;
          expect_matches_row_evaluator(
              db, *q, opts,
              std::string(text) + " [config " + std::to_string(c) +
                  (compacted ? ", compacted" : ", live") + ", " +
                  std::to_string(threads) + " threads]");
        }
      }
    }
  }
}

// Concurrency stress for the sanitizer jobs: batch writers, parallel
// evaluators on a shared pool, and retention trims all hammer one
// measurement.  Correctness here is "no data race / no crash" plus
// monotone counts per reader.
TEST(QueryEngineConcurrency, ParallelQueriesAgainstWritersAndRetention) {
  tsdb::TimeSeriesDb db(tsdb::RetentionPolicy{.duration = 1'000'000});
  util::TaskPool pool(4);
  ExecOptions opts;
  opts.pool = &pool;
  opts.parallel_min_rows = 1;
  opts.morsel_rows = 16;

  constexpr int kWriters = 2;
  constexpr int kBatches = 30;
  constexpr int kBatchSize = 20;
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&db, &go, w] {
      while (!go.load()) std::this_thread::yield();
      for (int b = 0; b < kBatches; ++b) {
        std::vector<tsdb::Point> batch;
        for (int i = 0; i < kBatchSize; ++i) {
          const int n = b * kBatchSize + i;
          batch.push_back(make_point("retained",
                                     static_cast<TimeNs>(n) * 1000 + w, 1.0,
                                     2.0, "run-" + std::to_string(w)));
        }
        ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
      }
    });
  }
  threads.emplace_back([&db, &go, &stop] {  // retention trimmer
    while (!go.load()) std::this_thread::yield();
    TimeNs now = 0;
    while (!stop.load()) {
      now += 200'000;
      db.enforce_retention(now);
      std::this_thread::yield();
    }
  });
  const Query agg_q = QueryBuilder("retained")
                          .select(Aggregate::kCount, "_cpu0")
                          .select(Aggregate::kMin, "_cpu0")
                          .select(Aggregate::kLast, "_cpu1")
                          .build();
  const Query grouped_q = QueryBuilder("retained")
                              .select(Aggregate::kMean, "_cpu0")
                              .group_by_time(5'000)
                              .build();
  const Query raw_q = QueryBuilder("retained").select("_cpu0").build();
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&db, &opts, &go, &agg_q, &grouped_q, &raw_q, r] {
      while (!go.load()) std::this_thread::yield();
      const Query& q = r == 0 ? agg_q : (r == 1 ? grouped_q : raw_q);
      for (int i = 0; i < 120; ++i) {
        auto result = run(db, q, opts);
        if (!result.has_value()) continue;  // not written yet
        for (const auto& row : result->rows) {
          ASSERT_EQ(row.size(), q.selectors.size() + 1);
        }
      }
    });
  }
  go.store(true);
  // Join writers + readers first, then stop the trimmer.
  for (std::size_t i = 0; i < threads.size(); ++i) {
    if (i == static_cast<std::size_t>(kWriters)) continue;  // trimmer
    threads[i].join();
  }
  stop.store(true);
  threads[kWriters].join();

  auto final_result = run(db, agg_q, opts);
  ASSERT_TRUE(final_result.has_value());
}

// ------------------------------------------------------- Expected helpers

TEST(ExpectedHelpers, MapTransformsValuesAndForwardsErrors) {
  Expected<int> ok = 21;
  EXPECT_EQ(ok.map([](int v) { return v * 2; }).value(), 42);
  Expected<int> err = Status::not_found("nope");
  auto mapped = err.map([](int v) { return v * 2; });
  ASSERT_FALSE(mapped.has_value());
  EXPECT_EQ(mapped.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(mapped.status().message(), "nope");
  EXPECT_EQ(err.map([](int v) { return v; }).value_or(7), 7);
}

TEST(ExpectedHelpers, AndThenChainsFallibleSteps) {
  const auto half = [](int v) -> Expected<int> {
    if (v % 2 != 0) return Status::invalid_argument("odd");
    return v / 2;
  };
  Expected<int> ok = 84;
  EXPECT_EQ(ok.and_then(half).value(), 42);
  EXPECT_EQ(Expected<int>(43).and_then(half).status().code(),
            ErrorCode::kInvalidArgument);
  Expected<int> err = Status::unavailable("down");
  EXPECT_EQ(err.and_then(half).status().code(), ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace pmove::query
