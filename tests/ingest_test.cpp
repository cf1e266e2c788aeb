#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "fault/fault.hpp"
#include "ingest/engine.hpp"
#include "ingest/ring_buffer.hpp"
#include "ingest/wal.hpp"
#include "query/plan.hpp"
#include "sampler/session.hpp"
#include "topology/machine.hpp"
#include "tsdb/db.hpp"

namespace pmove::ingest {
namespace {

namespace fs = std::filesystem;

/// CI chaos mode: PMOVE_FAULT in the environment arms the fault registry
/// for the whole suite, so every zero-loss assertion below also proves the
/// resilience tier absorbs the injected failures.
const bool kEnvFaultsArmed = [] {
  const char* spec = std::getenv("PMOVE_FAULT");
  if (spec != nullptr && *spec != '\0') {
    if (Status s = fault::arm_from_spec(spec); !s.is_ok()) {
      std::fprintf(stderr, "PMOVE_FAULT rejected: %s\n",
                   s.message().c_str());
    }
  }
  return true;
}();

tsdb::Point make_point(std::string measurement, TimeNs t, double value,
                       std::string tag = "") {
  tsdb::Point p;
  p.measurement = std::move(measurement);
  p.time = t;
  p.fields["value"] = value;
  if (!tag.empty()) p.tags["tag"] = std::move(tag);
  return p;
}

/// Unique scratch directory, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& label) {
    static std::atomic<int> counter{0};
    path = (fs::temp_directory_path() /
            ("pmove_ingest_" + label + "_" +
             std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1))))
               .string();
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

// -------------------------------------------------------------- ring buffer

TEST(BoundedQueueTest, TryPushFailureLeavesItemIntact) {
  BoundedQueue<std::vector<int>> queue(1);
  std::vector<int> first = {1, 2, 3};
  ASSERT_TRUE(queue.try_push(std::move(first)));
  std::vector<int> second = {4, 5, 6};
  ASSERT_FALSE(queue.try_push(std::move(second)));
  // The failed push must not have consumed the batch — this is what lets
  // the engine fall back to block or spill without losing points.
  EXPECT_EQ(second.size(), 3u);
  ASSERT_FALSE(queue.push_wait(std::move(second), 1'000'000));
  EXPECT_EQ(second.size(), 3u);
}

TEST(BoundedQueueTest, PopAllDrainsInOrder) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.try_push(int(i)));
  auto drained = queue.pop_all(0);
  ASSERT_EQ(drained.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(drained[i], i);
}

TEST(BoundedQueueTest, CloseWakesWaiters) {
  BoundedQueue<int> queue(1);
  std::thread closer([&queue] { queue.close(); });
  auto drained = queue.pop_all(-1);  // must not hang
  closer.join();
  EXPECT_TRUE(drained.empty());
  EXPECT_TRUE(queue.is_closed());
  EXPECT_FALSE(queue.try_push(7));
}

// ---------------------------------------------------------------- sharding

TEST(IngestEngineTest, ShardRoutingIsDeterministicAndSeriesSticky) {
  IngestOptions options;
  options.shard_count = 8;
  IngestEngine engine(options);
  // Same (measurement, tags) always lands on the same shard, regardless of
  // time and field values.
  for (int series = 0; series < 32; ++series) {
    const std::string tag = "series" + std::to_string(series);
    const int expected =
        engine.shard_of(make_point("cycles", 0, 0.0, tag));
    for (int i = 1; i < 10; ++i) {
      EXPECT_EQ(engine.shard_of(make_point("cycles", i * 1000, 3.14 * i, tag)),
                expected);
    }
  }
  // Different measurements must not all collapse onto one shard.
  std::vector<bool> hit(8, false);
  for (int m = 0; m < 64; ++m) {
    hit[static_cast<std::size_t>(engine.shard_of(
        make_point("m" + std::to_string(m), 0, 0.0)))] = true;
  }
  int used = 0;
  for (bool h : hit) used += h ? 1 : 0;
  EXPECT_GE(used, 4);
}

TEST(IngestEngineTest, ShardedQueryMatchesSingleDb) {
  IngestOptions options;
  options.shard_count = 4;
  IngestEngine engine(options);
  ASSERT_TRUE(engine.open().is_ok());
  tsdb::TimeSeriesDb reference;
  for (int i = 0; i < 200; ++i) {
    auto p = make_point("cycles", i * 10, static_cast<double>(i % 17),
                        "t" + std::to_string(i % 5));
    ASSERT_TRUE(reference.write(p).is_ok());
    ASSERT_TRUE(engine.write(std::move(p)).is_ok());
  }
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_EQ(engine.point_count(), reference.point_count());
  for (const char* query :
       {"SELECT * FROM \"cycles\"",
        "SELECT mean(\"value\"), stddev(\"value\") FROM \"cycles\"",
        "SELECT max(\"value\") FROM \"cycles\" WHERE tag=\"t3\"",
        "SELECT count(\"value\") FROM \"cycles\" WHERE time >= 500 AND "
        "time <= 1500"}) {
    auto sharded = engine.query(query);
    auto single = pmove::query::run(reference, query);
    ASSERT_TRUE(sharded.has_value()) << query;
    ASSERT_TRUE(single.has_value()) << query;
    EXPECT_EQ(sharded->columns, single->columns) << query;
    ASSERT_EQ(sharded->rows.size(), single->rows.size()) << query;
    for (std::size_t r = 0; r < single->rows.size(); ++r) {
      ASSERT_EQ(sharded->rows[r].size(), single->rows[r].size());
      for (std::size_t c = 0; c < single->rows[r].size(); ++c) {
        if (std::isnan(single->rows[r][c])) {
          EXPECT_TRUE(std::isnan(sharded->rows[r][c])) << query;
        } else {
          EXPECT_DOUBLE_EQ(sharded->rows[r][c], single->rows[r][c]) << query;
        }
      }
    }
  }
  engine.close();

  // Timestamp ties: three series at one timestamp, arriving h2, h0, h1,
  // submitted back to back so the shard workers race to apply them.  A
  // left fold answered 0 or 1 depending on which batch a worker applied
  // first; the exact sum answers 1 (1 + 1e16 - 1e16) whatever the shard
  // count and the workers' schedule.
  const auto host_point = [](std::string host, double value) {
    tsdb::Point p = make_point("m", 1000, value);
    p.tags["host"] = std::move(host);
    return p;
  };
  const std::vector<tsdb::Point> arrivals = {host_point("h2", 1.0),
                                             host_point("h0", 1e16),
                                             host_point("h1", -1e16)};
  const char* sum_query = "SELECT sum(\"value\") FROM \"m\"";
  tsdb::TimeSeriesDb tie_reference;
  for (const tsdb::Point& p : arrivals) {
    ASSERT_TRUE(tie_reference.write(p).is_ok());
  }
  auto expected = pmove::query::run(tie_reference, sum_query);
  ASSERT_TRUE(expected.has_value());
  ASSERT_EQ(expected->rows[0][1], 1.0);
  for (int shards = 1; shards <= 8; ++shards) {
    for (int repeat = 0; repeat < 50; ++repeat) {
      IngestOptions tie_options;
      tie_options.shard_count = shards;
      IngestEngine tie_engine(tie_options);
      ASSERT_TRUE(tie_engine.open().is_ok());
      for (const tsdb::Point& p : arrivals) {
        ASSERT_TRUE(tie_engine.submit({p}).is_ok());
      }
      ASSERT_TRUE(tie_engine.flush().is_ok());
      auto got = tie_engine.query(sum_query);
      ASSERT_TRUE(got.has_value()) << shards << " shards";
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got->rows[0][1]),
                std::bit_cast<std::uint64_t>(expected->rows[0][1]))
          << shards << " shards, repeat " << repeat << ": sum "
          << got->rows[0][1];
      tie_engine.close();
    }
  }
}

// --------------------------------------------------------------------- WAL

TEST(WalTest, AppendReplayRoundTrip) {
  TempDir dir("roundtrip");
  WalOptions options;
  options.dir = dir.path;
  {
    Wal wal;
    ASSERT_TRUE(wal.open(options).is_ok());
    for (int i = 0; i < 50; ++i) {
      auto lsn = wal.append("record-" + std::to_string(i));
      ASSERT_TRUE(lsn.has_value());
      EXPECT_EQ(lsn.value(), static_cast<std::uint64_t>(i));
    }
  }  // destructor = crash without checkpoint
  Wal wal;
  ASSERT_TRUE(wal.open(options).is_ok());
  EXPECT_EQ(wal.recovery().records, 50u);
  std::vector<std::string> payloads;
  ASSERT_TRUE(wal.replay([&payloads](std::string_view payload) {
                   payloads.emplace_back(payload);
                   return Status::ok();
                 })
                  .is_ok());
  ASSERT_EQ(payloads.size(), 50u);
  EXPECT_EQ(payloads.front(), "record-0");
  EXPECT_EQ(payloads.back(), "record-49");
}

TEST(WalTest, SegmentsRotate) {
  TempDir dir("rotate");
  WalOptions options;
  options.dir = dir.path;
  options.segment_bytes = 256;  // force frequent rotation
  Wal wal;
  ASSERT_TRUE(wal.open(options).is_ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(wal.append(std::string(64, 'x')).has_value());
  }
  EXPECT_GT(wal.segment_count(), 5u);
  std::size_t replayed = 0;
  ASSERT_TRUE(wal.replay([&replayed](std::string_view) {
                   ++replayed;
                   return Status::ok();
                 })
                  .is_ok());
  EXPECT_EQ(replayed, 40u);
}

TEST(WalTest, TruncatedTailIsDiscarded) {
  TempDir dir("torn");
  WalOptions options;
  options.dir = dir.path;
  std::string segment;
  {
    Wal wal;
    ASSERT_TRUE(wal.open(options).is_ok());
    ASSERT_TRUE(wal.append("complete-1").has_value());
    ASSERT_TRUE(wal.append("complete-2").has_value());
    ASSERT_TRUE(wal.append("will-be-torn").has_value());
  }
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    segment = entry.path().string();
  }
  ASSERT_FALSE(segment.empty());
  // Chop mid-record: simulate a crash during the last append.
  fs::resize_file(segment, fs::file_size(segment) - 5);
  Wal wal;
  ASSERT_TRUE(wal.open(options).is_ok());
  EXPECT_EQ(wal.recovery().records, 2u);
  EXPECT_GT(wal.recovery().truncated_bytes, 0u);
  std::vector<std::string> payloads;
  ASSERT_TRUE(wal.replay([&payloads](std::string_view payload) {
                   payloads.emplace_back(payload);
                   return Status::ok();
                 })
                  .is_ok());
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads.back(), "complete-2");
  // The log stays usable after truncation.
  ASSERT_TRUE(wal.append("post-recovery").has_value());
}

TEST(WalTest, CorruptMiddleRecordCutsHistoryThere) {
  TempDir dir("corrupt");
  WalOptions options;
  options.dir = dir.path;
  std::string segment;
  {
    Wal wal;
    ASSERT_TRUE(wal.open(options).is_ok());
    ASSERT_TRUE(wal.append("good").has_value());
    ASSERT_TRUE(wal.append("to-be-corrupted").has_value());
    ASSERT_TRUE(wal.append("after-corruption").has_value());
  }
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    segment = entry.path().string();
  }
  // Flip one payload byte of the middle record (headers are 12 bytes;
  // record 1 payload starts at 12 + 4 + 12 = 28).
  std::FILE* f = std::fopen(segment.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 28 + 3, SEEK_SET);
  std::fputc('X', f);
  std::fclose(f);
  Wal wal;
  ASSERT_TRUE(wal.open(options).is_ok());
  // CRC catches the corruption; everything from that record on is dropped
  // (history must stay a prefix).
  EXPECT_EQ(wal.recovery().records, 1u);
  std::vector<std::string> payloads;
  ASSERT_TRUE(wal.replay([&payloads](std::string_view payload) {
                   payloads.emplace_back(payload);
                   return Status::ok();
                 })
                  .is_ok());
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads.front(), "good");
}

TEST(WalTest, CheckpointDropsSegments) {
  TempDir dir("checkpoint");
  WalOptions options;
  options.dir = dir.path;
  Wal wal;
  ASSERT_TRUE(wal.open(options).is_ok());
  ASSERT_TRUE(wal.append("before").has_value());
  ASSERT_TRUE(wal.checkpoint().is_ok());
  std::size_t replayed = 0;
  ASSERT_TRUE(wal.replay([&replayed](std::string_view) {
                   ++replayed;
                   return Status::ok();
                 })
                  .is_ok());
  EXPECT_EQ(replayed, 0u);
  ASSERT_TRUE(wal.append("after").has_value());
}

TEST(WalTest, Crc32KnownVector) {
  // IEEE CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
}

// -------------------------------------------------------- crash + recovery

TEST(IngestEngineTest, RecoveryRestoresEveryAcknowledgedBatch) {
  TempDir dir("engine_recovery");
  IngestOptions options;
  options.shard_count = 3;
  options.wal_dir = dir.path;
  std::size_t acknowledged = 0;
  {
    IngestEngine engine(options);
    ASSERT_TRUE(engine.open().is_ok());
    for (int b = 0; b < 20; ++b) {
      std::vector<tsdb::Point> batch;
      for (int i = 0; i < 5; ++i) {
        batch.push_back(make_point("cycles", b * 100 + i,
                                   static_cast<double>(b * 5 + i),
                                   "t" + std::to_string(i)));
      }
      ASSERT_TRUE(engine.submit(std::move(batch)).is_ok());
      acknowledged += 5;
    }
    // No flush, no close: simulate the process dying with batches possibly
    // still queued.  The WAL already has them.
  }
  IngestEngine recovered(options);
  ASSERT_TRUE(recovered.open().is_ok());
  EXPECT_EQ(recovered.stats().recovered_points, acknowledged);
  EXPECT_EQ(recovered.point_count(), acknowledged);
  auto result = recovered.query("SELECT count(\"value\") FROM \"cycles\"");
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result->rows[0][1], static_cast<double>(acknowledged));
  recovered.close();
}

TEST(IngestEngineTest, RecoverySurvivesTornLastBatch) {
  TempDir dir("engine_torn");
  IngestOptions options;
  options.shard_count = 2;
  options.wal_dir = dir.path;
  {
    IngestEngine engine(options);
    ASSERT_TRUE(engine.open().is_ok());
    for (int b = 0; b < 10; ++b) {
      ASSERT_TRUE(
          engine.submit({make_point("m", b, static_cast<double>(b))})
              .is_ok());
    }
  }
  // Tear the tail of the (only) segment.
  std::string segment;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    segment = entry.path().string();
  }
  fs::resize_file(segment, fs::file_size(segment) - 3);
  IngestEngine recovered(options);
  ASSERT_TRUE(recovered.open().is_ok());
  // The torn batch is gone, every fully-written one is back.
  EXPECT_EQ(recovered.point_count(), 9u);
  recovered.close();
}

TEST(IngestEngineTest, CheckpointSnapshotsAndRecoveryAvoidsDuplicates) {
  TempDir dir("engine_checkpoint");
  IngestOptions options;
  options.shard_count = 2;
  options.wal_dir = dir.path;
  {
    IngestEngine engine(options);
    ASSERT_TRUE(engine.open().is_ok());
    for (int b = 0; b < 10; ++b) {
      ASSERT_TRUE(engine
                      .submit({make_point("m", b, static_cast<double>(b),
                                          "t" + std::to_string(b % 3))})
                      .is_ok());
    }
    ASSERT_TRUE(engine.checkpoint().is_ok());
    EXPECT_EQ(engine.stats().checkpoints, 1u);
    // The log is truncated down to one fresh, empty segment; the snapshot
    // carries the 10 points.
    EXPECT_EQ(engine.wal().segment_count(), 1u);
    EXPECT_TRUE(fs::exists(fs::path(dir.path) / "checkpoint.lp"));
    // More traffic after the checkpoint lands only in the fresh log.
    for (int b = 10; b < 14; ++b) {
      ASSERT_TRUE(engine
                      .submit({make_point("m", b, static_cast<double>(b))})
                      .is_ok());
    }
    // Crash: no flush, no close.
  }
  IngestEngine recovered(options);
  ASSERT_TRUE(recovered.open().is_ok());
  // Snapshot (10) + replayed tail (4), each exactly once.
  EXPECT_EQ(recovered.point_count(), 14u);
  EXPECT_EQ(recovered.stats().recovered_points, 14u);
  auto result = recovered.query("SELECT count(\"value\") FROM \"m\"");
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->rows[0][1], 14.0);
  recovered.close();
}

TEST(IngestEngineTest, CheckpointAndRecoveryWithPackedRuns) {
  // The checkpoint snapshot is rendered through SeriesViews, so a sink DB
  // whose runs are compressed must dump — and recover — exactly like the
  // raw layout.
  TempDir dir("engine_packed_ckpt");
  IngestOptions options;
  options.shard_count = 1;
  options.wal_dir = dir.path;
  const auto tune = [](tsdb::TimeSeriesDb& db) {
    tsdb::RunConfig rc;
    rc.seal_rows = 128;
    db.set_run_config(rc);
    tsdb::PackConfig pc;
    pc.min_rows = 64;
    db.set_pack_config(pc);
  };
  tsdb::TimeSeriesDb sink;
  tune(sink);
  {
    IngestEngine engine(options, &sink);
    ASSERT_TRUE(engine.open().is_ok());
    std::vector<tsdb::Point> batch;
    for (int i = 0; i < 600; ++i) {
      batch.push_back(make_point("m", i * 10, static_cast<double>(i % 256)));
      if (batch.size() == 100) {
        ASSERT_TRUE(engine.submit(std::move(batch)).is_ok());
        batch.clear();
      }
    }
    ASSERT_TRUE(engine.flush().is_ok());
    sink.compact();
    ASSERT_GT(sink.stats().compressed_runs, 0u);
    ASSERT_TRUE(engine.checkpoint().is_ok());
    // Post-checkpoint tail, then crash (no flush, no close).
    ASSERT_TRUE(engine.submit({make_point("m", 6000, 1.0),
                               make_point("m", 6010, 2.0)})
                    .is_ok());
  }
  tsdb::TimeSeriesDb recovered_sink;
  tune(recovered_sink);
  // External mode: the sink's owner restores the snapshot (open() replays
  // only the post-checkpoint WAL tail).
  ASSERT_TRUE(
      recovered_sink.load_from_file(dir.path + "/checkpoint.lp").is_ok());
  IngestEngine recovered(options, &recovered_sink);
  ASSERT_TRUE(recovered.open().is_ok());
  EXPECT_EQ(recovered.point_count(), 602u);
  auto result =
      recovered.query("SELECT count(\"value\"), sum(\"value\") FROM \"m\"");
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->rows[0][1], 602.0);
  recovered.close();
}

TEST(IngestEngineTest, FlushAutoCheckpointsPastSegmentBudget) {
  TempDir dir("engine_autockpt");
  IngestOptions options;
  options.shard_count = 1;
  options.wal_dir = dir.path;
  options.wal_segment_bytes = 128;  // force rotation every few batches
  options.wal_max_segments = 2;
  IngestEngine engine(options);
  ASSERT_TRUE(engine.open().is_ok());
  for (int b = 0; b < 30; ++b) {
    ASSERT_TRUE(
        engine.submit({make_point("m", b, static_cast<double>(b))}).is_ok());
  }
  ASSERT_GT(engine.wal().segment_count(), 2u);
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_GE(engine.stats().checkpoints, 1u);
  EXPECT_EQ(engine.wal().segment_count(), 1u);  // only the fresh segment
  // Nothing acknowledged was lost to the truncation.
  EXPECT_EQ(engine.point_count(), 30u);
  engine.close();
  IngestEngine recovered(options);
  ASSERT_TRUE(recovered.open().is_ok());
  EXPECT_EQ(recovered.point_count(), 30u);
  recovered.close();
}

TEST(IngestEngineTest, CheckpointWithoutWalIsANoop) {
  IngestEngine engine(IngestOptions{});
  ASSERT_TRUE(engine.open().is_ok());
  ASSERT_TRUE(engine.submit({make_point("m", 1, 1.0)}).is_ok());
  ASSERT_TRUE(engine.checkpoint().is_ok());
  EXPECT_EQ(engine.stats().checkpoints, 0u);
  engine.close();
}

TEST(IngestEngineTest, ExternalModeCheckpointLeavesRestoreToOwner) {
  TempDir dir("engine_external_ckpt");
  tsdb::TimeSeriesDb shared;
  IngestOptions options;
  options.shard_count = 2;
  options.wal_dir = dir.path;
  {
    IngestEngine engine(options, &shared);
    ASSERT_TRUE(engine.open().is_ok());
    for (int b = 0; b < 6; ++b) {
      ASSERT_TRUE(engine
                      .submit({make_point("m", b, static_cast<double>(b))})
                      .is_ok());
    }
    ASSERT_TRUE(engine.checkpoint().is_ok());
    // Snapshot written for disaster recovery, WAL truncated.
    EXPECT_TRUE(fs::exists(fs::path(dir.path) / "checkpoint.lp"));
    EXPECT_EQ(engine.wal().segment_count(), 1u);
    ASSERT_TRUE(
        engine.submit({make_point("m", 6, 6.0)}).is_ok());
    ASSERT_TRUE(engine.flush().is_ok());
    engine.close();
  }
  EXPECT_EQ(shared.point_count(), 7u);
  // A fresh engine over a restored owner DB replays only the tail — the
  // snapshot is NOT auto-loaded, so owner-restored state never doubles.
  tsdb::TimeSeriesDb restored;
  ASSERT_TRUE(restored.load_from_file(
                          (fs::path(dir.path) / "checkpoint.lp").string())
                  .is_ok());
  IngestEngine reopened(options, &restored);
  ASSERT_TRUE(reopened.open().is_ok());
  EXPECT_EQ(restored.point_count(), 7u);  // 6 snapshot + 1 tail, no dupes
  reopened.close();
}

// ------------------------------------------------------------ backpressure

TEST(IngestEngineTest, DropPolicyCountsLossesAndReportsUnavailable) {
  IngestOptions options;
  options.shard_count = 1;
  options.queue_capacity = 1;
  options.policy = BackpressurePolicy::kDrop;
  IngestEngine engine(options);
  ASSERT_TRUE(engine.open().is_ok());
  // Saturate: with a capacity-1 queue and batches of 100 points, some
  // submissions must hit a full queue.
  bool saw_unavailable = false;
  for (int b = 0; b < 200; ++b) {
    std::vector<tsdb::Point> batch;
    for (int i = 0; i < 100; ++i) {
      batch.push_back(
          make_point("m", b * 1000 + i, static_cast<double>(i)));
    }
    Status s = engine.submit(std::move(batch));
    saw_unavailable = saw_unavailable || s.code() == ErrorCode::kUnavailable;
  }
  ASSERT_TRUE(engine.flush().is_ok());
  const IngestStats stats = engine.stats();
  EXPECT_EQ(stats.submitted_points, 20'000u);
  EXPECT_EQ(stats.inserted_points + stats.dropped_points, 20'000u);
  if (stats.dropped_points > 0) {
    EXPECT_TRUE(saw_unavailable);
    EXPECT_EQ(engine.point_count(),
              static_cast<std::size_t>(stats.inserted_points));
  }
  engine.close();
}

TEST(IngestEngineTest, TrySubmitNeverBlocks) {
  IngestOptions options;
  options.shard_count = 1;
  options.queue_capacity = 1;
  options.policy = BackpressurePolicy::kBlock;  // try_submit must override
  IngestEngine engine(options);
  ASSERT_TRUE(engine.open().is_ok());
  int rejected = 0;
  for (int b = 0; b < 100; ++b) {
    std::vector<tsdb::Point> batch;
    for (int i = 0; i < 200; ++i) {
      batch.push_back(make_point("m", b * 1000 + i, 1.0));
    }
    if (!engine.try_submit(std::move(batch)).is_ok()) ++rejected;
  }
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_EQ(engine.stats().inserted_points + engine.stats().dropped_points,
            20'000u);
  engine.close();
}

TEST(IngestEngineTest, ValidationRejectsBadPointsBeforeAck) {
  IngestEngine engine(IngestOptions{});
  ASSERT_TRUE(engine.open().is_ok());
  tsdb::Point no_fields;
  no_fields.measurement = "m";
  EXPECT_EQ(engine.submit({no_fields}).code(), ErrorCode::kInvalidArgument);
  tsdb::Point no_measurement;
  no_measurement.fields["v"] = 1.0;
  EXPECT_EQ(engine.submit({no_measurement}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(engine.stats().submitted_points, 0u);
  engine.close();
}

TEST(IngestEngineTest, BlockModeStressLosesNothing) {
  IngestOptions options;
  options.shard_count = 4;
  options.queue_capacity = 2;  // tiny queues: force constant contention
  options.policy = BackpressurePolicy::kBlock;
  IngestEngine engine(options);
  ASSERT_TRUE(engine.open().is_ok());
  constexpr int kProducers = 8;
  constexpr int kBatches = 50;
  constexpr int kPerBatch = 40;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, p] {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<tsdb::Point> batch;
        batch.reserve(kPerBatch);
        for (int i = 0; i < kPerBatch; ++i) {
          batch.push_back(make_point(
              "stress", (p * kBatches + b) * 100 + i,
              static_cast<double>(i), "producer" + std::to_string(p)));
        }
        ASSERT_TRUE(engine.submit(std::move(batch)).is_ok());
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(engine.flush().is_ok());
  const auto total =
      static_cast<std::size_t>(kProducers) * kBatches * kPerBatch;
  EXPECT_EQ(engine.stats().dropped_points, 0u);
  EXPECT_EQ(engine.stats().inserted_points, total);
  EXPECT_EQ(engine.point_count(), total);
  engine.close();
}

TEST(IngestEngineTest, SpillModeStressLosesNothing) {
  TempDir dir("spill_stress");
  IngestOptions options;
  options.shard_count = 2;
  options.queue_capacity = 1;
  options.policy = BackpressurePolicy::kSpill;
  options.wal_dir = dir.path;
  IngestEngine engine(options);
  ASSERT_TRUE(engine.open().is_ok());
  constexpr int kProducers = 4;
  constexpr int kBatches = 50;
  constexpr int kPerBatch = 25;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, p] {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<tsdb::Point> batch;
        for (int i = 0; i < kPerBatch; ++i) {
          batch.push_back(make_point(
              "spill", (p * kBatches + b) * 100 + i, 1.0,
              "producer" + std::to_string(p)));
        }
        ASSERT_TRUE(engine.submit(std::move(batch)).is_ok());
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(engine.flush().is_ok());
  const auto total =
      static_cast<std::size_t>(kProducers) * kBatches * kPerBatch;
  EXPECT_EQ(engine.stats().dropped_points, 0u);
  EXPECT_EQ(engine.point_count(), total);
  engine.close();
}

TEST(IngestEngineTest, SpillPolicyRequiresWal) {
  IngestOptions options;
  options.policy = BackpressurePolicy::kSpill;
  IngestEngine engine(options);
  EXPECT_EQ(engine.open().code(), ErrorCode::kInvalidArgument);
}

// ------------------------------------------------ adaptive sink deadlines

TEST(IngestEngineTest, AdaptiveSinkDeadlineTracksDeliveryLatency) {
  IngestOptions options;
  options.shard_count = 1;
  IngestEngine engine(options);
  // Cold: no delivery observed yet, so the budget's conservative floor.
  EXPECT_EQ(engine.sink_deadline_ns(0), options.sink_latency_budget.floor_ns);
  ASSERT_TRUE(engine.open().is_ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        engine.write(make_point("cycles", i * 10, static_cast<double>(i)))
            .is_ok());
  }
  ASSERT_TRUE(engine.flush().is_ok());
  // Deliveries happened: the EWMA is live, and a fast in-memory sink stays
  // clamped at the floor (tight budget, no retuning).
  EXPECT_GT(engine.stats().sink_latency_ewma_ns, 0u);
  EXPECT_EQ(engine.sink_deadline_ns(0), options.sink_latency_budget.floor_ns);
  engine.close();
}

TEST(IngestEngineTest, ExplicitSinkDeadlineWinsOverAdaptive) {
  IngestOptions options;
  options.shard_count = 1;
  options.sink_retry.deadline_ns = 123'000'000;
  IngestEngine engine(options);
  EXPECT_EQ(engine.sink_deadline_ns(0), 123'000'000);

  IngestOptions fixed;
  fixed.shard_count = 1;
  fixed.adaptive_sink_deadline = false;
  IngestEngine legacy(fixed);
  EXPECT_EQ(legacy.sink_deadline_ns(0), 0);  // seed behaviour: no deadline
}

// ------------------------------------------------- sampler + external mode

TEST(IngestEngineTest, ExternalModeFrontsSharedDb) {
  tsdb::TimeSeriesDb db;
  IngestOptions options;
  options.shard_count = 2;
  IngestEngine engine(options, &db);
  ASSERT_TRUE(engine.open().is_ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        engine.write(make_point("m", i, static_cast<double>(i))).is_ok());
  }
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_EQ(db.point_count(), 50u);
  EXPECT_EQ(engine.point_count(), 50u);
  engine.close();
}

TEST(IngestEngineTest, SamplingSessionAtThirtyTwoHzLosesNothingInBlockMode) {
  auto machine = topology::machine_preset("skx").value();
  sampler::SessionConfig config;
  config.frequency_hz = 32.0;
  config.metric_count = 6;
  config.duration_s = 5.0;
  config.transport.mode = sampler::BackpressureMode::kBlock;
  IngestOptions options;
  options.shard_count = 4;
  IngestEngine engine(options);
  ASSERT_TRUE(engine.open().is_ok());
  auto stats = sampler::run_sampling_session(machine, config, &engine);
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_EQ(stats.lost(), 0);
  EXPECT_DOUBLE_EQ(stats.loss_pct(), 0.0);
  // Every delivered round became one DB row per metric.
  EXPECT_EQ(engine.point_count(),
            static_cast<std::size_t>(stats.inserted) /
                static_cast<std::size_t>(machine.total_threads()));
  engine.close();
}

TEST(IngestEngineTest, DropModeReproducesTableIIILoss) {
  auto machine = topology::machine_preset("skx").value();
  sampler::SessionConfig config;
  config.frequency_hz = 32.0;
  config.metric_count = 6;
  config.duration_s = 5.0;
  config.transport.mode = sampler::BackpressureMode::kDrop;
  auto stats = sampler::run_sampling_session(machine, config, nullptr);
  EXPECT_GT(stats.loss_plus_zero_pct(), 50.0);
}

TEST(IngestEngineTest, SubmitLinesDecodesOnce) {
  IngestEngine engine(IngestOptions{});
  ASSERT_TRUE(engine.open().is_ok());
  ASSERT_TRUE(engine
                  .submit_lines("cycles,tag=a value=1 100\n"
                                "cycles,tag=b value=2 200\n\n"
                                "instructions value=3 300\n")
                  .is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_EQ(engine.point_count(), 3u);
  EXPECT_EQ(engine.submit_lines("broken line here").code(),
            ErrorCode::kParseError);
  engine.close();
}

}  // namespace
}  // namespace pmove::ingest
