// Ablation: the seed write path vs the sharded ingest tier.
//
// The seed had every sampler call TimeSeriesDb::write once per point
// against one shared instance.  The ingest engine takes batches on sharded
// queues, and each shard worker bulk-inserts its share into the engine's
// one store with write_batch.  This ablation pushes the same synthetic
// point stream through both, from the same number of concurrent
// producers, checks that both stores end up holding every point, and
// writes the numbers as BENCH_ingest.json in the working directory.
//
// --fault <spec> arms fault injection for the engine phase only (the
// per-point baseline has no resilience tier to exercise): injected sink
// errors show up as throughput degradation, never as lost points — the
// point-count equality check still has to hold.
//
// Usage: ablation_ingest [points] [shards] [batch] [producers]
//                        [--fault <spec>]
//        (default 50k points, min(8, max(2, cores/2)) shards, batch 512,
//         one producer per shard)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "ingest/engine.hpp"
#include "support/report.hpp"
#include "tsdb/db.hpp"

using namespace pmove;
using bench::Better;

namespace {

// Builds one producer's worth of sampler-shaped points.  Each producer owns
// a disjoint set of hosts so the two runs ingest identical series sets.
std::vector<tsdb::Point> producer_stream(std::size_t producer,
                                         std::size_t count) {
  std::vector<tsdb::Point> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tsdb::Point point;
    point.measurement = "hw_UNHALTED_CORE_CYCLES";
    point.tags["host"] = "node" + std::to_string(producer * 16 + i % 16);
    point.time = static_cast<TimeNs>(i) * 1'000'000;
    for (int f = 0; f < 4; ++f) {
      point.fields["_cpu" + std::to_string(f)] =
          static_cast<double>((i * 37 + static_cast<std::size_t>(f)) % 9973);
    }
    stream.push_back(std::move(point));
  }
  return stream;
}

}  // namespace

int main(int argc, char** argv) {
  std::string fault_spec;
  std::vector<char*> args(argv, argv + argc);
  for (std::size_t i = 1; i < args.size();) {
    if (std::strcmp(args[i], "--fault") == 0 && i + 1 < args.size()) {
      fault_spec = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else {
      ++i;
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  // Default kept modest: the seed per-point path degrades quadratically on
  // the interleaved timestamps concurrent producers generate, so large point
  // counts mostly measure that pathology for minutes.
  const std::size_t total = argc > 1
                                ? static_cast<std::size_t>(std::atoll(argv[1]))
                                : 50'000;
  if (total == 0) {
    std::fprintf(stderr,
                 "ablation_ingest: <points> must be a positive number, got "
                 "'%s'\n",
                 argv[1]);
    return 2;
  }
  const int shards = argc > 2
                         ? std::max(1, std::atoi(argv[2]))
                         : static_cast<int>(std::min(
                               8u, std::max(2u,
                                            std::thread::hardware_concurrency() /
                                                2)));
  const std::size_t batch_size =
      argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : 512;
  const std::size_t producers =
      argc > 4 ? std::max<std::size_t>(1, static_cast<std::size_t>(
                                              std::atoll(argv[4])))
               : static_cast<std::size_t>(shards);
  const std::size_t per_producer = total / producers;

  using Clock = std::chrono::steady_clock;

  // Baseline: the seed write path.  Concurrent samplers all call
  // TimeSeriesDb::write once per point against the single shared instance.
  tsdb::TimeSeriesDb baseline_db;
  double base_s = 0.0;
  {
    std::vector<std::vector<tsdb::Point>> streams;
    for (std::size_t p = 0; p < producers; ++p) {
      streams.push_back(producer_stream(p, per_producer));
    }
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&baseline_db, &stream = streams[p]] {
        for (tsdb::Point& point : stream) {
          (void)baseline_db.write(std::move(point));
        }
      });
    }
    for (auto& t : threads) t.join();
    base_s = std::chrono::duration<double>(Clock::now() - start).count();
  }

  // Engine: the same producers hand batches to the sharded ingest tier.
  if (!fault_spec.empty()) {
    if (Status s = fault::arm_from_spec(fault_spec); !s.is_ok()) {
      std::fprintf(stderr, "--fault rejected: %s\n", s.to_string().c_str());
      return 2;
    }
  }
  ingest::IngestOptions options;
  options.shard_count = shards;
  options.queue_capacity = 256;
  options.policy = ingest::BackpressurePolicy::kBlock;
  // Short cooldown so an injected outage costs milliseconds of parking,
  // not the default 250 ms per breaker trip.
  options.sink_breaker.open_cooldown_ns = 20'000'000;
  ingest::IngestEngine engine(options);
  if (auto s = engine.open(); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }
  double engine_s = 0.0;
  {
    std::vector<std::vector<tsdb::Point>> streams;
    for (std::size_t p = 0; p < producers; ++p) {
      streams.push_back(producer_stream(p, per_producer));
    }
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&engine, &stream = streams[p], batch_size] {
        for (std::size_t begin = 0; begin < stream.size();
             begin += batch_size) {
          const std::size_t end = std::min(stream.size(), begin + batch_size);
          std::vector<tsdb::Point> batch(
              std::make_move_iterator(stream.begin() +
                                      static_cast<std::ptrdiff_t>(begin)),
              std::make_move_iterator(stream.begin() +
                                      static_cast<std::ptrdiff_t>(end)));
          (void)engine.submit(std::move(batch));
        }
      });
    }
    for (auto& t : threads) t.join();
    (void)engine.flush();
    engine_s = std::chrono::duration<double>(Clock::now() - start).count();
  }

  if (engine.point_count() != baseline_db.point_count()) {
    std::fprintf(stderr, "point count mismatch: engine %zu vs baseline %zu\n",
                 engine.point_count(), baseline_db.point_count());
    return 1;
  }

  const double written = static_cast<double>(per_producer * producers);
  const double base_tput = written / base_s;
  const double engine_tput = written / engine_s;
  std::printf("points: %zu   shards: %d   batch: %zu   producers: %zu\n",
              per_producer * producers, shards, batch_size, producers);
  std::printf("%-34s %10.2fs %12.0f points/s\n",
              "per-point TimeSeriesDb::write", base_s, base_tput);
  std::printf("%-34s %10.2fs %12.0f points/s\n", "ingest engine (batched)",
              engine_s, engine_tput);
  std::printf("speedup: %.1fx\n", engine_tput / base_tput);
  const auto stats = engine.stats();
  std::printf("engine: %llu batches, max queue depth %zu, %llu blocked\n",
              static_cast<unsigned long long>(stats.submitted_batches),
              stats.max_queue_depth,
              static_cast<unsigned long long>(stats.blocked_submits));
  if (!fault_spec.empty()) {
    std::printf("faults: %llu sink failures -> %llu points parked, "
                "%llu replayed, 0 lost\n",
                static_cast<unsigned long long>(stats.sink_failures),
                static_cast<unsigned long long>(stats.parked_points),
                static_cast<unsigned long long>(stats.replayed_points));
    for (const auto& point : fault::stats()) {
      std::printf("  %-20s %-26s fired %llu of %llu triggers\n",
                  point.name.c_str(), point.spec.to_string().c_str(),
                  static_cast<unsigned long long>(point.fires),
                  static_cast<unsigned long long>(point.triggers));
    }
    fault::disarm_all();
  }
  engine.close();

  bench::Report report(
      "ablation_ingest",
      {{"points", static_cast<std::uint64_t>(per_producer * producers)},
       {"shards", shards},
       {"batch", static_cast<std::uint64_t>(batch_size)},
       {"producers", static_cast<std::uint64_t>(producers)},
       {"fault", fault_spec}});
  report.metric("per_point.points_per_s", base_tput, "points/s",
                Better::kHigher);
  report.metric("engine.points_per_s", engine_tput, "points/s",
                Better::kHigher);
  report.metric("engine.speedup", engine_tput / base_tput, "x",
                Better::kHigher);
  report.metric("engine.max_queue_depth",
                static_cast<double>(stats.max_queue_depth), "batches",
                Better::kLower);
  report.metric("engine.blocked_submits",
                static_cast<double>(stats.blocked_submits), "submits",
                Better::kLower);
  return report.write("BENCH_ingest.json") ? 0 : 1;
}
