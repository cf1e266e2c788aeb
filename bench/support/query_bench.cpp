#include "support/query_bench.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "query/plan.hpp"
#include "query/query.hpp"
#include "support/runner.hpp"
#include "tsdb/db.hpp"
#include "tsdb/point.hpp"
#include "util/task_pool.hpp"

namespace pmove::bench {

namespace {

using query::ExecOptions;
using query::Query;
using query::run;

constexpr TimeNs kCadence = 1'000'000;  // 1 ms between a series' points

/// One measurement, `series` tag sets: a broad tag (shard, 16 values — the
/// posting lists worth intersecting) and a unique tag (uniq — the
/// single-series lookups the index answers without touching the rest).
/// Points interleave across series so sealed runs look like real arrival,
/// then compact() packs everything into sorted base runs.
void build_dataset(tsdb::TimeSeriesDb& db, std::size_t series,
                   std::size_t pts) {
  constexpr std::size_t kBatch = 4096;
  std::vector<tsdb::Point> batch;
  batch.reserve(kBatch);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (std::size_t j = 0; j < pts; ++j) {
    for (std::size_t i = 0; i < series; ++i) {
      tsdb::Point p;
      p.measurement = "bench_q";
      p.tags["shard"] = "s" + std::to_string(i % 16);
      p.tags["uniq"] = "u" + std::to_string(i);
      p.time = static_cast<TimeNs>(j) * kCadence;
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      p.fields["f0"] = static_cast<double>(state >> 11) / 9.0e18;
      p.fields["f1"] = static_cast<double>((state >> 17) & 0xffff);
      batch.push_back(std::move(p));
      if (batch.size() == kBatch) {
        (void)db.write_batch(std::move(batch));
        batch.clear();
        batch.reserve(kBatch);
      }
    }
  }
  if (!batch.empty()) (void)db.write_batch(std::move(batch));
  db.compact();
}

Query parse_or_die(const std::string& text) {
  auto parsed = Query::parse(text);
  return parsed.value();  // bench-internal strings: always valid
}

}  // namespace

QueryBenchResult run_query_bench(const QueryBenchConfig& config) {
  QueryBenchResult r;
  r.config = config;
  const unsigned hw = std::thread::hardware_concurrency();
  r.hardware_threads = hw == 0 ? 1 : hw;

  // Speedup gate scaled to the machine: judge at the largest swept thread
  // count the hardware can actually run, with a floor that grows with it.
  // One usable thread means there is nothing to judge.
  for (const std::size_t t : kQueryThreads) {
    if (t <= r.hardware_threads && t > r.gate_threads) r.gate_threads = t;
  }
  if (r.gate_threads >= 8) {
    r.gate_floor = 3.0;
  } else if (r.gate_threads >= 4) {
    r.gate_floor = 1.6;
  } else if (r.gate_threads >= 2) {
    r.gate_floor = 1.15;
  }
  const std::size_t largest_series = std::end(kQuerySeriesCounts)[-1];

  for (const std::size_t series : kQuerySeriesCounts) {
    const std::size_t pts =
        std::max<std::size_t>(2, config.total_points / series);
    const std::size_t total = series * pts;
    tsdb::TimeSeriesDb db;
    build_dataset(db, series, pts);

    const TimeNs span = static_cast<TimeNs>(pts - 1) * kCadence;
    const TimeNs interval = std::max<TimeNs>(1, span / 64);
    const Query q_agg = parse_or_die(
        R"(SELECT min("f0"), max("f0"), count("f0") FROM "bench_q")");
    const Query q_all8 = parse_or_die(
        R"(SELECT count("f0"), min("f0"), max("f0"), first("f0"), )"
        R"(last("f0"), sum("f0"), mean("f0"), stddev("f0") FROM "bench_q")");
    const Query q_grouped =
        parse_or_die(R"(SELECT mean("f0") FROM "bench_q" GROUP BY time()" +
                     std::to_string(interval) + "ns)");
    const Query q_grouped_max = parse_or_die(
        R"(SELECT max("f0"), count("f0") FROM "bench_q" GROUP BY time()" +
        std::to_string(interval) + "ns)");
    const Query q_raw =
        parse_or_die(R"(SELECT "f0" FROM "bench_q" WHERE time >= 0 )" +
                     ("AND time <= " + std::to_string(span / 10)));
    const auto q_filtered = [](std::size_t k) {
      return parse_or_die(
          R"(SELECT count("f0") FROM "bench_q" WHERE uniq="u)" +
          std::to_string(k) + "\"");
    };

    // Single-thread baselines: the parity reference for every cell.
    util::TaskPool serial(1);
    const ExecOptions serial_opts{.pool = &serial};
    db.set_scan_pool(&serial);
    const auto base_agg = run(db, q_agg, serial_opts);
    const auto base_all8 = run(db, q_all8, serial_opts);
    const auto base_grouped = run(db, q_grouped, serial_opts);
    const auto base_grouped_max = run(db, q_grouped_max, serial_opts);
    const auto base_raw = run(db, q_raw, serial_opts);
    const auto base_filtered = run(db, q_filtered(series / 2), serial_opts);

    for (const std::size_t threads : kQueryThreads) {
      util::TaskPool pool(threads);
      const ExecOptions opts{.pool = &pool};
      db.set_scan_pool(&pool);  // parallel view build rides the same sweep

      QueryBenchCell cell;
      cell.series = series;
      cell.threads = threads;

      cell.parity_ok = base_agg && base_all8 && base_grouped &&
                       base_grouped_max && base_raw && base_filtered;
      const auto check = [&](const Query& q,
                             const Expected<tsdb::QueryResult>& base) {
        const auto got = run(db, q, opts);
        if (!got || !base || !same_result(got.value(), base.value())) {
          cell.parity_ok = false;
        }
      };
      check(q_agg, base_agg);
      check(q_all8, base_all8);
      check(q_grouped, base_grouped);
      check(q_grouped_max, base_grouped_max);
      check(q_raw, base_raw);
      check(q_filtered(series / 2), base_filtered);

      // Index accounting: one unique-tag query must engage the index and
      // probe no more postings than its matching series (exactly one).
      const tsdb::TsdbStats before = db.stats();
      (void)run(db, q_filtered(series - 1), opts);
      const tsdb::TsdbStats after = db.stats();
      if (after.index_scans <= before.index_scans ||
          after.index_probes - before.index_probes > 1) {
        r.index_ok = false;
      }

      // Each side installs its own scan pool, so the view build runs at the
      // side's thread count too.  `per_run` is what one run covers: million
      // points for the scans, queries for the filtered shape.
      const auto pair = [&](double per_run,
                            const std::function<void(const ExecOptions&)>&
                                query) {
        const AbTimes t = run_ab(
            config.repeats,
            [&] {
              db.set_scan_pool(&serial);
              query(serial_opts);
            },
            [&] {
              db.set_scan_pool(&pool);
              query(opts);
            });
        return ThreadPair{per_run / t.a_s, per_run / t.b_s};
      };
      const double points_m = static_cast<double>(total) / 1e6;
      cell.aggregate = pair(points_m, [&](const ExecOptions& o) {
        (void)run(db, q_agg, o);
      });
      cell.grouped = pair(points_m, [&](const ExecOptions& o) {
        (void)run(db, q_grouped, o);
      });
      cell.grouped_max = pair(points_m, [&](const ExecOptions& o) {
        (void)run(db, q_grouped_max, o);
      });
      cell.raw = pair(static_cast<double>(total / 10 + series) / 1e6,
                      [&](const ExecOptions& o) { (void)run(db, q_raw, o); });
      constexpr std::size_t kFilteredPerRun = 32;
      cell.filtered = pair(kFilteredPerRun, [&](const ExecOptions& o) {
        for (std::size_t j = 0; j < kFilteredPerRun; ++j) {
          (void)run(db, q_filtered((j * 127) % series), o);
        }
      });

      if (!cell.parity_ok) r.parity_ok = false;
      if (series == largest_series && threads == r.gate_threads) {
        r.aggregate_speedup = cell.aggregate.speedup();
        r.speedup_checked = true;
      }
      r.cells.push_back(cell);
    }
    db.set_scan_pool(nullptr);
  }
  return r;
}

void print_report(const QueryBenchResult& r) {
  std::printf("parallel query execution: thread x cardinality sweep\n");
  std::printf("(%zu total points, %zu hardware threads; every shape timed "
              "against 1 thread,\n fastest of %d alternating rounds; x = "
              "speedup over 1 thread)\n\n",
              r.config.total_points, r.hardware_threads, r.config.repeats);
  std::printf("%8s %8s %10s %6s %11s %6s %10s %6s %10s %6s %13s %6s %7s\n",
              "series", "threads", "agg Mp/s", "x", "group Mp/s", "x",
              "gmax Mp/s", "x", "raw Mp/s", "x", "filtered q/s", "x",
              "parity");
  for (const QueryBenchCell& c : r.cells) {
    std::printf(
        "%8zu %8zu %10.2f %5.2fx %11.2f %5.2fx %10.2f %5.2fx %10.2f %5.2fx "
        "%13.0f %5.2fx %7s\n",
        c.series, c.threads, c.aggregate.many, c.aggregate.speedup(),
        c.grouped.many, c.grouped.speedup(), c.grouped_max.many,
        c.grouped_max.speedup(), c.raw.many, c.raw.speedup(), c.filtered.many,
        c.filtered.speedup(), c.parity_ok ? "ok" : "FAIL");
  }
  std::printf("\nparity: %s\n", r.parity_ok
                                    ? "every cell bit-for-bit == 1 thread"
                                    : "MISMATCH");
  std::printf("inverted index: %s\n",
              r.index_ok ? "engaged, probes <= matching series"
                         : "PROBE/SELECTIVITY FAIL");
  if (r.speedup_checked) {
    std::printf("aggregate speedup at %zu threads: %.2fx (floor %.2fx)\n",
                r.gate_threads, r.aggregate_speedup, r.gate_floor);
  } else {
    std::printf(
        "aggregate speedup: skipped (%zu hardware thread(s) usable)\n",
        r.hardware_threads);
  }
}

}  // namespace pmove::bench
