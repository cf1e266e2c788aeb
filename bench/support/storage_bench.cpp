#include "support/storage_bench.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "query/plan.hpp"
#include "query/query.hpp"
#include "support/runner.hpp"
#include "tsdb/db.hpp"
#include "tsdb/point.hpp"
#include "util/clock.hpp"

namespace pmove::bench {

namespace {

using query::Query;
using query::run;

TimeNs now() { return WallClock().now(); }

double seconds_since(TimeNs start) { return to_seconds(now() - start); }

/// The seed storage model: one time-sorted vector of Points per
/// measurement, reads answered by copying every match out and handing the
/// copies to the shared evaluator — exactly the collect + execute shape
/// TimeSeriesDb::query() had before the columnar engine.  insert() mirrors
/// the seed write path faithfully: batch validation, line-protocol
/// wire-byte accounting per point, and stable tail sort + merge to restore
/// time order after out-of-order arrivals (an in-order append keeps both
/// steps at a linear scan).
class RowStore {
 public:
  Status insert(std::vector<tsdb::Point> batch) {
    for (const tsdb::Point& p : batch) {
      if (p.measurement.empty()) {
        return Status::invalid_argument("point missing measurement");
      }
      if (p.fields.empty()) {
        return Status::invalid_argument("point has no fields");
      }
    }
    std::map<std::string, std::size_t> old_sizes;
    for (tsdb::Point& p : batch) {
      auto& points = rows_[p.measurement];
      old_sizes.emplace(p.measurement, points.size());
      bytes_written_ += p.wire_size();
      points.push_back(std::move(p));
    }
    const auto by_time = [](const tsdb::Point& a, const tsdb::Point& b) {
      return a.time < b.time;
    };
    for (const auto& [measurement, old_size] : old_sizes) {
      auto& points = rows_[measurement];
      const auto tail = points.begin() + static_cast<std::ptrdiff_t>(old_size);
      if (!std::is_sorted(tail, points.end(), by_time)) {
        std::stable_sort(tail, points.end(), by_time);
      }
      if (old_size > 0 && tail->time < points[old_size - 1].time) {
        std::inplace_merge(points.begin(), tail, points.end(), by_time);
      }
    }
    return Status::ok();
  }

  [[nodiscard]] Expected<tsdb::QueryResult> query(const Query& q) const {
    auto it = rows_.find(q.measurement);
    std::vector<tsdb::Point> matches;
    if (it != rows_.end()) {
      for (const tsdb::Point& p : it->second) {
        if (p.time < q.time_min || p.time > q.time_max) continue;
        bool ok = true;
        for (const auto& [key, value] : q.tag_filters) {
          auto tag = p.tags.find(key);
          if (tag == p.tags.end() || tag->second != value) {
            ok = false;
            break;
          }
        }
        if (ok) matches.push_back(p);
      }
    }
    return query::execute(query::make_plan(q), matches);
  }

  /// Estimated heap bytes held per stored point: the Point struct plus its
  /// string/map allocations.  Node and allocation-header sizes follow the
  /// common 64-bit libstdc++ layout (red-black node = 3 pointers + color
  /// word; strings past 15 chars spill to the heap).
  [[nodiscard]] std::size_t resident_bytes() const {
    constexpr std::size_t kMapNode = 32;
    const auto string_heap = [](const std::string& s) {
      return s.size() > 15 ? s.capacity() + 1 : 0;
    };
    std::size_t total = 0;
    for (const auto& [measurement, points] : rows_) {
      total += points.capacity() * sizeof(tsdb::Point);
      for (const tsdb::Point& p : points) {
        total += string_heap(p.measurement);
        for (const auto& [k, v] : p.tags) {
          total += kMapNode + 2 * sizeof(std::string) + string_heap(k) +
                   string_heap(v);
        }
        for (const auto& [k, v] : p.fields) {
          (void)v;
          total += kMapNode + sizeof(std::string) + sizeof(double) +
                   string_heap(k);
        }
      }
    }
    return total;
  }

 private:
  std::map<std::string, std::vector<tsdb::Point>> rows_;
  std::size_t bytes_written_ = 0;
};

std::vector<tsdb::Point> make_workload(const StorageBenchConfig& config) {
  std::vector<tsdb::Point> points;
  points.reserve(config.points);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < config.points; ++i) {
    tsdb::Point p;
    p.measurement = "bench_cpu";
    const std::size_t set = i % config.tagsets;
    p.tags["host"] = "host" + std::to_string(set / 8);
    p.tags["core"] = "core" + std::to_string(set % 8);
    p.time = static_cast<TimeNs>(i) * 1'000'000;  // 1 ms cadence
    for (std::size_t f = 0; f < config.fields; ++f) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      p.fields["f" + std::to_string(f)] =
          static_cast<double>(state >> 11) / 9.0e18;
    }
    points.push_back(std::move(p));
  }
  return points;
}

/// Integral monitoring workload for the compression phase: a 1-bit flag,
/// an 8-bit enum, a 16-bit counter and a 20-bit counter (cycling for
/// higher field counts) — the shapes the bit-width ladder was built for.
/// Same measurement, tag and timestamp scheme as make_workload so the
/// main-phase query strings apply unchanged.
std::vector<tsdb::Point> make_integral_workload(
    const StorageBenchConfig& config) {
  std::vector<tsdb::Point> points;
  points.reserve(config.points);
  std::uint64_t state = 0x853c49e6748fea9bULL;
  constexpr std::uint64_t kMask[4] = {0x1, 0xff, 0xffff, 0xfffff};
  for (std::size_t i = 0; i < config.points; ++i) {
    tsdb::Point p;
    p.measurement = "bench_cpu";
    const std::size_t set = i % config.tagsets;
    p.tags["host"] = "host" + std::to_string(set / 8);
    p.tags["core"] = "core" + std::to_string(set % 8);
    p.time = static_cast<TimeNs>(i) * 1'000'000;  // 1 ms cadence
    for (std::size_t f = 0; f < config.fields; ++f) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      p.fields["f" + std::to_string(f)] =
          static_cast<double>((state >> 17) & kMask[f % 4]);
    }
    points.push_back(std::move(p));
  }
  return points;
}

double mps(std::size_t points, double seconds) {
  return static_cast<double>(points) / seconds / 1e6;
}

/// Mixed phase: one aggregate read on both stores every this many batches.
constexpr std::size_t kMixedReadEvery = 8;

}  // namespace

StorageBenchResult run_storage_bench(const StorageBenchConfig& config) {
  StorageBenchResult result;
  result.config = config;

  const std::vector<tsdb::Point> workload = make_workload(config);
  constexpr std::size_t kBatch = 4096;
  const auto batches_of = [&](auto&& sink) {
    for (std::size_t i = 0; i < workload.size(); i += kBatch) {
      const std::size_t n = std::min(kBatch, workload.size() - i);
      std::vector<tsdb::Point> batch(workload.begin() + i,
                                     workload.begin() + i + n);
      sink(std::move(batch));
    }
  };

  tsdb::TimeSeriesDb columnar;
  {
    const auto start = now();
    batches_of([&](std::vector<tsdb::Point> b) {
      (void)columnar.write_batch(std::move(b));
    });
    result.columnar_write_mps = mps(config.points, seconds_since(start));
  }
  RowStore rows;
  {
    const auto start = now();
    batches_of(
        [&](std::vector<tsdb::Point> b) { (void)rows.insert(std::move(b)); });
    result.row_write_mps = mps(config.points, seconds_since(start));
  }

  // Query shapes: full-range multi-aggregate, grouped mean, tag-filtered
  // aggregate — the dashboard panel mix.
  std::string agg_text = "SELECT ";
  for (std::size_t f = 0; f < config.fields; ++f) {
    if (f > 0) agg_text += ", ";
    agg_text += "mean(\"f" + std::to_string(f) + "\")";
  }
  agg_text += ", max(\"f0\"), stddev(\"f0\") FROM \"bench_cpu\"";
  const Query agg_query = Query::parse(agg_text).value();
  const Query grouped_query =
      Query::parse(
          "SELECT mean(\"f0\") FROM \"bench_cpu\" GROUP BY time(1s)")
          .value();
  // Filter on the highest host id the workload actually generates, so
  // cut-down configurations (tagsets < 32) still select a non-empty set.
  const std::size_t filter_host = (config.tagsets - 1) / 8;
  const Query filtered_query =
      Query::parse(
          "SELECT sum(\"f0\"), count(\"f0\") FROM \"bench_cpu\" "
          "WHERE host='host" +
          std::to_string(filter_host) + "'")
          .value();
  const std::size_t filtered_points = [&] {
    std::size_t n = 0;
    for (std::size_t i = 0; i < config.points; ++i) {
      if ((i % config.tagsets) / 8 == filter_host) ++n;
    }
    return n;
  }();

  result.parity_ok = true;
  const auto bench_pair = [&](const Query& q, std::size_t scanned,
                              double& columnar_mps, double& row_mps) {
    const auto columnar_result = run(columnar, q);
    const auto row_result = rows.query(q);
    if (!columnar_result.has_value() || !row_result.has_value() ||
        !same_result(columnar_result.value(), row_result.value())) {
      result.parity_ok = false;
    }
    const AbTimes t = run_ab(
        kStorageRounds, [&] { (void)run(columnar, q); },
        [&] { (void)rows.query(q); });
    columnar_mps = mps(scanned, t.a_s);
    row_mps = mps(scanned, t.b_s);
  };
  bench_pair(agg_query, config.points, result.columnar_aggregate_mps,
             result.row_aggregate_mps);
  bench_pair(grouped_query, config.points, result.columnar_grouped_mps,
             result.row_grouped_mps);
  bench_pair(filtered_query, filtered_points, result.columnar_filtered_mps,
             result.row_filtered_mps);

  const tsdb::TsdbStats stats = columnar.stats();
  result.columnar_bytes_per_point =
      static_cast<double>(stats.column_bytes + stats.dict_bytes) /
      static_cast<double>(config.points);
  result.row_bytes_per_point = static_cast<double>(rows.resident_bytes()) /
                               static_cast<double>(config.points);

  // ------------------------------------------------- mixed read/write phase
  // Same values, but arrival order shuffled within fixed-size blocks — the
  // stream is out of order within a few batches' distance, so the row store
  // pays its tail sort + merge per batch and the columnar engine exercises
  // the arrival-order active run.  One aggregate read runs on both stores
  // every kMixedReadEvery batches; every read pair must match
  // bit-for-bit (same lazily-restored (time, seq) order on both sides).
  std::vector<tsdb::Point> shuffled = workload;
  std::uint64_t rng = 0x2545F4914F6CDD1DULL;
  constexpr std::size_t kShuffleBlock = 16384;
  for (std::size_t base = 0; base < shuffled.size(); base += kShuffleBlock) {
    const std::size_t n = std::min(kShuffleBlock, shuffled.size() - base);
    for (std::size_t i = n - 1; i > 0; --i) {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(shuffled[base + i], shuffled[base + (rng >> 33) % (i + 1)]);
    }
  }
  tsdb::TimeSeriesDb mixed_columnar;
  RowStore mixed_rows;
  double columnar_write_s = 0.0;
  double row_write_s = 0.0;
  double columnar_read_s = 0.0;
  double row_read_s = 0.0;
  std::size_t scanned = 0;
  std::size_t written = 0;
  std::size_t batch_index = 0;
  result.mixed_parity_ok = true;
  for (std::size_t i = 0; i < shuffled.size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, shuffled.size() - i);
    std::vector<tsdb::Point> a(shuffled.begin() + i,
                               shuffled.begin() + i + n);
    std::vector<tsdb::Point> b(shuffled.begin() + i,
                               shuffled.begin() + i + n);
    auto start = now();
    (void)mixed_columnar.write_batch(std::move(a));
    columnar_write_s += seconds_since(start);
    start = now();
    (void)mixed_rows.insert(std::move(b));
    row_write_s += seconds_since(start);
    written += n;
    ++batch_index;
    if (batch_index % kMixedReadEvery == 0 || written == shuffled.size()) {
      start = now();
      const auto columnar_result = run(mixed_columnar, agg_query);
      columnar_read_s += seconds_since(start);
      start = now();
      const auto row_result = mixed_rows.query(agg_query);
      row_read_s += seconds_since(start);
      scanned += written;
      if (!columnar_result.has_value() || !row_result.has_value() ||
          !same_result(columnar_result.value(), row_result.value())) {
        result.mixed_parity_ok = false;
      }
    }
  }
  // Final sweep over every query shape — the stores must agree after the
  // whole out-of-order stream has landed, however rows are distributed
  // across runs.
  for (const Query* q : {&agg_query, &grouped_query, &filtered_query}) {
    const auto columnar_result = run(mixed_columnar, *q);
    const auto row_result = mixed_rows.query(*q);
    if (!columnar_result.has_value() || !row_result.has_value() ||
        !same_result(columnar_result.value(), row_result.value())) {
      result.mixed_parity_ok = false;
    }
  }
  result.mixed_columnar_write_mps = mps(config.points, columnar_write_s);
  result.mixed_row_write_mps = mps(config.points, row_write_s);
  result.mixed_columnar_aggregate_mps = mps(scanned, columnar_read_s);
  result.mixed_row_aggregate_mps = mps(scanned, row_read_s);

  // ----------------------------------------------------- compression phase
  // Integral workload into two columnar engines — default pack config vs
  // packing disabled — both fully compacted, so the packed engine answers
  // every read through DoD/bit-packed runs and the other through raw
  // columns.  Compared on resident bytes/point, scan throughput per query
  // shape, and bit-for-bit result parity.
  if (config.packed_phase) {
    result.packed_ran = true;
    const std::vector<tsdb::Point> integral = make_integral_workload(config);
    tsdb::TimeSeriesDb packed_db;
    tsdb::TimeSeriesDb raw_db;
    tsdb::PackConfig pack_off = packed_db.pack_config();
    pack_off.enabled = false;
    raw_db.set_pack_config(pack_off);
    for (std::size_t i = 0; i < integral.size(); i += kBatch) {
      const std::size_t n = std::min(kBatch, integral.size() - i);
      std::vector<tsdb::Point> a(integral.begin() + i,
                                 integral.begin() + i + n);
      std::vector<tsdb::Point> b(integral.begin() + i,
                                 integral.begin() + i + n);
      (void)packed_db.write_batch(std::move(a));
      (void)raw_db.write_batch(std::move(b));
    }
    packed_db.compact();
    raw_db.compact();
    const tsdb::TsdbStats packed_stats = packed_db.stats();
    const tsdb::TsdbStats raw_stats = raw_db.stats();
    result.packed_bytes_per_point =
        static_cast<double>(packed_stats.column_bytes +
                            packed_stats.dict_bytes) /
        static_cast<double>(config.points);
    result.unpacked_bytes_per_point =
        static_cast<double>(raw_stats.column_bytes + raw_stats.dict_bytes) /
        static_cast<double>(config.points);
    result.packed_parity_ok = packed_stats.compressed_runs > 0;
    const auto bench_packed_pair = [&](const Query& q, std::size_t points,
                                       double& packed_mps,
                                       double& unpacked_mps) {
      const auto packed_result = run(packed_db, q);
      const auto raw_result = run(raw_db, q);
      if (!packed_result.has_value() || !raw_result.has_value() ||
          !same_result(packed_result.value(), raw_result.value())) {
        result.packed_parity_ok = false;
      }
      const AbTimes t = run_ab(
          kPackedRounds, [&] { (void)run(packed_db, q); },
          [&] { (void)run(raw_db, q); });
      packed_mps = mps(points, t.a_s);
      unpacked_mps = mps(points, t.b_s);
    };
    bench_packed_pair(agg_query, config.points, result.packed_aggregate_mps,
                      result.unpacked_aggregate_mps);
    bench_packed_pair(grouped_query, config.points, result.packed_grouped_mps,
                      result.unpacked_grouped_mps);
    bench_packed_pair(filtered_query, filtered_points,
                      result.packed_filtered_mps,
                      result.unpacked_filtered_mps);
  }
  return result;
}

void print_report(const StorageBenchResult& r) {
  std::printf("storage engine: columnar vs seed row store\n");
  std::printf("(%zu points, %zu tag sets, %zu fields; scans: fastest of %d "
              "alternating rounds, %d for packed vs raw)\n\n",
              r.config.points, r.config.tagsets, r.config.fields,
              kStorageRounds, kPackedRounds);
  std::printf("%-24s %14s %14s %9s\n", "workload", "columnar", "row store",
              "speedup");
  const auto line = [](const char* name, double columnar, double row,
                       const char* unit) {
    std::printf("%-24s %11.2f %s %11.2f %s %8.1fx\n", name, columnar, unit,
                row, unit, columnar / row);
  };
  line("write", r.columnar_write_mps, r.row_write_mps, "Mp/s");
  line("aggregate scan", r.columnar_aggregate_mps, r.row_aggregate_mps,
       "Mp/s");
  line("grouped (1s buckets)", r.columnar_grouped_mps, r.row_grouped_mps,
       "Mp/s");
  line("tag-filtered", r.columnar_filtered_mps, r.row_filtered_mps, "Mp/s");
  line("mixed write (o-o-o)", r.mixed_columnar_write_mps,
       r.mixed_row_write_mps, "Mp/s");
  line("mixed aggregate", r.mixed_columnar_aggregate_mps,
       r.mixed_row_aggregate_mps, "Mp/s");
  std::printf("%-24s %11.1f B/pt %11.1f B/pt %8.1fx\n", "resident memory",
              r.columnar_bytes_per_point, r.row_bytes_per_point,
              r.memory_ratio());
  std::printf("\nresult parity: %s\n",
              r.parity_ok ? "bit-for-bit identical" : "MISMATCH");
  std::printf("mixed-phase parity: %s\n",
              r.mixed_parity_ok ? "bit-for-bit identical" : "MISMATCH");
  if (r.packed_ran) {
    std::printf("\ncompression: packed vs raw columns (integral workload)\n");
    std::printf("%-24s %14s %14s %9s\n", "workload", "packed", "raw cols",
                "ratio");
    line("aggregate scan", r.packed_aggregate_mps, r.unpacked_aggregate_mps,
         "Mp/s");
    line("grouped (1s buckets)", r.packed_grouped_mps, r.unpacked_grouped_mps,
         "Mp/s");
    line("tag-filtered", r.packed_filtered_mps, r.unpacked_filtered_mps,
         "Mp/s");
    std::printf("%-24s %11.2f B/pt %11.2f B/pt %8.1fx\n", "resident memory",
                r.packed_bytes_per_point, r.unpacked_bytes_per_point,
                r.compression_ratio());
    std::printf("packed parity: %s\n",
                r.packed_parity_ok ? "bit-for-bit identical" : "MISMATCH");
  }
}

}  // namespace pmove::bench
