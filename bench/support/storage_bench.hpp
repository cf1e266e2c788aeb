// Storage-engine benchmark harness (bench/ablation_storage).
//
// Drives the same multi-tag-set workload through the columnar
// TimeSeriesDb and through an in-harness reimplementation of the seed's
// row store (one time-sorted std::vector<Point> per measurement with the
// seed's validation, wire-byte accounting and tail-sort order restore;
// queries answered by collect-copy + query::execute), then reports
// write/scan/aggregate throughput and estimated resident bytes per point
// for both — plus a mixed phase that interleaves aggregate reads with an
// out-of-order write stream, the LSM write path's worst case.  Every
// columnar-vs-row and packed-vs-raw scan pair is timed by run_ab().
#pragma once

#include <cstddef>

namespace pmove::bench {

/// Alternating rounds per columnar-vs-row scan pair.  The row store's
/// scans take ~10x longer, and the 8x gate has room for five.
inline constexpr int kStorageRounds = 5;
/// Alternating rounds per packed-vs-raw scan pair: both sides are fast and
/// the 0.8 gate is close to their ratio, so the minimum needs more rounds.
inline constexpr int kPackedRounds = 15;

struct StorageBenchConfig {
  std::size_t points = 1'000'000;
  std::size_t tagsets = 64;   ///< distinct (host, core) tag combinations
  std::size_t fields = 4;     ///< fields per point (f0..f<n-1>)
  /// Also run the compression phase: an integral monitoring workload
  /// (flags, counters, small enums — the shapes bit packing eats) written
  /// into a packed and a pack-disabled engine, compared on bytes/point,
  /// scan throughput, and bit-for-bit parity.
  bool packed_phase = false;
};

/// Throughputs are million points scanned (or written) per second; bytes
/// per point count payload structures only (columns + tag dictionary for
/// the columnar engine, Point heap footprint for the row store).
struct StorageBenchResult {
  StorageBenchConfig config;
  double columnar_write_mps = 0.0;
  double row_write_mps = 0.0;
  double columnar_aggregate_mps = 0.0;  ///< full-range multi-aggregate
  double row_aggregate_mps = 0.0;
  double columnar_grouped_mps = 0.0;    ///< GROUP BY time(1s) mean
  double row_grouped_mps = 0.0;
  double columnar_filtered_mps = 0.0;   ///< tag-filtered aggregate
  double row_filtered_mps = 0.0;
  double columnar_bytes_per_point = 0.0;
  double row_bytes_per_point = 0.0;
  bool parity_ok = false;  ///< columnar results matched the row store's

  // Mixed read/write phase: out-of-order arrival stream with aggregate
  // reads interleaved between write batches (fresh stores, same workload
  // values).  Write throughput counts write time only; aggregate
  // throughput counts the interleaved reads only.
  double mixed_columnar_write_mps = 0.0;
  double mixed_row_write_mps = 0.0;
  double mixed_columnar_aggregate_mps = 0.0;
  double mixed_row_aggregate_mps = 0.0;
  /// Every interleaved read pair (and the final full sweep) matched
  /// bit-for-bit between the stores.
  bool mixed_parity_ok = false;

  // Compression phase (config.packed_phase): same integral workload in a
  // packed vs a pack-disabled columnar engine, both fully compacted.
  bool packed_ran = false;
  double packed_bytes_per_point = 0.0;
  double unpacked_bytes_per_point = 0.0;
  double packed_aggregate_mps = 0.0;
  double unpacked_aggregate_mps = 0.0;
  double packed_grouped_mps = 0.0;
  double unpacked_grouped_mps = 0.0;
  double packed_filtered_mps = 0.0;
  double unpacked_filtered_mps = 0.0;
  bool packed_parity_ok = false;

  [[nodiscard]] double aggregate_speedup() const {
    return columnar_aggregate_mps / row_aggregate_mps;
  }
  [[nodiscard]] double compression_ratio() const {
    return unpacked_bytes_per_point / packed_bytes_per_point;
  }
  /// Packed / unpacked aggregate-scan throughput — ≥ ~1.0 means the fold
  /// kernels hide the decode cost entirely.
  [[nodiscard]] double packed_scan_ratio() const {
    return packed_aggregate_mps / unpacked_aggregate_mps;
  }
  [[nodiscard]] double mixed_write_ratio() const {
    return mixed_columnar_write_mps / mixed_row_write_mps;
  }
  [[nodiscard]] double memory_ratio() const {
    return row_bytes_per_point / columnar_bytes_per_point;
  }
};

/// Runs the full comparison.  Cost is dominated by writing `points` twice
/// and scanning each store twice per round per query shape.
StorageBenchResult run_storage_bench(const StorageBenchConfig& config);

/// Human-readable table + parity summary on stdout.
void print_report(const StorageBenchResult& result);

}  // namespace pmove::bench
