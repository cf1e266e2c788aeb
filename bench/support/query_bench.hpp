// Parallel query-execution benchmark harness (bench/ablation_query).
//
// Sweeps thread count x series cardinality over one measurement and times
// the query shapes the morsel-driven evaluator parallelizes: ungrouped
// partial-exact aggregates (min/max/count), grouped mean, grouped
// max/count (per-bucket partials), inverted-index tag-filtered count, and
// bounded raw scans.  Every cell
// times each shape as a run_ab() pair, 1 thread against the cell's thread
// count, and bit-compares every answer against the single-thread one (the
// determinism contract).  The tag-filtered queries check the inverted
// index's probe accounting against the known selectivity.
#pragma once

#include <cstddef>
#include <vector>

namespace pmove::bench {

/// Series cardinalities swept (distinct tag sets in the measurement).
inline constexpr std::size_t kQuerySeriesCounts[] = {1'000, 10'000, 100'000};
/// Evaluator thread counts swept, each paired with 1 thread.
inline constexpr std::size_t kQueryThreads[] = {2, 4, 8};

struct QueryBenchConfig {
  /// Total points per dataset; points per series = total / series count.
  std::size_t total_points = 600'000;
  int repeats = 3;  ///< alternating rounds per 1-thread vs N-thread pair
};

/// One shape of one cell: the fastest 1-thread and N-thread runs of a
/// run_ab() pair, as throughput.
struct ThreadPair {
  double one = 0.0;
  double many = 0.0;
  [[nodiscard]] double speedup() const { return many / one; }
};

/// One (series count, thread count) sweep cell.  Throughputs are million
/// points covered per second (the full dataset for scans); the filtered
/// query reports queries per second — its win is NOT touching the
/// dataset.
struct QueryBenchCell {
  std::size_t series = 0;
  std::size_t threads = 0;
  ThreadPair aggregate;  ///< min/max/count over every row
  ThreadPair grouped;    ///< GROUP BY time() mean
  ThreadPair grouped_max;  ///< GROUP BY time() max + count
  ThreadPair raw;        ///< bounded raw scan (~10% of the range)
  ThreadPair filtered;   ///< single-series tag filter, via the index
  /// Every query shape (plus an all-8-aggregate probe) matched this
  /// dataset's single-thread results bit-for-bit.
  bool parity_ok = false;
};

struct QueryBenchResult {
  QueryBenchConfig config;
  std::vector<QueryBenchCell> cells;
  std::size_t hardware_threads = 0;

  bool parity_ok = true;  ///< every cell matched its 1-thread baseline
  /// Inverted index engaged on every tag-filtered query and probed no more
  /// postings than the matching series count.
  bool index_ok = true;

  // Speedup gate, scaled to the machine: gate_threads is the largest swept
  // thread count that does not oversubscribe the hardware, and the floor
  // grows with it (1 thread usable -> the gate is skipped).
  std::size_t gate_threads = 0;
  double gate_floor = 0.0;
  /// Aggregate-scan speedup at gate_threads vs 1 thread on the largest
  /// series count.
  double aggregate_speedup = 0.0;
  bool speedup_checked = false;
};

/// Runs the sweep.  Cost: one dataset build + compaction per series count,
/// then per cell and shape `repeats` rounds of two runs on each side.
QueryBenchResult run_query_bench(const QueryBenchConfig& config);

/// Human-readable table + parity/index summary on stdout.
void print_report(const QueryBenchResult& result);

}  // namespace pmove::bench
