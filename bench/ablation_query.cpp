// Ablation: parallel query execution — inverted tag index + morsel-driven
// evaluator on the shared worker pool.
//
// Before this, every query evaluated on the calling thread and tag filters
// probed each of the measurement's series linearly.  Now multi-filter
// queries intersect per-(tag key, value) posting lists, matching series
// fold in parallel morsels on the shared TaskPool, and the partials merge
// in serial-equivalent order — so the answer is bit-for-bit identical to
// PMOVE_QUERY_THREADS=1 at any thread count.  This ablation sweeps thread
// count x series cardinality over the parallelized query shapes,
// times each against 1 thread, bit-compares every cell against its
// single-thread baseline, checks the index's probe accounting, and writes
// BENCH_query.json in the working directory.
//
// The speedup gate self-scales to the machine (judged at the largest
// swept thread count the hardware can run; skipped on one core) — parity
// and index gates always apply.
//
// Usage: ablation_query [total_points] [repeats]
//        (default 600k/3; series sweep 1k/10k/100k, threads 2/4/8 each
//        against 1)
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "support/query_bench.hpp"
#include "support/report.hpp"

using pmove::bench::Better;

int main(int argc, char** argv) {
  pmove::bench::QueryBenchConfig config;
  if (argc > 1) {
    config.total_points = static_cast<std::size_t>(std::atoll(argv[1]));
  }
  if (argc > 2) config.repeats = std::atoi(argv[2]);
  if (config.total_points == 0 || config.repeats <= 0) {
    std::fprintf(stderr, "usage: ablation_query [total_points] [repeats]\n");
    return 2;
  }
  std::printf("ABLATION: parallel query execution vs single-thread\n\n");
  const auto r = pmove::bench::run_query_bench(config);
  pmove::bench::print_report(r);

  pmove::json::Array series_counts;
  for (const std::size_t s : pmove::bench::kQuerySeriesCounts) {
    series_counts.push_back(static_cast<std::uint64_t>(s));
  }
  pmove::json::Array threads;
  for (const std::size_t t : pmove::bench::kQueryThreads) {
    threads.push_back(static_cast<std::uint64_t>(t));
  }
  pmove::bench::Report report(
      "ablation_query",
      {{"total_points", static_cast<std::uint64_t>(config.total_points)},
       {"repeats", config.repeats},
       {"series_counts", series_counts},
       {"threads", threads}});
  for (const pmove::bench::QueryBenchCell& c : r.cells) {
    const std::string cell = "s" + std::to_string(c.series) + ".t" +
                             std::to_string(c.threads) + ".";
    const auto shape = [&](const std::string& name,
                           pmove::bench::ThreadPair p, const char* rate,
                           const char* unit) {
      report.metric(cell + name + "_" + rate, p.many, unit, Better::kHigher);
      report.metric(cell + name + "_speedup", p.speedup(), "x",
                    Better::kHigher);
    };
    shape("aggregate", c.aggregate, "mps", "Mp/s");
    shape("grouped", c.grouped, "mps", "Mp/s");
    shape("grouped_max", c.grouped_max, "mps", "Mp/s");
    shape("raw", c.raw, "mps", "Mp/s");
    shape("filtered", c.filtered, "qps", "queries/s");
  }

  report.gate("parity", r.parity_ok);
  report.gate("index", r.index_ok);
  if (r.speedup_checked) {
    report.gate("aggregate_speedup_t" + std::to_string(r.gate_threads),
                r.aggregate_speedup, r.gate_floor, Better::kHigher);
  }
  if (!report.write("BENCH_query.json")) return 1;
  std::printf(
      "\nTakeaway: the inverted tag index turns tag-filtered queries from\n"
      "a linear probe of every series into a posting-list intersection\n"
      "(probes bounded by the smallest list), and the morsel-driven\n"
      "evaluator spreads the fold work across the shared pool without\n"
      "moving a single result bit — every aggregate folds into partials\n"
      "that merge exactly, sums included (summed exactly, rounded once).\n"
      "Dashboards get the speedup; parity tests keep the proof.\n");
  return report.passed() ? 0 : 1;
}
