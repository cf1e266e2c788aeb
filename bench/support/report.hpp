// The one schema every bench writes to its BENCH_*.json:
//
//   {
//     "bench": "ablation_storage",
//     "commit": "<git describe of the source tree>",
//     "build_type": "Release",
//     "hardware_threads": 4,
//     "config": { ...the bench's inputs... },
//     "metrics": [{"name", "value", "unit", "better": "higher"|"lower"}],
//     "gates":   [{"name", "value", "bound", "pass"}]
//   }
//
// Metric names are stable across runs, so tools/bench_diff.py can match a
// run against its committed baseline in bench/baselines/ by name.
#pragma once

#include <string>

#include "json/value.hpp"

namespace pmove::bench {

enum class Better { kHigher, kLower };

class Report {
 public:
  Report(std::string bench, json::Object config);

  void metric(std::string name, double value, std::string unit,
              Better better);

  /// Records a gate that passes when `value` is at least `bound`
  /// (Better::kHigher) or at most `bound` (Better::kLower).  A failing gate
  /// prints a GATE FAIL line on stderr.  Returns whether it passed.
  bool gate(std::string name, double value, double bound, Better better);
  /// A pass/fail gate (parity, chaos): value 1 or 0 against bound 1.
  bool gate(std::string name, bool pass);

  /// Every gate recorded so far passed.
  [[nodiscard]] bool passed() const { return passed_; }

  [[nodiscard]] json::Value document() const;

  /// Writes document() to `path` and says so on stdout; on failure prints
  /// why on stderr and returns false.
  bool write(const std::string& path) const;

 private:
  json::Object head_;
  json::Array metrics_;
  json::Array gates_;
  bool passed_ = true;
};

}  // namespace pmove::bench
