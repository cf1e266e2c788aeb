// Incrementally maintained aggregate of one field of one series.
//
// The ingestion engine updates one of these per field per open window of
// every continuous downsampling query, so downsampled series come out of
// O(1) state instead of rescanning raw points.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "query/query.hpp"

namespace pmove::ingest {

struct FieldAggregate {
  std::size_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  /// Welford's running mean and sum of squared deviations from it.  Unlike
  /// the one-pass Σv² − (Σv)²/n, they do not cancel catastrophically when
  /// the mean is large next to the spread.
  double running_mean = 0.0;
  double m2 = 0.0;

  void add(double v) {
    ++count;
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
    const double delta = v - running_mean;
    running_mean += delta / static_cast<double>(count);
    m2 += delta * (v - running_mean);
  }

  /// Based on `sum`, like the evaluator's mean, so an in-order window
  /// matches the raw GROUP BY time() answer.
  [[nodiscard]] double mean() const {
    return count == 0 ? std::nan("") : sum / static_cast<double>(count);
  }

  /// Sample standard deviation, matching the evaluator's stddev().
  [[nodiscard]] double stddev() const {
    if (count < 2) return count == 0 ? std::nan("") : 0.0;
    return std::sqrt(m2 / static_cast<double>(count - 1));
  }

  /// Value of `aggregate`; NaN for empty state and for the aggregates a
  /// continuous query cannot register (none/first/last).
  [[nodiscard]] double value(query::Aggregate aggregate) const {
    if (count == 0) return std::nan("");
    switch (aggregate) {
      case query::Aggregate::kMean:
        return mean();
      case query::Aggregate::kMin:
        return min;
      case query::Aggregate::kMax:
        return max;
      case query::Aggregate::kSum:
        return sum;
      case query::Aggregate::kCount:
        return static_cast<double>(count);
      case query::Aggregate::kStddev:
        return stddev();
      case query::Aggregate::kNone:
      case query::Aggregate::kFirst:
      case query::Aggregate::kLast:
        break;
    }
    return std::nan("");
  }
};

}  // namespace pmove::ingest
