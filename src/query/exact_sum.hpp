// ExactSum: an order-free, mergeable sum of doubles, rounded once.
//
// The accumulator holds the exact real sum of everything added and rounds
// it to the nearest double (ties to even) only when read, so its value
// depends on the multiset of added values alone — not on their order, on
// how they were split into partial sums, or on which thread added which
// part.  This is what lets sum, mean and stddev fold per series, per
// morsel or per bucket and merge afterwards, like min/max/count.
//
// Representation: while every add is exact, the sum is a pair of doubles
// (hi, lo) whose exact sum is the running sum; each add is checked with
// two TwoSum steps.  Integer data below 2^53 and most short runs stay
// there, so a partial costs 24 bytes and no allocation.  The first add
// the pair cannot hold exactly moves the sum into a fixed-point
// superaccumulator in units of 2^-1074 (R. M. Neal, "Fast exact summation
// using small and large superaccumulators", 2015): 67 signed 64-bit
// chunks of 32 bits each, their spare high bits absorbing carries for
// 2^29 adds between carry passes.  Either form holds the same real
// number, so when a sum switches never shows in its value.
//
// value(): the double nearest the exact sum, ties to even; an exact zero
// is +0.0; an exact sum beyond DBL_MAX rounds to ±inf.  Any NaN, or both
// infinities, gives NaN; one infinity sign gives that infinity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace pmove::query {

class ExactSum {
 public:
  ExactSum();
  ~ExactSum();
  ExactSum(const ExactSum& other);
  ExactSum& operator=(const ExactSum& other);
  ExactSum(ExactSum&& other) noexcept;
  ExactSum& operator=(ExactSum&& other) noexcept;

  void add(double v) { add(&v, 1); }
  void add(const double* values, std::size_t n);
  /// Adds fl(fl(v - mean)^2) for each of the n values: the terms of a
  /// stddev's deviation sum, each rounded as written, summed exactly.
  void add_squared_deviations(const double* values, std::size_t n,
                              double mean);
  void merge(const ExactSum& other);

  [[nodiscard]] double value() const;

 private:
  struct Wide;

  void add_one(double v);
  void widen();

  double hi_ = 0.0;
  double lo_ = 0.0;
  std::unique_ptr<Wide> wide_;  ///< null while (hi_, lo_) holds the sum
  std::uint8_t special_ = 0;    ///< NaN / +inf / -inf seen
};

}  // namespace pmove::query
