// Test-only reference for exact sums of doubles.
//
// A sign-magnitude big integer in units of 2^-1074 (the least subnormal)
// holds the exact sum; rounded() rounds it to the nearest double, ties to
// even, by comparing the discarded bits with one half and scaling with
// std::ldexp.  It shares no code with src/query/exact_sum, so the two
// agree only if both are right.  Slow on purpose: every add walks the
// whole integer.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace pmove::testing {

class ReferenceSum {
 public:
  void add(double v) {
    if (std::isnan(v)) {
      nan_ = true;
      return;
    }
    if (std::isinf(v)) {
      (v > 0 ? pos_inf_ : neg_inf_) = true;
      return;
    }
    if (v == 0.0) return;
    // |v| = frac * 2^exp with frac in [0.5, 1): an integer significand of
    // 53 bits times 2^(exp - 53), i.e. times 2^(exp + 1021) units.
    int exp = 0;
    const double frac = std::frexp(std::fabs(v), &exp);
    auto m = static_cast<std::uint64_t>(std::ldexp(frac, 53));
    int shift = exp + 1021;
    if (shift < 0) {  // subnormal: the low bits shifted out are zeros
      m >>= -shift;
      shift = 0;
    }
    // m << (shift % 32) spans at most 85 bits: three limbs.
    Limbs term(static_cast<std::size_t>(shift / 32) + 3, 0);
    const int bit = shift % 32;
    const std::uint64_t low = m << bit;
    const std::uint64_t high = bit == 0 ? 0 : m >> (64 - bit);
    const auto k = static_cast<std::size_t>(shift / 32);
    term[k] = static_cast<std::uint32_t>(low);
    term[k + 1] = static_cast<std::uint32_t>(low >> 32);
    term[k + 2] = static_cast<std::uint32_t>(high);
    const bool negative = v < 0;
    if (is_zero(mag_) || negative == negative_) {
      add_to(mag_, term);
      negative_ = negative;
    } else if (compare(mag_, term) >= 0) {
      sub_from(mag_, term);
    } else {
      sub_from(term, mag_);
      mag_ = std::move(term);
      negative_ = negative;
    }
  }

  void add(std::span<const double> values) {
    for (const double v : values) add(v);
  }

  [[nodiscard]] double rounded() const {
    const double inf = std::numeric_limits<double>::infinity();
    if (nan_ || (pos_inf_ && neg_inf_)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    if (pos_inf_) return inf;
    if (neg_inf_) return -inf;
    const long top = top_bit(mag_);
    if (top < 0) return 0.0;
    double r = 0.0;
    if (top < 53) {
      r = std::ldexp(static_cast<double>(low_bits(mag_, 0, 53)), -1074);
    } else {
      const long shift = top - 52;
      std::uint64_t mant = low_bits(mag_, shift, 53);
      // Discarded bits against one half of the last kept bit.
      Limbs rest = mag_;
      mask_below(rest, shift);
      Limbs half(static_cast<std::size_t>(shift / 32) + 1, 0);
      half[static_cast<std::size_t>((shift - 1) / 32)] = std::uint32_t{1}
                                                        << ((shift - 1) % 32);
      const int c = compare(rest, half);
      if (c > 0 || (c == 0 && (mant & 1) != 0)) ++mant;
      r = std::ldexp(static_cast<double>(mant),
                     static_cast<int>(shift) - 1074);
    }
    return negative_ ? -r : r;
  }

 private:
  using Limbs = std::vector<std::uint32_t>;  // little-endian base 2^32

  static bool is_zero(const Limbs& a) {
    return std::all_of(a.begin(), a.end(),
                       [](std::uint32_t x) { return x == 0; });
  }

  static long top_bit(const Limbs& a) {
    for (std::size_t k = a.size(); k-- > 0;) {
      if (a[k] != 0) {
        return static_cast<long>(32 * k) + 31 -
               static_cast<long>(std::countl_zero(a[k]));
      }
    }
    return -1;
  }

  static int compare(const Limbs& a, const Limbs& b) {
    for (std::size_t k = std::max(a.size(), b.size()); k-- > 0;) {
      const std::uint32_t x = k < a.size() ? a[k] : 0;
      const std::uint32_t y = k < b.size() ? b[k] : 0;
      if (x != y) return x < y ? -1 : 1;
    }
    return 0;
  }

  static void add_to(Limbs& a, const Limbs& b) {
    if (a.size() < b.size()) a.resize(b.size(), 0);
    std::uint64_t carry = 0;
    for (std::size_t k = 0; k < a.size(); ++k) {
      carry += static_cast<std::uint64_t>(a[k]) + (k < b.size() ? b[k] : 0);
      a[k] = static_cast<std::uint32_t>(carry);
      carry >>= 32;
    }
    if (carry != 0) a.push_back(static_cast<std::uint32_t>(carry));
  }

  // a -= b, where a >= b.
  static void sub_from(Limbs& a, const Limbs& b) {
    std::int64_t borrow = 0;
    for (std::size_t k = 0; k < a.size(); ++k) {
      std::int64_t d = static_cast<std::int64_t>(a[k]) - borrow -
                       (k < b.size() ? b[k] : 0);
      borrow = d < 0 ? 1 : 0;
      if (d < 0) d += std::int64_t{1} << 32;
      a[k] = static_cast<std::uint32_t>(d);
    }
  }

  // `count` (<= 64) bits of `a` starting at bit `from`.
  static std::uint64_t low_bits(const Limbs& a, long from, int count) {
    std::uint64_t out = 0;
    for (int i = 0; i < count; ++i) {
      const long bit = from + i;
      const auto k = static_cast<std::size_t>(bit / 32);
      if (k < a.size() && ((a[k] >> (bit % 32)) & 1u) != 0) {
        out |= std::uint64_t{1} << i;
      }
    }
    return out;
  }

  // Keeps only the bits of `a` below bit `bits`.
  static void mask_below(Limbs& a, long bits) {
    for (std::size_t k = 0; k < a.size(); ++k) {
      const long lo = static_cast<long>(32 * k);
      if (lo >= bits) {
        a[k] = 0;
      } else if (lo + 32 > bits) {
        a[k] &= (std::uint32_t{1} << (bits - lo)) - 1;
      }
    }
  }

  Limbs mag_;
  bool negative_ = false;
  bool nan_ = false;
  bool pos_inf_ = false;
  bool neg_inf_ = false;
};

/// The exact sum of `values`, rounded once to the nearest double.
inline double reference_sum(std::span<const double> values) {
  ReferenceSum sum;
  sum.add(values);
  return sum.rounded();
}

}  // namespace pmove::testing
