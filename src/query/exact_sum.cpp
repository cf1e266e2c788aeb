#include "query/exact_sum.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

namespace pmove::query {

namespace {

constexpr std::uint8_t kNaN = 1;
constexpr std::uint8_t kPosInf = 2;
constexpr std::uint8_t kNegInf = 4;

constexpr std::uint64_t kFracMask = (std::uint64_t{1} << 52) - 1;
constexpr std::uint64_t kHiddenBit = std::uint64_t{1} << 52;
constexpr std::uint64_t kInfBits = 0x7FF0000000000000;

// (hi + lo) + v as a new pair (s, t), by two of Knuth's TwoSum steps:
// hi + v = s + e and lo + e = t + e2, each error exact.  Returns e2, so
// the pair holds the sum exactly iff it returns zero.  An overflow or a
// non-finite operand makes e2 NaN, which fails the test as well.
inline double pair_step(double hi, double lo, double v, double& s,
                        double& t) {
  s = hi + v;
  const double bv = s - hi;
  const double e = (hi - (s - bv)) + (v - bv);
  t = lo + e;
  const double be = t - lo;
  return (lo - (t - be)) + (e - be);
}

}  // namespace

// Fixed-point sum in units of 2^-1074, the weight of the least subnormal:
// chunk k weighs 2^(32k) units.  A finite double spans at most bits 0 to
// 2097, so an add touches chunks 0 to 65; chunk 66 only takes carries.
// Between carry passes every chunk but the top one stays below
// (1 + pending) * 2^32 in magnitude.
struct ExactSum::Wide {
  static constexpr std::size_t kChunks = 67;
  static constexpr std::uint32_t kCarryEvery = std::uint32_t{1} << 29;

  std::array<std::int64_t, kChunks> chunk{};
  std::uint32_t pending = 0;  ///< adds since the last carry pass

  /// Adds a finite double.
  void add(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    const auto biased = static_cast<unsigned>(bits >> 52) & 0x7FFu;
    std::uint64_t mant = bits & kFracMask;
    if (biased != 0) {
      mant |= kHiddenBit;
    } else if (mant == 0) {
      return;  // ±0
    }
    // Weight of mant's lowest bit: 2^low units.
    const unsigned low = biased == 0 ? 0 : biased - 1;
    const std::size_t k = low >> 5;
    const unsigned shift = low & 31u;
    const std::uint64_t w0 = mant << shift;
    const std::uint64_t w1 = shift == 0 ? 0 : mant >> (64 - shift);
    const auto c0 = static_cast<std::int64_t>(w0 & 0xFFFFFFFFu);
    const auto c1 = static_cast<std::int64_t>(w0 >> 32);
    const auto c2 = static_cast<std::int64_t>(w1);
    if ((bits >> 63) != 0) {
      chunk[k] -= c0;
      chunk[k + 1] -= c1;
      chunk[k + 2] -= c2;
    } else {
      chunk[k] += c0;
      chunk[k + 1] += c1;
      chunk[k + 2] += c2;
    }
    if (++pending == kCarryEvery) carry();
  }

  void merge(const Wide& other) {
    for (std::size_t k = 0; k < kChunks; ++k) chunk[k] += other.chunk[k];
    pending += other.pending + 1;
    if (pending >= kCarryEvery) carry();
  }

  /// Brings every chunk but the top one into [0, 2^32).
  void carry() {
    std::int64_t c = 0;
    for (std::size_t k = 0; k + 1 < kChunks; ++k) {
      const std::int64_t x = chunk[k] + c;
      c = x >> 32;  // floor division: C++20 shifts signed values arithmetically
      chunk[k] = x & 0xFFFFFFFF;
    }
    chunk[kChunks - 1] += c;
    pending = 0;
  }

  [[nodiscard]] double value() const {
    Wide w = *this;
    w.carry();
    const bool negative = w.chunk[kChunks - 1] < 0;
    if (negative) {
      for (std::int64_t& c : w.chunk) c = -c;
      w.carry();
    }
    std::size_t top = kChunks - 1;
    while (top > 0 && w.chunk[top] == 0) --top;
    if (w.chunk[top] == 0) return 0.0;
    const double inf = std::numeric_limits<double>::infinity();
    // Bit 2098 (chunk 65, bit 18) and above weigh at least 2^1024.
    if (top > 65 || (top == 65 && w.chunk[65] >= (std::int64_t{1} << 18))) {
      return negative ? -inf : inf;
    }
    const auto at = [&w](std::size_t k) {
      return k < kChunks ? static_cast<std::uint64_t>(w.chunk[k]) : 0;
    };
    // Position of the highest set bit.
    const std::size_t p =
        32 * top + static_cast<std::size_t>(std::bit_width(at(top))) - 1;
    std::uint64_t bits = 0;
    if (p <= 52) {
      // Below 2^53 units the sum is a subnormal or the least binade, and
      // its unit count is its bit pattern.
      bits = at(0) | (at(1) << 32);
    } else {
      // 53 significant bits [p - 52, p], the round bit below them, and a
      // sticky bit for everything lower; then round to nearest, ties to
      // even.  A carry out of the significand moves into the exponent
      // field, and past the top binade into the infinity pattern.
      const std::size_t r = p - 53;
      const std::size_t k = r >> 5;
      const unsigned s = r & 31u;
      const std::uint64_t window = ((at(k) | (at(k + 1) << 32)) >> s) |
                                   (s == 0 ? 0 : at(k + 2) << (64 - s));
      std::uint64_t mant = window >> 1;
      bool sticky = (at(k) & ((std::uint64_t{1} << s) - 1)) != 0;
      for (std::size_t j = 0; j < k && !sticky; ++j) sticky = at(j) != 0;
      if ((window & 1) != 0 && (sticky || (mant & 1) != 0)) ++mant;
      bits = std::min(
          kInfBits, (static_cast<std::uint64_t>(r + 1) << 52) + mant);
    }
    const double d = std::bit_cast<double>(bits);
    return negative ? -d : d;
  }
};

ExactSum::ExactSum() = default;
ExactSum::~ExactSum() = default;
ExactSum::ExactSum(ExactSum&& other) noexcept = default;
ExactSum& ExactSum::operator=(ExactSum&& other) noexcept = default;

ExactSum::ExactSum(const ExactSum& other)
    : hi_(other.hi_),
      lo_(other.lo_),
      wide_(other.wide_ != nullptr ? std::make_unique<Wide>(*other.wide_)
                                   : nullptr),
      special_(other.special_) {}

ExactSum& ExactSum::operator=(const ExactSum& other) {
  if (this != &other) *this = ExactSum(other);
  return *this;
}

void ExactSum::add(const double* values, std::size_t n) {
  // Runs fold into the pair with one exactness test per run; a run that
  // fails it is replayed value by value from the state before it.
  constexpr std::size_t kRun = 256;
  std::size_t i = 0;
  while (i < n && wide_ == nullptr) {
    const std::size_t end = std::min(n, i + kRun);
    double hi = hi_;
    double lo = lo_;
    bool exact = true;
    for (std::size_t j = i; j < end; ++j) {
      double s = 0.0;
      double t = 0.0;
      exact &= pair_step(hi, lo, values[j], s, t) == 0.0;
      hi = s;
      lo = t;
    }
    if (exact) {
      hi_ = hi;
      lo_ = lo;
      i = end;
      continue;
    }
    for (; i < end; ++i) add_one(values[i]);
  }
  for (; i < n; ++i) add_one(values[i]);
}

void ExactSum::add_squared_deviations(const double* values, std::size_t n,
                                      double mean) {
  constexpr std::size_t kBlock = 256;
  double squares[kBlock];
  for (std::size_t i = 0; i < n; i += kBlock) {
    const std::size_t m = std::min(kBlock, n - i);
    for (std::size_t j = 0; j < m; ++j) {
      const double d = values[i + j] - mean;
      squares[j] = d * d;
    }
    add(squares, m);
  }
}

void ExactSum::add_one(double v) {
  if (!std::isfinite(v)) {
    special_ |= std::isnan(v) ? kNaN : v > 0 ? kPosInf : kNegInf;
    return;
  }
  if (wide_ == nullptr) {
    double s = 0.0;
    double t = 0.0;
    if (pair_step(hi_, lo_, v, s, t) == 0.0) {
      hi_ = s;
      lo_ = t;
      return;
    }
    widen();
  }
  wide_->add(v);
}

void ExactSum::widen() {
  wide_ = std::make_unique<Wide>();
  wide_->add(hi_);
  wide_->add(lo_);
  hi_ = 0.0;
  lo_ = 0.0;
}

void ExactSum::merge(const ExactSum& other) {
  special_ |= other.special_;
  if (other.wide_ != nullptr) {
    if (wide_ == nullptr) widen();
    wide_->merge(*other.wide_);
    return;
  }
  if (other.hi_ != 0.0) add_one(other.hi_);
  if (other.lo_ != 0.0) add_one(other.lo_);
}

double ExactSum::value() const {
  constexpr std::uint8_t kBothInf = kPosInf | kNegInf;
  if ((special_ & kNaN) != 0 || (special_ & kBothInf) == kBothInf) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (special_ != 0) {
    const double inf = std::numeric_limits<double>::infinity();
    return (special_ & kPosInf) != 0 ? inf : -inf;
  }
  if (wide_ != nullptr) return wide_->value();
  // The pair's exact sum, rounded once by the addition itself.
  const double sum = hi_ + lo_;
  return sum == 0.0 ? 0.0 : sum;
}

}  // namespace pmove::query
