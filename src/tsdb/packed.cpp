#include "tsdb/packed.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace pmove::tsdb {
namespace {

// All delta arithmetic is wrapping uint64 so INT64_MIN..INT64_MAX
// endpoints round-trip (signed overflow would be UB).
std::uint64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b);
}

std::uint64_t zigzag(std::uint64_t v) {
  return (v << 1) ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(v) >> 63);
}

std::uint64_t unzigzag(std::uint64_t z) {
  return (z >> 1) ^ (~(z & 1) + 1);
}

bool env_flag(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const std::string_view v(raw);
  return !(v == "0" || v == "false" || v == "off" || v == "no");
}

std::size_t env_rows(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  if (end == raw) return fallback;
  return static_cast<std::size_t>(v);
}

}  // namespace

// --- PackedInts -------------------------------------------------------------

std::uint8_t PackedInts::width_for(std::uint64_t range) {
  if (range == 0) return 0;
  if (range < (1ull << 1)) return 1;
  if (range < (1ull << 2)) return 2;
  if (range < (1ull << 4)) return 4;
  if (range < (1ull << 8)) return 8;
  if (range < (1ull << 16)) return 16;
  if (range < (1ull << 32)) return 32;
  return 64;
}

PackedInts PackedInts::pack(std::span<const std::int64_t> values) {
  PackedInts out;
  out.rows = static_cast<std::uint32_t>(values.size());
  if (values.empty()) return out;
  std::int64_t lo = values[0];
  std::int64_t hi = values[0];
  for (const std::int64_t v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  out.base = lo;
  out.width = width_for(wrap_sub(hi, lo));
  if (out.width == 0) return out;
  out.words.assign((values.size() * out.width + 63) / 64, 0);
  BitWriter w(out.words);
  for (const std::int64_t v : values) w.put(wrap_sub(v, lo), out.width);
  return out;
}

namespace {

// Lanes of width W never straddle words (W divides 64): whole words decode
// with constant shifts, one load per 64 / W lanes.
template <unsigned W>
void unpack_lanes(const std::uint64_t* words, std::uint64_t base,
                  std::size_t begin, std::size_t end, std::int64_t* out) {
  constexpr std::size_t kPerWord = 64 / W;
  constexpr std::uint64_t kMask = (std::uint64_t{1} << W) - 1;
  const auto lane = [&](std::size_t i) {
    return static_cast<std::int64_t>(
        base + ((words[i / kPerWord] >> (i % kPerWord * W)) & kMask));
  };
  std::size_t i = begin;
  for (; i < end && i % kPerWord != 0; ++i) *out++ = lane(i);
  for (; i + kPerWord <= end; i += kPerWord) {
    const std::uint64_t word = words[i / kPerWord];
    for (std::size_t k = 0; k < kPerWord; ++k) {
      out[k] = static_cast<std::int64_t>(base + ((word >> (k * W)) & kMask));
    }
    out += kPerWord;
  }
  for (; i < end; ++i) *out++ = lane(i);
}

}  // namespace

void PackedInts::unpack(std::size_t begin, std::size_t end,
                        std::int64_t* out) const {
  const auto b = static_cast<std::uint64_t>(base);
  switch (width) {
    case 0:
      std::fill(out, out + (end - begin), base);
      return;
    case 1:
      return unpack_lanes<1>(words.data(), b, begin, end, out);
    case 2:
      return unpack_lanes<2>(words.data(), b, begin, end, out);
    case 4:
      return unpack_lanes<4>(words.data(), b, begin, end, out);
    case 8:
      return unpack_lanes<8>(words.data(), b, begin, end, out);
    case 16:
      return unpack_lanes<16>(words.data(), b, begin, end, out);
    case 32:
      return unpack_lanes<32>(words.data(), b, begin, end, out);
    default:  // 64
      for (std::size_t i = begin; i < end; ++i) {
        *out++ = static_cast<std::int64_t>(b + words[i]);
      }
      return;
  }
}

// --- DodColumn --------------------------------------------------------------

namespace {

void dod_put(BitWriter& w, std::uint64_t dod) {
  const std::uint64_t zz = zigzag(dod);
  if (zz == 0) {
    w.put(0, 1);
  } else if (zz < (1ull << 7)) {
    w.put(1, 1);
    w.put(0, 1);
    w.put(zz, 7);
  } else if (zz < (1ull << 9)) {
    w.put(1, 1);
    w.put(1, 1);
    w.put(0, 1);
    w.put(zz, 9);
  } else if (zz < (1ull << 12)) {
    w.put(1, 1);
    w.put(1, 1);
    w.put(1, 1);
    w.put(0, 1);
    w.put(zz, 12);
  } else if (zz < (1ull << 32)) {
    w.put(1, 1);
    w.put(1, 1);
    w.put(1, 1);
    w.put(1, 1);
    w.put(0, 1);
    w.put(zz, 32);
  } else {
    w.put(1, 1);
    w.put(1, 1);
    w.put(1, 1);
    w.put(1, 1);
    w.put(1, 1);
    w.put(zz, 64);
  }
}

std::uint64_t dod_get(BitReader& r) {
  if (r.get(1) == 0) return 0;
  if (r.get(1) == 0) return unzigzag(r.get(7));
  if (r.get(1) == 0) return unzigzag(r.get(9));
  if (r.get(1) == 0) return unzigzag(r.get(12));
  if (r.get(1) == 0) return unzigzag(r.get(32));
  return unzigzag(r.get(64));
}

// Walks the rows of one block in order, calling fn(row, value) until it
// returns true; returns that row, or the block's end when it never does.
template <class Fn>
std::size_t walk_block(const DodColumn& col, std::size_t block, Fn&& fn) {
  const std::size_t start = block * DodColumn::kBlockRows;
  const std::size_t stop =
      std::min<std::size_t>(col.rows, start + DodColumn::kBlockRows);
  BitReader r(col.words.data(), col.blocks[block].bit);
  auto v = static_cast<std::uint64_t>(col.blocks[block].first);
  std::uint64_t delta = 0;
  if (fn(start, static_cast<std::int64_t>(v))) return start;
  for (std::size_t i = start + 1; i < stop;) {
    // A run of '0' codes repeats the previous delta (a fixed cadence).
    for (std::size_t k = r.zero_run(stop - i); k > 0; --k, ++i) {
      v += delta;
      if (fn(i, static_cast<std::int64_t>(v))) return i;
    }
    if (i == stop) break;
    delta += dod_get(r);
    v += delta;
    if (fn(i, static_cast<std::int64_t>(v))) return i;
    ++i;
  }
  return stop;
}

}  // namespace

DodColumn DodColumn::pack(std::span<const std::int64_t> values) {
  DodColumn out;
  out.rows = static_cast<std::uint32_t>(values.size());
  if (values.empty()) return out;
  BitWriter w(out.words);
  for (std::size_t start = 0; start < values.size(); start += kBlockRows) {
    const std::size_t stop = std::min(values.size(), start + kBlockRows);
    // prev_delta resets at every block boundary so blocks decode
    // independently of one another.
    std::int64_t prev = values[start];
    std::uint64_t prev_delta = 0;
    out.blocks.push_back({prev, w.bit_count()});
    for (std::size_t i = start + 1; i < stop; ++i) {
      const std::uint64_t delta = wrap_sub(values[i], prev);
      dod_put(w, delta - prev_delta);
      prev = values[i];
      prev_delta = delta;
    }
  }
  out.words.shrink_to_fit();
  return out;
}

void DodColumn::unpack(std::size_t begin, std::size_t end,
                       std::int64_t* out) const {
  for (std::size_t block = begin / kBlockRows; block * kBlockRows < end;
       ++block) {
    walk_block(*this, block, [&](std::size_t i, std::int64_t v) {
      if (i >= end) return true;
      if (i >= begin) *out++ = v;
      return false;
    });
  }
}

std::size_t DodColumn::lower_bound(std::int64_t t) const {
  if (rows == 0) return 0;
  // Last block whose first value is < t; every later block starts >= t.
  const auto it = std::partition_point(
      blocks.begin(), blocks.end(),
      [t](const Block& b) { return b.first < t; });
  if (it == blocks.begin()) return 0;
  const std::size_t block = static_cast<std::size_t>(it - blocks.begin()) - 1;
  return walk_block(*this, block,
                    [t](std::size_t, std::int64_t v) { return v >= t; });
}

std::size_t DodColumn::upper_bound(std::int64_t t) const {
  if (rows == 0) return 0;
  const auto it = std::partition_point(
      blocks.begin(), blocks.end(),
      [t](const Block& b) { return b.first <= t; });
  if (it == blocks.begin()) return 0;
  const std::size_t block = static_cast<std::size_t>(it - blocks.begin()) - 1;
  return walk_block(*this, block,
                    [t](std::size_t, std::int64_t v) { return v > t; });
}

// --- PackedBits -------------------------------------------------------------

PackedBits PackedBits::pack(std::span<const std::uint8_t> bytes) {
  PackedBits out;
  out.rows = static_cast<std::uint32_t>(bytes.size());
  out.words.assign((bytes.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] != 0) out.words[i >> 6] |= 1ull << (i & 63);
  }
  return out;
}

// --- XorColumn --------------------------------------------------------------

XorColumn XorColumn::pack(std::span<const double> values) {
  XorColumn out;
  out.rows = static_cast<std::uint32_t>(values.size());
  if (values.empty()) return out;
  BitWriter w(out.words);
  for (std::size_t start = 0; start < values.size(); start += kBlockRows) {
    const std::size_t stop = std::min(values.size(), start + kBlockRows);
    std::uint64_t prev = std::bit_cast<std::uint64_t>(values[start]);
    out.blocks.push_back({prev, w.bit_count()});
    // The (lz, len) window resets per block, like prev_delta in DodColumn.
    unsigned win_lz = 0;
    unsigned win_len = 0;
    for (std::size_t i = start + 1; i < stop; ++i) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(values[i]);
      const std::uint64_t x = bits ^ prev;
      prev = bits;
      if (x == 0) {
        w.put(0, 1);
        continue;
      }
      const unsigned lz = std::min(31, std::countl_zero(x));
      const unsigned tz = static_cast<unsigned>(std::countr_zero(x));
      const unsigned len = 64 - lz - tz;
      if (win_len != 0 && lz >= win_lz && tz >= 64 - win_lz - win_len) {
        // Fits the previous window: '10' + the window's meaningful bits.
        w.put(1, 1);
        w.put(0, 1);
        w.put(x >> (64 - win_lz - win_len), win_len);
      } else {
        // New window: '11' + 5-bit lz + 6-bit (len-1) + the bits.
        w.put(1, 1);
        w.put(1, 1);
        w.put(lz, 5);
        w.put(len - 1, 6);
        w.put(x >> tz, len);
        win_lz = lz;
        win_len = len;
      }
    }
  }
  out.words.shrink_to_fit();
  return out;
}

void XorColumn::unpack(std::size_t begin, std::size_t end, double* out) const {
  for (std::size_t block = begin / kBlockRows; block * kBlockRows < end;
       ++block) {
    const std::size_t start = block * kBlockRows;
    const std::size_t stop = std::min<std::size_t>(rows, start + kBlockRows);
    BitReader r(words.data(), blocks[block].bit);
    std::uint64_t v = blocks[block].first;
    unsigned win_lz = 0;
    unsigned win_len = 0;
    for (std::size_t i = start; i < stop; ++i) {
      if (i > start && r.get(1) != 0) {
        if (r.get(1) == 0) {
          v ^= r.get(win_len) << (64 - win_lz - win_len);
        } else {
          win_lz = static_cast<unsigned>(r.get(5));
          win_len = static_cast<unsigned>(r.get(6)) + 1;
          const unsigned tz = 64 - win_lz - win_len;
          v ^= r.get(win_len) << tz;
        }
      }
      if (i >= begin && i < end) *out++ = std::bit_cast<double>(v);
    }
  }
}

// --- PackedColumn / PackedRun ----------------------------------------------

void PackedColumn::unpack(std::size_t begin, std::size_t end,
                          double* out) const {
  switch (encoding) {
    case Encoding::kRaw:
      std::copy(raw.begin() + static_cast<std::ptrdiff_t>(begin),
                raw.begin() + static_cast<std::ptrdiff_t>(end), out);
      break;
    case Encoding::kXor:
      xors.unpack(begin, end, out);
      break;
    case Encoding::kInt: {
      constexpr std::size_t kBlock = 512;
      std::int64_t buf[kBlock];
      for (std::size_t i = begin; i < end; i += kBlock) {
        const std::size_t n = std::min(kBlock, end - i);
        ints.unpack(i, i + n, buf);
        for (std::size_t j = 0; j < n; ++j)
          out[i - begin + j] = static_cast<double>(buf[j]);
      }
      break;
    }
  }
}

std::size_t PackedColumn::byte_size() const {
  std::size_t bytes = sizeof(PackedColumn) + name.size() + present.byte_size();
  switch (encoding) {
    case Encoding::kInt:
      bytes += ints.words.size() * sizeof(std::uint64_t);
      break;
    case Encoding::kRaw:
      bytes += raw.size() * sizeof(double);
      break;
    case Encoding::kXor:
      bytes += xors.blocks.size() * sizeof(XorColumn::Block) +
               xors.words.size() * sizeof(std::uint64_t);
      break;
  }
  return bytes;
}

const PackedColumn* PackedRun::field(std::string_view name) const {
  const auto it = std::lower_bound(
      fields.begin(), fields.end(), name,
      [](const PackedColumn& c, std::string_view n) { return c.name < n; });
  if (it == fields.end() || it->name != name) return nullptr;
  return &*it;
}

std::size_t PackedRun::byte_size() const {
  std::size_t bytes = sizeof(PackedRun) + times.byte_size() + seqs.byte_size();
  for (const PackedColumn& c : fields) bytes += c.byte_size();
  return bytes;
}

// --- PackConfig -------------------------------------------------------------

PackConfig PackConfig::from_env() {
  PackConfig config;
  config.enabled = env_flag("PMOVE_TSDB_PACK", config.enabled);
  config.min_rows = env_rows("PMOVE_TSDB_PACK_MIN_ROWS", config.min_rows);
  config.xor_doubles = env_flag("PMOVE_TSDB_PACK_XOR", config.xor_doubles);
  return config;
}

}  // namespace pmove::tsdb
