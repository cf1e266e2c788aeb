// Compressed column encodings for sealed/base runs (docs/STORAGE.md §3).
//
// Three codecs, chosen per column at run-seal/fold time:
//
//   * DodColumn — delta-of-delta bitstream for sorted-ish int64 sequences
//     (timestamps, arrival seqs).  Near-regular sampling makes consecutive
//     deltas equal, so the common row costs 1 bit; irregular gaps degrade
//     gracefully through Gorilla-style variable-width buckets up to a full
//     64-bit escape.  Rows are framed into independently decodable blocks
//     of kBlockRows, each with a raw first value and a bitstream offset,
//     so range scans decode only the blocks they touch and lower_bound is
//     a block binary search plus one block decode.
//
//   * PackedInts — Tightdb-style frame-of-reference bit packing: value[i]
//     = base + lane(i) where every lane is the same width from the ladder
//     {0,1,2,4,8,16,32,64}.  Every ladder width divides 64, so a lane
//     never straddles a word and random access is one shift+mask.
//
//   * XorColumn — Gorilla XOR compression for doubles (optional, behind
//     PMOVE_TSDB_PACK_XOR): block-framed like DodColumn, sequential
//     decode only.
//
// All codecs round-trip bit-for-bit (NaN payloads and -0.0 included,
// where doubles are involved) — compression must never perturb aggregate
// results, which CI gates on parity with the uncompressed layout.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pmove::tsdb {

/// Appends bit fields LSB-first into a word vector.  `put` tolerates any
/// split across word boundaries; bits above `n` in `value` must be zero.
class BitWriter {
 public:
  explicit BitWriter(std::vector<std::uint64_t>& words) : words_(&words) {}

  void put(std::uint64_t value, unsigned n) {
    if (n == 0) return;
    const std::size_t word = static_cast<std::size_t>(bits_ >> 6);
    const unsigned off = static_cast<unsigned>(bits_ & 63);
    if (word >= words_->size()) words_->push_back(0);
    (*words_)[word] |= value << off;
    if (off + n > 64) words_->push_back(value >> (64 - off));
    bits_ += n;
  }

  [[nodiscard]] std::uint64_t bit_count() const { return bits_; }

 private:
  std::vector<std::uint64_t>* words_;
  std::uint64_t bits_ = 0;
};

/// Reads bit fields written by BitWriter, starting at an arbitrary bit
/// offset (block headers store such offsets for mid-stream seeks).
class BitReader {
 public:
  BitReader(const std::uint64_t* words, std::uint64_t bit)
      : words_(words), bit_(bit) {}

  std::uint64_t get(unsigned n) {
    if (n == 0) return 0;
    const std::size_t word = static_cast<std::size_t>(bit_ >> 6);
    const unsigned off = static_cast<unsigned>(bit_ & 63);
    std::uint64_t v = words_[word] >> off;
    if (off + n > 64) v |= words_[word + 1] << (64 - off);
    bit_ += n;
    return n == 64 ? v : v & ((1ull << n) - 1);
  }

  /// Consumes the zero bits that follow, up to `max` and to the end of the
  /// current word, and returns how many there were.
  std::size_t zero_run(std::size_t max) {
    const unsigned off = static_cast<unsigned>(bit_ & 63);
    const std::uint64_t v = words_[bit_ >> 6] >> off;
    const std::size_t zeros =
        v == 0 ? 64 - off : static_cast<std::size_t>(std::countr_zero(v));
    const std::size_t n = std::min(zeros, max);
    bit_ += n;
    return n;
  }

 private:
  const std::uint64_t* words_;
  std::uint64_t bit_;
};

/// Frame-of-reference bit-packed int64 column: value[i] = base + lane(i),
/// lane width from {0,1,2,4,8,16,32,64}.  O(1) random access.
struct PackedInts {
  std::int64_t base = 0;
  std::uint8_t width = 0;
  std::uint32_t rows = 0;
  std::vector<std::uint64_t> words;

  /// Smallest ladder width whose lanes hold values 0..range inclusive.
  static std::uint8_t width_for(std::uint64_t range);
  static PackedInts pack(std::span<const std::int64_t> values);

  [[nodiscard]] std::int64_t at(std::size_t i) const {
    if (width == 0) return base;
    const std::uint64_t bit = static_cast<std::uint64_t>(i) * width;
    std::uint64_t lane = words[bit >> 6] >> (bit & 63);
    if (width != 64) lane &= (1ull << width) - 1;
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(base) + lane);
  }

  /// Decodes rows [begin, end) into `out` (block-decode building block).
  void unpack(std::size_t begin, std::size_t end, std::int64_t* out) const;

  [[nodiscard]] std::size_t byte_size() const {
    return sizeof(PackedInts) + words.size() * sizeof(std::uint64_t);
  }
};

/// Delta-of-delta encoded int64 column, block-framed for range decode and
/// binary search.  Per-row cost after the block's raw first value:
///   dod == 0                  -> '0'                       (1 bit)
///   |zigzag| <  2^7           -> '10'    + 7 bits          (9 bits)
///   |zigzag| <  2^9           -> '110'   + 9 bits          (12 bits)
///   |zigzag| <  2^12          -> '1110'  + 12 bits         (16 bits)
///   |zigzag| <  2^32          -> '11110' + 32 bits         (37 bits)
///   otherwise                 -> '11111' + 64 bits         (69 bits)
/// Deltas are computed in wrapping uint64 arithmetic, so the full int64
/// domain (including INT64_MIN/MAX endpoints) round-trips exactly.
struct DodColumn {
  static constexpr std::size_t kBlockRows = 1024;

  struct Block {
    std::int64_t first = 0;  ///< row (block * kBlockRows), stored raw
    std::uint64_t bit = 0;   ///< bitstream offset of the block's second row
  };

  std::uint32_t rows = 0;
  std::vector<Block> blocks;
  std::vector<std::uint64_t> words;

  static DodColumn pack(std::span<const std::int64_t> values);

  /// Decodes rows [begin, end) into `out`.
  void unpack(std::size_t begin, std::size_t end, std::int64_t* out) const;

  /// First row with value >= t / > t.  Values must be non-decreasing
  /// (true for timestamp columns; NOT for seq columns).  Block binary
  /// search + one block decode.
  [[nodiscard]] std::size_t lower_bound(std::int64_t t) const;
  [[nodiscard]] std::size_t upper_bound(std::int64_t t) const;

  [[nodiscard]] std::size_t byte_size() const {
    return sizeof(DodColumn) + blocks.size() * sizeof(Block) +
           words.size() * sizeof(std::uint64_t);
  }
};

/// 1-bit-per-row presence map (packs the byte map of ragged columns).
struct PackedBits {
  std::uint32_t rows = 0;
  std::vector<std::uint64_t> words;

  static PackedBits pack(std::span<const std::uint8_t> bytes);

  [[nodiscard]] bool at(std::size_t i) const {
    return ((words[i >> 6] >> (i & 63)) & 1) != 0;
  }
  [[nodiscard]] std::size_t byte_size() const {
    return words.size() * sizeof(std::uint64_t);
  }
};

/// Gorilla XOR-compressed double column, block-framed.  Sequential decode
/// only — consumers decode whole clipped ranges up front (the SeriesView
/// builder does this), never random-access.
struct XorColumn {
  static constexpr std::size_t kBlockRows = 1024;

  struct Block {
    std::uint64_t first = 0;  ///< bit_cast of row (block * kBlockRows)
    std::uint64_t bit = 0;    ///< bitstream offset of the block's second row
  };

  std::uint32_t rows = 0;
  std::vector<Block> blocks;
  std::vector<std::uint64_t> words;

  static XorColumn pack(std::span<const double> values);
  void unpack(std::size_t begin, std::size_t end, double* out) const;

  [[nodiscard]] std::size_t byte_size() const {
    return sizeof(XorColumn) + blocks.size() * sizeof(Block) +
           words.size() * sizeof(std::uint64_t);
  }
};

/// One field column of a packed run.
struct PackedColumn {
  enum class Encoding : std::uint8_t {
    kInt,  ///< every present value is an exactly-representable integer
    kRaw,  ///< raw IEEE-754 doubles (the default fallback)
    kXor,  ///< Gorilla XOR stream (PMOVE_TSDB_PACK_XOR=1 fallback)
  };

  std::string name;
  Encoding encoding = Encoding::kRaw;
  PackedInts ints;          ///< kInt payload
  std::vector<double> raw;  ///< kRaw payload
  XorColumn xors;           ///< kXor payload
  /// rows == 0 means "present in every row" (the fixed-schema common case).
  PackedBits present;

  [[nodiscard]] bool all_present() const { return present.rows == 0; }
  [[nodiscard]] bool present_at(std::size_t row) const {
    return present.rows == 0 || present.at(row);
  }
  /// O(1) cell read — valid for kInt and kRaw only; kXor columns are
  /// decoded into the SeriesView at build time and read from there.
  [[nodiscard]] double value_at(std::size_t row) const {
    if (encoding == Encoding::kRaw) return raw[row];
    return static_cast<double>(ints.at(row));
  }
  /// Decodes rows [begin, end) of the value column (absent cells hold
  /// unspecified values for kInt; callers consult the presence map).
  void unpack(std::size_t begin, std::size_t end, double* out) const;

  [[nodiscard]] std::size_t byte_size() const;
};

/// Compressed image of one sorted run: all columns packed, raw vectors
/// released.  Immutable — mutation paths (fold, retention compaction)
/// unpack first.
struct PackedRun {
  std::uint32_t rows = 0;
  DodColumn times;
  DodColumn seqs;  ///< near-constant arrival stride makes dod ~1 bit/row
  std::vector<PackedColumn> fields;  ///< sorted by name
  /// Unpacked footprint at pack time (the bytes_raw telemetry input).
  std::size_t raw_bytes = 0;

  [[nodiscard]] const PackedColumn* field(std::string_view name) const;
  [[nodiscard]] std::size_t byte_size() const;
};

/// Compression tuning (the PMOVE_TSDB_PACK_* knobs).
struct PackConfig {
  /// Master switch: pack runs at seal/fold time (PMOVE_TSDB_PACK=0 turns
  /// the engine back into the PR 7 uncompressed layout).
  bool enabled = true;
  /// Runs smaller than this stay raw — tiny runs are about to be folded
  /// anyway and the per-run framing would dominate (PMOVE_TSDB_PACK_MIN_ROWS).
  std::size_t min_rows = 256;
  /// Gorilla-XOR non-integral double columns instead of storing raw bits
  /// (PMOVE_TSDB_PACK_XOR).  Off by default: XOR decode is sequential, so
  /// views over such columns pre-decode their clipped range at scan time.
  bool xor_doubles = false;

  static PackConfig from_env();
};

}  // namespace pmove::tsdb
