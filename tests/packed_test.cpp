// Compressed-column tests: codec round-trips (bit-for-bit, NaN payloads
// and -0.0 included), delta-of-delta edge cases and bounds, pack/unpack
// run cycles, and DB-level parity between the packed and raw layouts —
// the invariant the whole compression tier hangs on (docs/STORAGE.md §1,
// conformance checklist in §6).
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "query/plan.hpp"
#include "tsdb/columns.hpp"
#include "tsdb/db.hpp"
#include "tsdb/packed.hpp"

namespace pmove::tsdb {
namespace {

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_int64_round_trip(const std::vector<std::int64_t>& values) {
  const PackedInts packed = PackedInts::pack(values);
  ASSERT_EQ(packed.rows, values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(packed.at(i), values[i]) << "row " << i;
  }
  std::vector<std::int64_t> out(values.size());
  packed.unpack(0, values.size(), out.data());
  EXPECT_EQ(out, values);
}

TEST(PackedInts, WidthLadderRoundTrip) {
  // One case per ladder width: ranges that need exactly 0/1/2/4/8/16/32/64
  // bits, each offset by a negative base so the frame subtraction matters.
  const std::vector<std::pair<std::uint8_t, std::uint64_t>> cases = {
      {0, 0},       {1, 1},          {2, 3},           {4, 15},
      {8, 255},     {16, 65535},     {32, 0xFFFFFFFF}, {64, ~0ull},
  };
  std::mt19937_64 rng(7);
  for (const auto& [width, range] : cases) {
    std::vector<std::int64_t> values;
    for (std::size_t i = 0; i < 777; ++i) {
      const std::uint64_t lane =
          range == 0 ? 0 : rng() % (range == ~0ull ? ~0ull : range + 1);
      values.push_back(static_cast<std::int64_t>(
          static_cast<std::uint64_t>(-123456789) + lane));
    }
    // Pin the extremes so the chosen width is exact, not probabilistic.
    values[0] = -123456789;
    values[1] = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(-123456789) + range);
    const PackedInts packed = PackedInts::pack(values);
    EXPECT_EQ(packed.width, width) << "range " << range;
    expect_int64_round_trip(values);
  }
}

TEST(PackedInts, WidthForLadder) {
  EXPECT_EQ(PackedInts::width_for(0), 0);
  EXPECT_EQ(PackedInts::width_for(1), 1);
  EXPECT_EQ(PackedInts::width_for(2), 2);
  EXPECT_EQ(PackedInts::width_for(3), 2);
  EXPECT_EQ(PackedInts::width_for(4), 4);
  EXPECT_EQ(PackedInts::width_for(255), 8);
  EXPECT_EQ(PackedInts::width_for(256), 16);
  EXPECT_EQ(PackedInts::width_for(1ull << 32), 64);
  EXPECT_EQ(PackedInts::width_for(~0ull), 64);
}

TEST(PackedInts, Int64ExtremesRoundTrip) {
  expect_int64_round_trip({std::numeric_limits<std::int64_t>::min(),
                           std::numeric_limits<std::int64_t>::max(), 0, -1,
                           1});
}

TEST(PackedInts, PartialUnpack) {
  std::vector<std::int64_t> values;
  for (std::int64_t i = 0; i < 1000; ++i) values.push_back(i * 3 + 7);
  const PackedInts packed = PackedInts::pack(values);
  std::vector<std::int64_t> out(10);
  packed.unpack(500, 510, out.data());
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i], values[500 + i]);
  }
}

void expect_dod_round_trip(const std::vector<std::int64_t>& values) {
  const DodColumn packed = DodColumn::pack(values);
  ASSERT_EQ(packed.rows, values.size());
  std::vector<std::int64_t> out(values.size());
  packed.unpack(0, values.size(), out.data());
  EXPECT_EQ(out, values);
  // Partial decodes crossing block boundaries must agree too.
  if (values.size() > 3) {
    const std::size_t begin = values.size() / 3;
    const std::size_t end = values.size() - 1;
    std::vector<std::int64_t> part(end - begin);
    packed.unpack(begin, end, part.data());
    for (std::size_t i = 0; i < part.size(); ++i) {
      EXPECT_EQ(part[i], values[begin + i]) << "row " << begin + i;
    }
  }
}

TEST(DodColumn, RegularSeriesIsOneBitPerRow) {
  std::vector<std::int64_t> times;
  for (std::int64_t i = 0; i < 5000; ++i) times.push_back(1000 + i * 10);
  const DodColumn packed = DodColumn::pack(times);
  expect_dod_round_trip(times);
  // 5000 regularly spaced rows: ~1 bit each after per-block headers.
  EXPECT_LT(packed.byte_size(), times.size() * sizeof(std::int64_t) / 8);
}

TEST(DodColumn, EdgeShapes) {
  expect_dod_round_trip({});
  expect_dod_round_trip({42});
  expect_dod_round_trip({42, 42});
  expect_dod_round_trip({42, -17});
  expect_dod_round_trip({0, 1, 2, 4, 8, 100000, 100001, -5});
  expect_dod_round_trip({std::numeric_limits<std::int64_t>::min(), 0,
                         std::numeric_limits<std::int64_t>::max(),
                         std::numeric_limits<std::int64_t>::min()});
}

TEST(DodColumn, IrregularGapsProperty) {
  std::mt19937_64 rng(11);
  std::vector<std::int64_t> values;
  std::int64_t t = -500;
  for (std::size_t i = 0; i < 4000; ++i) {
    values.push_back(t);
    // Mix of tiny, bucket-boundary and huge strides, both signs.
    switch (rng() % 7) {
      case 0: t += 1; break;
      case 1: t += 127; break;                 // 7-bit bucket edge
      case 2: t += 512; break;                 // 9-bit bucket
      case 3: t += 4096; break;                // 12-bit bucket
      case 4: t += 1ll << 33; break;           // 64-bit escape
      case 5: t -= 300; break;                 // negative delta
      default: t += static_cast<std::int64_t>(rng() % 100000); break;
    }
  }
  expect_dod_round_trip(values);
}

TEST(DodColumn, BoundsMatchStdOnSortedData) {
  std::mt19937_64 rng(13);
  std::vector<std::int64_t> times;
  std::int64_t t = 0;
  for (std::size_t i = 0; i < 3000; ++i) {
    times.push_back(t);
    if (rng() % 3 != 0) t += static_cast<std::int64_t>(rng() % 50);  // dups
  }
  const DodColumn packed = DodColumn::pack(times);
  for (const std::int64_t probe :
       {std::int64_t{-1}, std::int64_t{0}, times[1500], times.back(),
        times.back() + 1}) {
    const auto lo = static_cast<std::size_t>(
        std::lower_bound(times.begin(), times.end(), probe) - times.begin());
    const auto hi = static_cast<std::size_t>(
        std::upper_bound(times.begin(), times.end(), probe) - times.begin());
    EXPECT_EQ(packed.lower_bound(probe), lo) << "probe " << probe;
    EXPECT_EQ(packed.upper_bound(probe), hi) << "probe " << probe;
  }
}

TEST(PackedBits, RoundTrip) {
  std::mt19937_64 rng(17);
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i < 777; ++i) {
    bytes.push_back(rng() % 2 == 0 ? 1 : 0);
  }
  const PackedBits packed = PackedBits::pack(bytes);
  ASSERT_EQ(packed.rows, bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_EQ(packed.at(i), bytes[i] != 0);
  }
}

TEST(XorColumn, BitForBitSpecials) {
  const std::vector<double> values = {
      1.5,
      1.5,  // repeat -> 0-bit row
      -0.0,
      0.0,
      std::nan(""),
      -std::nan(""),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      1e-300,
      3.141592653589793,
  };
  const XorColumn packed = XorColumn::pack(values);
  std::vector<double> out(values.size());
  packed.unpack(0, values.size(), out.data());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(bits_of(out[i]), bits_of(values[i])) << "row " << i;
  }
}

TEST(XorColumn, MultiBlockRandomProperty) {
  std::mt19937_64 rng(23);
  std::vector<double> values;
  double walk = 100.0;
  for (std::size_t i = 0; i < 3000; ++i) {
    walk += static_cast<double>(rng() % 1000) / 100.0 - 5.0;
    values.push_back(walk);
  }
  const XorColumn packed = XorColumn::pack(values);
  std::vector<double> out(values.size());
  packed.unpack(0, values.size(), out.data());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(bits_of(out[i]), bits_of(values[i])) << "row " << i;
  }
  // Partial decode starting mid-block.
  std::vector<double> part(1500);
  packed.unpack(700, 2200, part.data());
  for (std::size_t i = 0; i < part.size(); ++i) {
    ASSERT_EQ(bits_of(part[i]), bits_of(values[700 + i])) << "row " << 700 + i;
  }
}

Run make_run(std::size_t rows) {
  Run run;
  run.sorted = true;
  for (std::size_t i = 0; i < rows; ++i) {
    run.times.push_back(static_cast<TimeNs>(1000 + i * 10));
    run.seqs.push_back(i);
  }
  FieldColumn flags;  // 1-bit integral, dense
  flags.name = "flags";
  FieldColumn level;  // integral, ragged (every third row absent)
  level.name = "level";
  FieldColumn ratio;  // non-integral doubles with a stored NaN
  ratio.name = "ratio";
  for (std::size_t i = 0; i < rows; ++i) {
    flags.values.push_back(i % 2 == 0 ? 1.0 : 0.0);
    const bool has_level = i % 3 != 0;
    level.values.push_back(has_level ? static_cast<double>(i % 256)
                                     : std::nan(""));
    level.present.push_back(has_level ? 1 : 0);
    // Row 7 stores a real NaN value; row 9 stores -0.0.  Both must
    // round-trip bit-for-bit as *present* values.
    double v = 0.25 * static_cast<double>(i);
    if (i == 7) v = std::nan("");
    if (i == 9) v = -0.0;
    ratio.values.push_back(v);
  }
  run.fields.push_back(std::move(flags));
  run.fields.push_back(std::move(level));
  run.fields.push_back(std::move(ratio));
  return run;
}

TEST(PackRun, EncodingChoicesAndRoundTrip) {
  for (const bool xor_doubles : {false, true}) {
    auto run = make_run(600);
    const auto reference = make_run(600);
    PackConfig config;
    config.xor_doubles = xor_doubles;
    ASSERT_TRUE(pack_run(run, config));
    ASSERT_TRUE(run.is_packed());
    EXPECT_TRUE(run.times.empty());
    EXPECT_EQ(run.physical_rows(), 600u);
    EXPECT_EQ(run.packed->fields[0].encoding, PackedColumn::Encoding::kInt);
    EXPECT_EQ(run.packed->fields[0].ints.width, 1);  // {0,1} -> 1-bit lanes
    EXPECT_EQ(run.packed->fields[1].encoding, PackedColumn::Encoding::kInt);
    EXPECT_EQ(run.packed->fields[2].encoding,
              xor_doubles ? PackedColumn::Encoding::kXor
                          : PackedColumn::Encoding::kRaw);
    EXPECT_LT(run.packed->byte_size(), run.packed->raw_bytes);

    unpack_run(run);
    ASSERT_FALSE(run.is_packed());
    EXPECT_EQ(run.times, reference.times);
    EXPECT_EQ(run.seqs, reference.seqs);
    ASSERT_EQ(run.fields.size(), reference.fields.size());
    for (std::size_t f = 0; f < run.fields.size(); ++f) {
      EXPECT_EQ(run.fields[f].name, reference.fields[f].name);
      EXPECT_EQ(run.fields[f].present, reference.fields[f].present);
      ASSERT_EQ(run.fields[f].values.size(),
                reference.fields[f].values.size());
      for (std::size_t i = 0; i < run.fields[f].values.size(); ++i) {
        EXPECT_EQ(bits_of(run.fields[f].values[i]),
                  bits_of(reference.fields[f].values[i]))
            << "field " << f << " row " << i;
      }
    }
  }
}

TEST(PackRun, IntegralDetectionRejections) {
  // Each of these payloads must force the column off the kInt path:
  // fractions, NaN, infinities, -0.0 (bit pattern would be lost), and
  // magnitudes outside int64.
  const std::vector<double> rejected = {
      0.5,
      std::nan(""),
      std::numeric_limits<double>::infinity(),
      -0.0,
      1e300,
      9.3e18,  // > int64 max
  };
  for (const double bad : rejected) {
    pmove::tsdb::Run run;
    run.sorted = true;
    FieldColumn col;
    col.name = "f";
    for (std::size_t i = 0; i < 300; ++i) {
      run.times.push_back(static_cast<TimeNs>(i));
      run.seqs.push_back(i);
      col.values.push_back(i == 150 ? bad : 1.0);
    }
    run.fields.push_back(std::move(col));
    ASSERT_TRUE(pack_run(run, PackConfig{}));
    EXPECT_EQ(run.packed->fields[0].encoding, PackedColumn::Encoding::kRaw)
        << "value " << bad;
    EXPECT_EQ(bits_of(run.packed->fields[0].raw[150]), bits_of(bad));
  }
}

TEST(PackRun, RefusesUnpackableShapes) {
  PackConfig config;
  auto small = make_run(100);
  config.min_rows = 256;
  EXPECT_FALSE(pack_run(small, config));

  auto unsorted = make_run(600);
  unsorted.sorted = false;
  EXPECT_FALSE(pack_run(unsorted, config));

  auto trimmed = make_run(600);
  trimmed.head = 10;
  EXPECT_FALSE(pack_run(trimmed, config));

  auto disabled = make_run(600);
  config = PackConfig{};
  config.enabled = false;
  EXPECT_FALSE(pack_run(disabled, config));
}

// ---------------------------------------------------------------- DB level

void fill_db(TimeSeriesDb& db, bool packed, bool xor_doubles) {
  RunConfig rc;
  rc.seal_rows = 512;
  rc.max_sealed = 4;
  rc.fold_ratio = 0.5;
  db.set_run_config(rc);
  PackConfig pc;
  pc.enabled = packed;
  pc.min_rows = 64;
  pc.xor_doubles = xor_doubles;
  db.set_pack_config(pc);

  std::mt19937_64 rng(31);
  std::vector<Point> batch;
  for (std::size_t i = 0; i < 6000; ++i) {
    Point p;
    p.measurement = "m";
    p.tags = {{"host", i % 2 == 0 ? "a" : "b"}};
    // Mostly increasing with occasional out-of-order arrivals and
    // duplicate timestamps, so sealed runs interleave.
    p.time = static_cast<TimeNs>(i * 10 - (i % 17 == 0 ? 35 : 0));
    p.fields["flag"] = i % 2 == 0 ? 1.0 : 0.0;
    p.fields["count"] = static_cast<double>(i % 4096);
    if (i % 5 != 0) {  // ragged column
      p.fields["gauge"] = static_cast<double>(rng() % 100000) / 97.0;
    }
    if (i == 1234) p.fields["gauge"] = std::nan("");  // stored NaN
    if (i == 2345) p.fields["gauge"] = -0.0;
    batch.push_back(std::move(p));
    if (batch.size() == 300) {
      ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
      batch.clear();
    }
  }
  if (!batch.empty()) {
    ASSERT_TRUE(db.write_batch(std::move(batch)).is_ok());
  }
}

void expect_same_result(const QueryResult& a, const QueryResult& b,
                        const std::string& label) {
  ASSERT_EQ(a.columns, b.columns) << label;
  ASSERT_EQ(a.rows.size(), b.rows.size()) << label;
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_EQ(a.rows[r].size(), b.rows[r].size()) << label;
    for (std::size_t c = 0; c < a.rows[r].size(); ++c) {
      ASSERT_EQ(bits_of(a.rows[r][c]), bits_of(b.rows[r][c]))
          << label << " row " << r << " col " << c;
    }
  }
}

const char* const kParityQueries[] = {
    "SELECT * FROM \"m\"",
    "SELECT \"gauge\", \"count\" FROM \"m\" WHERE host=\"a\"",
    "SELECT min(\"gauge\"), max(\"gauge\"), mean(\"gauge\"), sum(\"gauge\"), "
    "count(\"gauge\"), stddev(\"gauge\"), first(\"gauge\"), last(\"gauge\") "
    "FROM \"m\"",
    "SELECT mean(\"count\"), stddev(\"gauge\"), last(\"flag\") FROM \"m\" "
    "GROUP BY time(1300ns)",
    "SELECT sum(\"count\") FROM \"m\" WHERE host=\"b\" AND time >= 5000 "
    "AND time <= 40000",
    "SELECT count(\"missing\") FROM \"m\"",
};

TEST(PackedDbParity, QueriesMatchRawLayoutBitForBit) {
  for (const bool xor_doubles : {false, true}) {
    TimeSeriesDb raw;
    TimeSeriesDb packed;
    fill_db(raw, /*packed=*/false, false);
    fill_db(packed, /*packed=*/true, xor_doubles);

    // Parity over the live run mix first, then fully compacted.
    for (const bool compacted : {false, true}) {
      if (compacted) {
        raw.compact();
        packed.compact();
        EXPECT_GT(packed.stats().compressed_runs, 0u);
      }
      for (const char* text : kParityQueries) {
        auto a = query::run(raw, text);
        auto b = query::run(packed, text);
        ASSERT_TRUE(a.has_value()) << text;
        ASSERT_TRUE(b.has_value()) << text;
        expect_same_result(a.value(), b.value(),
                           std::string(text) +
                               (compacted ? " [compacted]" : " [live]") +
                               (xor_doubles ? " [xor]" : ""));
      }
    }
    EXPECT_EQ(raw.point_count(), packed.point_count());
  }
}

TEST(PackedDbParity, CollectMatchesRawLayout) {
  TimeSeriesDb raw;
  TimeSeriesDb packed;
  fill_db(raw, false, false);
  fill_db(packed, true, false);
  raw.compact();
  packed.compact();
  const auto a = raw.collect("m", 0, 100000, {});
  const auto b = packed.collect("m", 0, 100000, {});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].time, b[i].time) << i;
    ASSERT_EQ(a[i].tags, b[i].tags) << i;
    ASSERT_EQ(a[i].fields.size(), b[i].fields.size()) << i;
    auto it = b[i].fields.begin();
    for (const auto& [name, value] : a[i].fields) {
      EXPECT_EQ(name, it->first) << i;
      EXPECT_EQ(bits_of(value), bits_of(it->second)) << i << " " << name;
      ++it;
    }
  }
}

TEST(PackedDb, CompressionStatsAndGaugeInputs) {
  TimeSeriesDb db;
  fill_db(db, true, false);
  db.compact();
  const TsdbStats st = db.stats();
  EXPECT_GT(st.compressed_runs, 0u);
  EXPECT_GT(st.bytes_raw, 0u);
  EXPECT_GT(st.bytes_packed, 0u);
  EXPECT_LT(st.bytes_packed, st.bytes_raw);
  EXPECT_GT(st.pack_time_ns, 0u);
  // column_bytes counts the packed footprint once runs are packed.
  EXPECT_LE(st.column_bytes, st.bytes_packed + 4096);
}

TEST(PackedDb, RetentionTrimsPackedRuns) {
  TimeSeriesDb db(RetentionPolicy{10000});
  fill_db(db, true, false);
  db.compact();
  ASSERT_GT(db.stats().compressed_runs, 0u);
  const std::size_t before = db.point_count();
  const std::size_t dropped = db.enforce_retention(60000);
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(db.point_count(), before - dropped);
  // Everything left is inside the window, and still queryable.
  for (const Point& p : db.collect("m", std::numeric_limits<TimeNs>::min(),
                                   std::numeric_limits<TimeNs>::max(), {})) {
    EXPECT_GE(p.time, 50000);
  }
  auto result = query::run(db, "SELECT count(\"count\") FROM \"m\"");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result.value().rows[0][1],
            static_cast<double>(db.point_count()));
}

TEST(PackedDb, DumpLoadRoundTrip) {
  TimeSeriesDb db;
  fill_db(db, true, false);
  db.compact();
  const std::string path = ::testing::TempDir() + "/packed_dump.lp";
  ASSERT_TRUE(db.dump_to_file(path).is_ok());
  TimeSeriesDb reloaded;
  ASSERT_TRUE(reloaded.load_from_file(path).is_ok());
  EXPECT_EQ(reloaded.point_count(), db.point_count());
  auto a = query::run(db,
                      "SELECT sum(\"count\"), mean(\"gauge\") FROM \"m\"");
  auto b = query::run(reloaded,
                      "SELECT sum(\"count\"), mean(\"gauge\") FROM \"m\"");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  // Dump renders doubles through line protocol (round-trippable formatting),
  // and load replays rows in (time, seq) order — aggregate parity holds.
  expect_same_result(a.value(), b.value(), "dump/load");
}

TEST(PackedDb, PartialFoldMatchesRowAggregate) {
  // A compacted series' partial fold streams each column in blocks: raw
  // spans, unpacked integer lanes, decoded XOR doubles, or gathered ragged
  // cells.  query::aggregate() over the same cells gathered one by one is
  // the reference, bit for bit, for all eight aggregates, packed and raw,
  // over the whole series and over a row range inside it.
  struct Layout {
    bool packed;
    bool xor_doubles;
  };
  for (const Layout layout : {Layout{false, false}, Layout{true, false},
                              Layout{true, true}}) {
    TimeSeriesDb db;
    fill_db(db, layout.packed, layout.xor_doubles);
    db.compact();
    if (layout.packed) {
      ASSERT_GT(db.stats().compressed_runs, 0u);
    }
    for (const char* host : {"a", "b"}) {
      for (const char* field : {"flag", "count", "gauge"}) {
        for (const auto& [lo, hi] :
             {std::pair<TimeNs, TimeNs>{0, 1'000'000},
              std::pair<TimeNs, TimeNs>{12'345, 41'000}}) {
          const std::string label =
              std::string(layout.packed ? "packed" : "raw") +
              (layout.xor_doubles ? "+xor " : " ") + host + " " + field +
              " [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
          std::vector<double> values;
          std::vector<TimeNs> times;
          db.scan("m", lo, hi, {{"host", host}},
                  [&](std::span<const SeriesView> views) {
                    ASSERT_EQ(views.size(), 1u);
                    const SeriesView& view = views[0];
                    ASSERT_TRUE(view.contiguous());
                    const std::size_t f = view.field_index(field);
                    ASSERT_LT(f, view.field_count());
                    for (std::size_t r = 0; r < view.rows(); ++r) {
                      const auto loc = view.loc_at(r);
                      if (!view.has_value(f, loc)) continue;
                      values.push_back(view.value_at(f, loc));
                      times.push_back(view.time_at(loc));
                    }
                  });
          ASSERT_FALSE(values.empty()) << label;
          for (const char* agg : {"count", "min", "max", "first", "last",
                                  "sum", "mean", "stddev"}) {
            const auto parsed = query::parse_aggregate(agg);
            ASSERT_TRUE(parsed.has_value());
            auto result = query::run(
                db, "SELECT " + std::string(agg) + "(\"" + field +
                        "\") FROM \"m\" WHERE host=\"" + host +
                        "\" AND time >= " + std::to_string(lo) +
                        " AND time <= " + std::to_string(hi));
            ASSERT_TRUE(result.has_value()) << label;
            ASSERT_EQ(result->rows.size(), 1u) << label;
            EXPECT_EQ(bits_of(result->rows[0][1]),
                      bits_of(query::aggregate(parsed.value(), values,
                                               times)))
                << label << " " << agg;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace pmove::tsdb
