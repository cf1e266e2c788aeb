// Wire tier: codec round trips, hostile-input decoding, the loopback
// server/transport pair, and the wire fleet's parity + chaos gates.
//
// The hostility tests are the robustness contract in executable form:
// truncation at every byte, bit flips, forged lengths and counts, unknown
// versions — every one must come back as a Status, never a crash (CI runs
// this binary under ASan+UBSan and TSan).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "fleet/fleet.hpp"
#include "fleet/wire/codec.hpp"
#include "fleet/wire/server.hpp"
#include "fleet/wire/socket_transport.hpp"
#include "query/plan.hpp"
#include "query/query.hpp"
#include "tsdb/db.hpp"
#include "util/socket.hpp"

namespace pmove::fleet::wire {
namespace {

using query::Aggregate;
using query::Query;
using query::QueryBuilder;

constexpr std::size_t kSeries = 32;
constexpr std::size_t kPerSeries = 20;
constexpr TimeNs kStep = 1'000'000;

std::string series_id(std::size_t s) {
  char id[24];
  std::snprintf(id, sizeof(id), "s-%04zu", s);
  return id;
}

/// Same canonical workload shape as fleet_test: timestamps outermost so
/// fat-node arrival order matches the fleet's gather order and parity can
/// demand bit-for-bit equality.
std::vector<tsdb::Point> demo_batch(std::size_t series = kSeries,
                                    std::size_t per_series = kPerSeries) {
  std::vector<tsdb::Point> batch;
  batch.reserve(series * per_series);
  for (std::size_t t = 0; t < per_series; ++t) {
    for (std::size_t s = 0; s < series; ++s) {
      tsdb::Point point;
      point.measurement = "fleet_demo";
      point.tags["series"] = series_id(s);
      point.time = static_cast<TimeNs>(t + 1) * kStep;
      point.fields["value"] =
          static_cast<double>(s) * 1.25 + static_cast<double>(t) * 0.01;
      batch.push_back(std::move(point));
    }
  }
  return batch;
}

FleetOptions wire_options() {
  FleetOptions options;
  options.wire.enabled = true;
  return options;
}

void join_nodes(Fleet& fleet, int count) {
  for (int i = 0; i < count; ++i) {
    char name[24];
    std::snprintf(name, sizeof(name), "node-%02d", i + 1);
    ASSERT_TRUE(fleet.add_node(name).is_ok()) << name;
  }
}

void load_demo(Fleet& fleet) {
  ASSERT_TRUE(fleet.write_batch(demo_batch()).is_ok());
  ASSERT_TRUE(fleet.flush().is_ok());
}

/// demo_batch's shape with a rack tag that spans nodes, and values with
/// many equal extremes across series.  With `nan_first` (measurement
/// fleet_racks_nan) the fleet's first value is NaN.
std::vector<tsdb::Point> rack_batch(bool nan_first) {
  std::vector<tsdb::Point> batch;
  for (std::size_t t = 0; t < kPerSeries; ++t) {
    for (std::size_t s = 0; s < kSeries; ++s) {
      tsdb::Point point;
      point.measurement = nan_first ? "fleet_racks_nan" : "fleet_racks";
      point.tags["rack"] = "r" + std::to_string(s / 8);
      point.tags["series"] = series_id(s);
      point.time = static_cast<TimeNs>(t + 1) * kStep;
      point.fields["value"] =
          nan_first && t == 0 && s == 0
              ? std::nan("")
              : static_cast<double>((s * 5 + t * 3) % 13) - 6.0;
      batch.push_back(std::move(point));
    }
  }
  return batch;
}

tsdb::QueryResult fat_node_answer(
    const Query& q, std::vector<tsdb::Point> batch = demo_batch()) {
  tsdb::TimeSeriesDb fat;
  EXPECT_TRUE(fat.write_batch(std::move(batch)).is_ok());
  auto result = query::run(fat, q);
  EXPECT_TRUE(result.has_value()) << result.status().to_string();
  return result.has_value() ? *result : tsdb::QueryResult{};
}

void expect_bitwise_equal(const tsdb::QueryResult& got,
                          const tsdb::QueryResult& want,
                          const std::string& label) {
  EXPECT_EQ(got.columns, want.columns) << label;
  ASSERT_EQ(got.rows.size(), want.rows.size()) << label;
  for (std::size_t r = 0; r < want.rows.size(); ++r) {
    ASSERT_EQ(got.rows[r].size(), want.rows[r].size()) << label;
    for (std::size_t c = 0; c < want.rows[r].size(); ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.rows[r][c]),
                std::bit_cast<std::uint64_t>(want.rows[r][c]))
          << label << " row " << r << " col " << c;
    }
  }
}

/// A node behind a live loopback server plus a transport dialed at it —
/// the smallest complete wire deployment.
struct WireRig {
  FleetNode node{"alpha"};
  FleetServer server{&node};
  SocketTransport transport;

  explicit WireRig(SocketTransportOptions options = {})
      : transport(options) {
    EXPECT_TRUE(node.open().is_ok());
    EXPECT_TRUE(server.start().is_ok());
    transport.add_node("alpha", server.host(), server.port());
  }
};

// ---------------------------------------------------------- codec round trip

TEST(WireCodec, PointsRoundTripBitForBit) {
  std::vector<tsdb::Point> points;
  tsdb::Point hostile;
  hostile.measurement = "weird \"measurement\" with spaces,=\n";
  hostile.tags = {{"k v", "a=b"}, {"", "empty-key-value"}};
  hostile.time = std::numeric_limits<TimeNs>::min();
  hostile.fields = {
      {"nan", std::numeric_limits<double>::quiet_NaN()},
      {"inf", std::numeric_limits<double>::infinity()},
      {"ninf", -std::numeric_limits<double>::infinity()},
      {"nzero", -0.0},
      {"denorm", std::numeric_limits<double>::denorm_min()},
  };
  points.push_back(hostile);
  tsdb::Point plain;
  plain.measurement = "m";
  plain.time = 42;
  plain.fields = {{"v", 1.5}};
  points.push_back(plain);

  Writer w;
  encode_points(points, w);
  Reader r(w.buffer());
  std::vector<tsdb::Point> got;
  ASSERT_TRUE(decode_points(r, got).is_ok());
  ASSERT_TRUE(r.expect_done().is_ok());

  ASSERT_EQ(got.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(got[i].measurement, points[i].measurement);
    EXPECT_EQ(got[i].tags, points[i].tags);
    EXPECT_EQ(got[i].time, points[i].time);
    ASSERT_EQ(got[i].fields.size(), points[i].fields.size());
    auto it = got[i].fields.begin();
    for (const auto& [name, value] : points[i].fields) {
      EXPECT_EQ(it->first, name);
      // Bitwise: NaN payloads and -0.0 must survive the wire.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(it->second),
                std::bit_cast<std::uint64_t>(value))
          << name;
      ++it;
    }
  }
}

TEST(WireCodec, QueryRoundTrip) {
  const Query q = QueryBuilder("cpu usage")
                      .select(Aggregate::kStddev, "va\"lue")
                      .select("raw")
                      .where_tag("host", "skx-01")
                      .where_tag("", "empty")
                      .since(-5)
                      .until(9'000'000'000)
                      .group_by_time(60'000'000'000)
                      .build();
  Writer w;
  encode_query(q, w);
  Reader r(w.buffer());
  Query got;
  ASSERT_TRUE(decode_query(r, got).is_ok());
  ASSERT_TRUE(r.expect_done().is_ok());
  EXPECT_EQ(got, q);

  Query all;
  all.measurement = "m";
  all.select_all = true;
  Writer w2;
  encode_query(all, w2);
  Reader r2(w2.buffer());
  Query got_all;
  ASSERT_TRUE(decode_query(r2, got_all).is_ok());
  EXPECT_EQ(got_all, all);
}

TEST(WireCodec, ResultAndPartialRoundTrip) {
  NodePartial partial;
  partial.matched = 7;
  partial.result.columns = {"time", "mean(value)", "count(value)"};
  partial.result.rows = {
      {0.0, std::numeric_limits<double>::quiet_NaN(), 0.0},
      {1e-9, -0.0, 3.0}};
  Writer w;
  encode_partial(partial, w);
  Reader r(w.buffer());
  NodePartial got;
  ASSERT_TRUE(decode_partial(r, got).is_ok());
  ASSERT_TRUE(r.expect_done().is_ok());
  EXPECT_EQ(got.matched, partial.matched);
  expect_bitwise_equal(got.result, partial.result, "partial");
}

TEST(WireCodec, DigestsRoundTrip) {
  std::vector<NodeDigest> digests(2);
  digests[0].node = "node-01";
  digests[0].version = 17;
  digests[0].updated = 123'456'789;
  digests[0].overall = HealthState::kDegraded;
  ComponentHealth sick;
  sick.name = "ingest";
  sick.state = HealthState::kFailed;
  sick.last_error = "queue overflow: dropped 12";
  sick.failures = 3;
  sick.restarts = 1;
  sick.last_change = -1;
  sick.next_restart = 99;
  digests[0].components = {sick};
  digests[1].node = "node-02";

  Writer w;
  encode_digests(digests, w);
  Reader r(w.buffer());
  std::vector<NodeDigest> got;
  ASSERT_TRUE(decode_digests(r, got).is_ok());
  ASSERT_TRUE(r.expect_done().is_ok());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].node, "node-01");
  EXPECT_EQ(got[0].version, 17u);
  EXPECT_EQ(got[0].updated, 123'456'789);
  EXPECT_EQ(got[0].overall, HealthState::kDegraded);
  ASSERT_EQ(got[0].components.size(), 1u);
  EXPECT_EQ(got[0].components[0].name, "ingest");
  EXPECT_EQ(got[0].components[0].state, HealthState::kFailed);
  EXPECT_EQ(got[0].components[0].last_error, "queue overflow: dropped 12");
  EXPECT_EQ(got[0].components[0].failures, 3u);
  EXPECT_EQ(got[0].components[0].restarts, 1u);
  EXPECT_EQ(got[0].components[0].last_change, -1);
  EXPECT_EQ(got[0].components[0].next_restart, 99);
  EXPECT_EQ(got[1].node, "node-02");
}

TEST(WireCodec, StatusKeepsCodeAndExactMessage) {
  const Status original =
      Status::not_found("measurement not found: no_such_measurement");
  Writer w;
  encode_status(original, w);
  Reader r(w.buffer());
  Status got = Status::ok();
  ASSERT_TRUE(decode_status(r, got).is_ok());
  EXPECT_EQ(got.code(), ErrorCode::kNotFound);
  EXPECT_EQ(got.message(), "measurement not found: no_such_measurement");

  Writer w2;
  encode_status(Status::ok(), w2);
  Reader r2(w2.buffer());
  Status ok = Status::internal("overwrite me");
  ASSERT_TRUE(decode_status(r2, ok).is_ok());
  EXPECT_TRUE(ok.is_ok());
}

// ------------------------------------------------------------ hostile input

TEST(WireHostility, TruncationAtEveryPrefixIsAStatus) {
  Writer w;
  encode_points(demo_batch(3, 2), w);
  const std::string payload = w.buffer();
  for (std::size_t len = 0; len < payload.size(); ++len) {
    Reader r(std::string_view(payload).substr(0, len));
    std::vector<tsdb::Point> out;
    const Status s = decode_points(r, out);
    EXPECT_FALSE(s.is_ok()) << "prefix " << len << " decoded cleanly";
    EXPECT_EQ(s.code(), ErrorCode::kParseError) << "prefix " << len;
  }
}

TEST(WireHostility, TrailingBytesAreRejected) {
  Writer w;
  encode_points(demo_batch(2, 1), w);
  std::string payload = w.take();
  payload.push_back('\x00');
  Reader r(payload);
  std::vector<tsdb::Point> out;
  ASSERT_TRUE(decode_points(r, out).is_ok());
  EXPECT_FALSE(r.expect_done().is_ok());
}

TEST(WireHostility, EveryBitFlipIsCaughtByCrc) {
  Writer w;
  encode_points(demo_batch(2, 2), w);
  const std::string payload = w.buffer();
  const std::string frame = encode_frame(MsgType::kDeliverReq, payload);
  auto header =
      decode_frame_header(frame.data(), frame.size(), kDefaultMaxFrameBytes);
  ASSERT_TRUE(header.has_value());
  ASSERT_TRUE(verify_payload(payload, header->crc).is_ok());

  for (std::size_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = payload;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      const Status s = verify_payload(corrupt, header->crc);
      EXPECT_FALSE(s.is_ok()) << "byte " << byte << " bit " << bit;
      EXPECT_EQ(s.code(), ErrorCode::kParseError);
    }
  }
}

std::string raw_header(std::uint32_t magic, std::uint8_t version,
                       std::uint8_t type, std::uint32_t payload_len,
                       std::uint32_t crc) {
  Writer w;
  w.u32(magic);
  w.u8(version);
  w.u8(type);
  w.u16(0);
  w.u32(payload_len);
  w.u32(crc);
  return w.take();
}

TEST(WireHostility, HeaderValidationRejectsForgeries) {
  const std::string good = raw_header(kFrameMagic, kWireVersion, 1, 0, 0);
  ASSERT_TRUE(
      decode_frame_header(good.data(), good.size(), kDefaultMaxFrameBytes)
          .has_value());

  // Short reads of the header itself.
  for (std::size_t len = 0; len < kFrameHeaderBytes; ++len) {
    EXPECT_FALSE(decode_frame_header(good.data(), len, kDefaultMaxFrameBytes)
                     .has_value())
        << len;
  }

  // Wrong magic.
  const std::string magic = raw_header(0xDEADBEEF, kWireVersion, 1, 0, 0);
  auto bad_magic =
      decode_frame_header(magic.data(), magic.size(), kDefaultMaxFrameBytes);
  ASSERT_FALSE(bad_magic.has_value());
  EXPECT_EQ(bad_magic.status().code(), ErrorCode::kParseError);

  // Future version: kUnsupported so peers can report a version skew.
  const std::string vers = raw_header(kFrameMagic, 9, 1, 0, 0);
  auto bad_version =
      decode_frame_header(vers.data(), vers.size(), kDefaultMaxFrameBytes);
  ASSERT_FALSE(bad_version.has_value());
  EXPECT_EQ(bad_version.status().code(), ErrorCode::kUnsupported);

  // Unknown frame type.
  const std::string type = raw_header(kFrameMagic, kWireVersion, 99, 0, 0);
  EXPECT_FALSE(decode_frame_header(type.data(), type.size(),
                                   kDefaultMaxFrameBytes)
                   .has_value());

  // Oversized length prefix: rejected before any allocation, with a code
  // distinct from corruption (the frame is well-formed, just refused).
  const std::string big =
      raw_header(kFrameMagic, kWireVersion, 1, 0xFFFFFFFFu, 0);
  auto oversized =
      decode_frame_header(big.data(), big.size(), kDefaultMaxFrameBytes);
  ASSERT_FALSE(oversized.has_value());
  EXPECT_EQ(oversized.status().code(), ErrorCode::kOutOfRange);
  // A tighter cap rejects what the default accepts.
  const std::string mid = raw_header(kFrameMagic, kWireVersion, 1, 4096, 0);
  EXPECT_TRUE(decode_frame_header(mid.data(), mid.size(),
                                  kDefaultMaxFrameBytes)
                  .has_value());
  EXPECT_FALSE(decode_frame_header(mid.data(), mid.size(), 1024)
                   .has_value());
}

TEST(WireHostility, ForgedCountsFailBeforeAllocating) {
  // A payload claiming 2^32-1 points backed by 4 actual bytes.
  Writer w;
  w.u32(0xFFFFFFFFu);
  w.u32(0);
  Reader r(w.buffer());
  std::vector<tsdb::Point> out;
  const Status s = decode_points(r, out);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kParseError);
  EXPECT_TRUE(out.empty());

  // A string length far past the per-string cap.
  Writer w2;
  w2.u32(1);                // one point...
  w2.u32(0x7FFFFFFFu);      // ...whose measurement claims 2 GiB
  w2.u32(0);
  w2.u32(0);
  w2.u32(0);
  w2.u32(0);
  Reader r2(w2.buffer());
  std::vector<tsdb::Point> out2;
  EXPECT_FALSE(decode_points(r2, out2).is_ok());
}

// ------------------------------------------------- loopback server+transport

TEST(WireLoopback, FullTransportSurfaceRoundTrips) {
  WireRig rig;
  ASSERT_GT(rig.server.port(), 0);

  // deliver + flush: the write path, acked end to end.
  ASSERT_TRUE(rig.transport.deliver("alpha", demo_batch(4, 3)).is_ok());
  ASSERT_TRUE(rig.transport.flush("alpha").is_ok());

  // collect: raw points come back bit-for-bit.
  const Query q = QueryBuilder("fleet_demo").select("value").build();
  auto points = rig.transport.collect("alpha", q);
  ASSERT_TRUE(points.has_value()) << points.status().to_string();
  EXPECT_EQ(points->size(), 12u);

  // execute: a pushdown partial.
  auto partial = rig.transport.execute(
      "alpha",
      QueryBuilder("fleet_demo").select(Aggregate::kCount, "value").build());
  ASSERT_TRUE(partial.has_value()) << partial.status().to_string();
  EXPECT_EQ(partial->matched, 12u);
  ASSERT_EQ(partial->result.rows.size(), 1u);
  EXPECT_EQ(partial->result.rows.front().back(), 12.0);

  // exchange: an offered digest crosses the wire, is merged into the
  // node's table, and comes back in the reply snapshot.
  NodeDigest offered;
  offered.node = "peer";
  offered.version = 3;
  offered.updated = 1'000'000;
  auto digests = rig.transport.exchange("peer", "alpha", {offered});
  ASSERT_TRUE(digests.has_value()) << digests.status().to_string();
  ASSERT_EQ(digests->size(), 1u);
  EXPECT_EQ(digests->front().node, "peer");
  EXPECT_EQ(digests->front().version, 3u);
}

TEST(WireLoopback, NotFoundCrossesTheWireVerbatim) {
  WireRig rig;
  auto got = rig.transport.collect(
      "alpha", QueryBuilder("no_such_measurement").select("value").build());
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(got.status().message(),
            "measurement not found: no_such_measurement");
}

TEST(WireLoopback, UnknownAndDownNodesMatchInProcessMessages) {
  WireRig rig;
  EXPECT_EQ(rig.transport.flush("ghost").message(),
            "fleet: unknown node: ghost");
  rig.transport.set_node_down("alpha", true);
  EXPECT_EQ(rig.transport.flush("alpha").message(),
            "fleet: node down: alpha");
  rig.transport.set_node_down("alpha", false);
  EXPECT_TRUE(rig.transport.flush("alpha").is_ok());
}

TEST(WireLoopback, ServerAnswersGarbageWithStatusAndSurvives) {
  WireRig rig;
  auto sock =
      net::tcp_connect(rig.server.host(), rig.server.port(), kNsPerSec);
  ASSERT_TRUE(sock.has_value());
  const std::string garbage = "GET / HTTP/1.1\r\nHost: not-a-fleet\r\n\r\n";
  ASSERT_TRUE(
      net::send_all(*sock, garbage.data(), garbage.size(), kNsPerSec)
          .is_ok());

  // Best-effort error reply: a kStatusResp frame, then the connection dies.
  char header[kFrameHeaderBytes];
  ASSERT_TRUE(
      net::recv_all(*sock, header, sizeof(header), 5 * kNsPerSec).is_ok());
  auto parsed =
      decode_frame_header(header, sizeof(header), kDefaultMaxFrameBytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, MsgType::kStatusResp);
  std::string payload(parsed->payload_len, '\0');
  ASSERT_TRUE(
      net::recv_all(*sock, payload.data(), payload.size(), 5 * kNsPerSec)
          .is_ok());
  ASSERT_TRUE(verify_payload(payload, parsed->crc).is_ok());
  Reader r(payload);
  Status remote = Status::ok();
  ASSERT_TRUE(decode_status(r, remote).is_ok());
  EXPECT_FALSE(remote.is_ok());

  // The server shrugged it off: real traffic still flows.
  EXPECT_TRUE(rig.transport.flush("alpha").is_ok());
}

TEST(WireLoopback, ServerRestartsAndStalePooledConnectionsRecover) {
  WireRig rig;
  ASSERT_TRUE(rig.transport.deliver("alpha", demo_batch(2, 2)).is_ok());
  ASSERT_TRUE(rig.transport.flush("alpha").is_ok());

  rig.server.stop();
  EXPECT_FALSE(rig.server.running());
  ASSERT_TRUE(rig.server.start().is_ok());
  EXPECT_TRUE(rig.server.running());
  rig.transport.set_endpoint("alpha", rig.server.host(), rig.server.port());

  // The pool was dropped with the endpoint change; calls redial and work.
  auto points = rig.transport.collect(
      "alpha", QueryBuilder("fleet_demo").select("value").build());
  ASSERT_TRUE(points.has_value()) << points.status().to_string();
  EXPECT_EQ(points->size(), 4u);
}

// --------------------------------------------------------------- wire chaos

TEST(WireChaos, ConnectFaultExhaustsRetriesThenHeals) {
  SocketTransportOptions options;
  options.connect_retry.deadline_ns = 100'000'000;  // keep the test fast
  WireRig rig(options);
  fault::arm("wire.connect",
             {.mode = fault::FaultMode::kFailTimes, .count = 1000});
  const Status s = rig.transport.flush("alpha");
  EXPECT_FALSE(s.is_ok());
  EXPECT_GT(fault::fire_count("wire.connect"), 0u);
  fault::disarm("wire.connect");
  EXPECT_TRUE(rig.transport.flush("alpha").is_ok());
}

TEST(WireChaos, RecvLatencyPastDeadlineIsDeadlineExceeded) {
  SocketTransportOptions options;
  options.budget.floor_ns = 30'000'000;  // 30 ms budget...
  WireRig rig(options);
  ASSERT_TRUE(rig.transport.flush("alpha").is_ok());  // warm connection

  // ...against an 80 ms stall on the response path.
  fault::arm("wire.recv", {.mode = fault::FaultMode::kLatency,
                           .latency_ns = 80'000'000});
  const Status slow = rig.transport.flush("alpha");
  fault::disarm("wire.recv");
  EXPECT_EQ(slow.code(), ErrorCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------- wire fleet

TEST(WireFleet, ExactGatherParityOnAllAggregates) {
  Fleet fleet(wire_options());
  join_nodes(fleet, 3);
  load_demo(fleet);

  const Aggregate all[] = {Aggregate::kMean,  Aggregate::kMin,
                           Aggregate::kMax,   Aggregate::kSum,
                           Aggregate::kCount, Aggregate::kStddev,
                           Aggregate::kFirst, Aggregate::kLast};
  for (Aggregate agg : all) {
    const Query q =
        QueryBuilder("fleet_demo").select(agg, "value").build();
    auto got = fleet.query(q);
    ASSERT_TRUE(got.has_value()) << q.to_string();
    EXPECT_FALSE(got->degraded()) << q.to_string();
    expect_bitwise_equal(got->result, fat_node_answer(q), q.to_string());
  }
}

TEST(WireFleet, PushdownParityAndRawRows) {
  Fleet fleet(wire_options());
  join_nodes(fleet, 3);
  load_demo(fleet);

  const Query push = QueryBuilder("fleet_demo")
                         .select(Aggregate::kMin, "value")
                         .select(Aggregate::kMax, "value")
                         .select(Aggregate::kCount, "value")
                         .build();
  auto got = fleet.query(push);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->pushdown);
  expect_bitwise_equal(got->result, fat_node_answer(push), "pushdown");

  // Raw (non-aggregated) rows gather exact and bit-for-bit too.
  const Query raw = QueryBuilder("fleet_demo")
                        .select("value")
                        .where_tag("series", series_id(3))
                        .build();
  auto rows = fleet.query(raw);
  ASSERT_TRUE(rows.has_value());
  EXPECT_FALSE(rows->pushdown);
  expect_bitwise_equal(rows->result, fat_node_answer(raw), "raw rows");
}

// Grouped min/max/count push down over the wire at every fleet size and
// match the fat node and the exact gather bit for bit; a NaN first value
// sends the query to the exact gather.
TEST(WireFleet, GroupedPushdownParityAndNaNFirst) {
  const auto grouped = [](const char* measurement) {
    return QueryBuilder(measurement)
        .select(Aggregate::kMin, "value")
        .select(Aggregate::kMax, "value")
        .select(Aggregate::kCount, "value")
        .where_tag("rack", "r2")
        .since(2 * kStep)
        .until(17 * kStep)
        .group_by_time(4 * kStep)
        .build();
  };
  const auto all = [](const char* measurement, TimeNs interval) {
    QueryBuilder b(measurement);
    b.select(Aggregate::kMax, "value");
    if (interval > 0) b.group_by_time(interval);
    return b.build();
  };
  for (int n = 1; n <= 5; ++n) {
    Fleet fleet(wire_options());
    join_nodes(fleet, n);
    FleetOptions exact_options = wire_options();
    exact_options.query.pushdown = false;
    Fleet exact_fleet(exact_options);
    join_nodes(exact_fleet, n);
    for (Fleet* f : {&fleet, &exact_fleet}) {
      for (const bool nan_first : {false, true}) {
        ASSERT_TRUE(f->write_batch(rack_batch(nan_first)).is_ok());
      }
      ASSERT_TRUE(f->flush().is_ok());
    }
    for (const bool nan_first : {false, true}) {
      const char* measurement = nan_first ? "fleet_racks_nan" : "fleet_racks";
      for (const TimeNs interval : {TimeNs{-1}, 6 * kStep, TimeNs{0}}) {
        const bool bounded = interval < 0;
        const Query q =
            bounded ? grouped(measurement) : all(measurement, interval);
        const std::string label =
            q.to_string() + " [" + std::to_string(n) + " nodes]";
        auto got = fleet.query(q);
        auto exact = exact_fleet.query(q);
        ASSERT_TRUE(got.has_value()) << label;
        ASSERT_TRUE(exact.has_value()) << label;
        EXPECT_FALSE(got->degraded()) << label;
        // The NaN lies outside the bounded query's rack and time range.
        EXPECT_EQ(got->pushdown, !nan_first || bounded) << label;
        expect_bitwise_equal(got->result,
                             fat_node_answer(q, rack_batch(nan_first)),
                             label + " vs fat node");
        expect_bitwise_equal(got->result, exact->result,
                             label + " vs exact gather");
      }
    }
  }
}

TEST(WireFleet, NotFoundMatchesSingleNodeSemantics) {
  Fleet fleet(wire_options());
  join_nodes(fleet, 3);
  load_demo(fleet);
  auto got = fleet.query(
      QueryBuilder("no_such_measurement").select("value").build());
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(got.status().message(),
            "measurement not found: no_such_measurement");
}

TEST(WireFleet, NodeKillDegradesAndReviveRecovers) {
  Fleet fleet(wire_options());
  join_nodes(fleet, 4);
  load_demo(fleet);

  std::string victim;
  std::size_t victim_points = 0;
  for (const auto& name : fleet.nodes()) {
    auto node = fleet.node(name);
    ASSERT_TRUE(node.has_value());
    if ((*node)->point_count() > 0) {
      victim = name;
      victim_points = (*node)->point_count();
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(fleet.kill_node(victim).is_ok());
  ASSERT_TRUE(fleet.server(victim).has_value());
  EXPECT_FALSE((*fleet.server(victim))->running());

  const Query q =
      QueryBuilder("fleet_demo").select(Aggregate::kCount, "value").build();
  auto got = fleet.query(q);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->degraded());
  ASSERT_EQ(got->nodes_missing.size(), 1u);
  EXPECT_EQ(got->nodes_missing.front(), victim);
  ASSERT_EQ(got->result.rows.size(), 1u);
  EXPECT_EQ(got->result.rows.front().back(),
            static_cast<double>(kSeries * kPerSeries - victim_points));

  // Revive: fresh port, transport redials, the answer is whole again.
  ASSERT_TRUE(fleet.revive_node(victim).is_ok());
  auto healed = fleet.query(q);
  ASSERT_TRUE(healed.has_value());
  EXPECT_FALSE(healed->degraded());
  EXPECT_EQ(healed->result.rows.front().back(),
            static_cast<double>(kSeries * kPerSeries));
}

TEST(WireFleet, KillMidScatterCompletesDegradedNeverFails) {
  Fleet fleet(wire_options());
  join_nodes(fleet, 3);
  load_demo(fleet);

  std::string victim;
  for (const auto& name : fleet.nodes()) {
    auto node = fleet.node(name);
    ASSERT_TRUE(node.has_value());
    if ((*node)->point_count() > 0) {
      victim = name;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());

  const Query q =
      QueryBuilder("fleet_demo").select(Aggregate::kCount, "value").build();
  std::atomic<bool> done{false};
  std::thread chaos([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(fleet.kill_node(victim).is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(fleet.revive_node(victim).is_ok());
    done.store(true);
  });
  // Hammer queries through the kill/revive window: every one must complete
  // (possibly degraded), none may hard-fail or crash.
  std::size_t degraded_seen = 0;
  while (!done.load()) {
    auto got = fleet.query(q);
    ASSERT_TRUE(got.has_value()) << got.status().to_string();
    if (got->degraded()) ++degraded_seen;
  }
  chaos.join();
  (void)degraded_seen;  // usually > 0, but timing-dependent — not asserted

  // The hammering tripped the per-node scatter breaker; healing completes
  // once its cooldown elapses and a half-open probe succeeds.  Poll with a
  // generous deadline instead of assuming the exact cooldown.
  Expected<FleetQueryResult> healed = fleet.query(q);
  for (int attempt = 0; attempt < 100; ++attempt) {
    ASSERT_TRUE(healed.has_value()) << healed.status().to_string();
    if (!healed->degraded()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    healed = fleet.query(q);
  }
  ASSERT_TRUE(healed.has_value());
  EXPECT_FALSE(healed->degraded());
  EXPECT_EQ(healed->result.rows.front().back(),
            static_cast<double>(kSeries * kPerSeries));
}

TEST(WireChaos, TornFrameFailsDeliverWithoutResend) {
  // deliver is at-most-once: a frame torn mid-send is reported as a failed
  // ack and never resent — the peer saw a truncated frame, not the batch.
  WireRig rig;
  ASSERT_TRUE(rig.transport.flush("alpha").is_ok());  // warm the pool
  fault::arm("wire.frame.torn",
             {.mode = fault::FaultMode::kTornWrite, .count = 4});
  const Status ack = rig.transport.deliver("alpha", demo_batch(2, 1));
  const std::uint64_t fired = fault::fire_count("wire.frame.torn");
  fault::disarm("wire.frame.torn");
  EXPECT_FALSE(ack.is_ok());
  EXPECT_EQ(fired, 1u);

  // The torn connection is out of the pool; the next deliver lands whole.
  ASSERT_TRUE(rig.transport.deliver("alpha", demo_batch(2, 1)).is_ok());
  ASSERT_TRUE(rig.transport.flush("alpha").is_ok());
  auto points = rig.transport.collect(
      "alpha", QueryBuilder("fleet_demo").select("value").build());
  ASSERT_TRUE(points.has_value());
  EXPECT_EQ(points->size(), 2u);  // exactly the acked batch, nothing twice
}

TEST(WireFleet, TornFrameOnIdempotentScatterSelfHeals) {
  Fleet fleet(wire_options());
  join_nodes(fleet, 3);
  load_demo(fleet);

  // A torn frame fires exactly once (a crash mid-send).  The scatter call
  // it hits is idempotent, so the transport retries it on a fresh
  // connection and the gather completes whole — no degradation at all.
  fault::arm("wire.frame.torn",
             {.mode = fault::FaultMode::kTornWrite, .count = 4});
  auto got = fleet.query(
      QueryBuilder("fleet_demo").select(Aggregate::kCount, "value").build());
  const std::uint64_t fired = fault::fire_count("wire.frame.torn");
  fault::disarm("wire.frame.torn");
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  EXPECT_EQ(fired, 1u);
  EXPECT_FALSE(got->degraded());
  EXPECT_EQ(got->result.rows.front().back(),
            static_cast<double>(kSeries * kPerSeries));
}

TEST(WireFleet, ZeroAckedPointLossUnderSendChaos) {
  Fleet fleet(wire_options());
  join_nodes(fleet, 3);

  // Random send failures while single-point batches stream in.  An acked
  // batch must be durably applied; an unacked one may or may not be — the
  // at-most-once deliver contract.
  fault::arm("wire.send", {.mode = fault::FaultMode::kErrorRate,
                           .rate = 0.3,
                           .seed = 42});
  constexpr std::size_t kBatches = 40;
  std::vector<bool> acked(kBatches, false);
  std::size_t ack_count = 0;
  for (std::size_t i = 0; i < kBatches; ++i) {
    tsdb::Point point;
    point.measurement = "chaos_writes";
    point.tags["series"] = series_id(i);
    point.time = static_cast<TimeNs>(i + 1) * kStep;
    point.fields["value"] = static_cast<double>(i);
    acked[i] = fleet.write_batch({point}).is_ok();
    if (acked[i]) ++ack_count;
  }
  fault::disarm("wire.send");
  ASSERT_TRUE(fleet.flush().is_ok());
  ASSERT_GT(ack_count, 0u) << "fault rate ate every ack; retune the seed";
  ASSERT_LT(ack_count, kBatches) << "fault never fired; retune the seed";

  for (std::size_t i = 0; i < kBatches; ++i) {
    if (!acked[i]) continue;
    auto got = fleet.query(QueryBuilder("chaos_writes")
                               .select(Aggregate::kCount, "value")
                               .where_tag("series", series_id(i))
                               .build());
    ASSERT_TRUE(got.has_value()) << series_id(i);
    EXPECT_FALSE(got->degraded());
    ASSERT_EQ(got->result.rows.size(), 1u);
    EXPECT_EQ(got->result.rows.front().back(), 1.0)
        << "acked batch " << series_id(i) << " lost";
  }
}

TEST(WireFleet, GossipConvergesOverTheWire) {
  Fleet fleet(wire_options());
  join_nodes(fleet, 3);
  load_demo(fleet);

  TimeNs now = kNsPerSec;
  for (int round = 0; round < 4; ++round) {
    now += kNsPerSec;
    fleet.tick(now);
  }
  EXPECT_EQ(fleet.overall(now), HealthState::kHealthy);

  ASSERT_TRUE(fleet.kill_node("node-02").is_ok());
  now += fleet.gossip().suspect_after_ns() + 2 * kNsPerSec;
  fleet.tick(now);
  EXPECT_NE(fleet.overall(now), HealthState::kHealthy);
}

}  // namespace
}  // namespace pmove::fleet::wire
