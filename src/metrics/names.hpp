// Self-telemetry measurement names (one constant per exported measurement).
//
// Every measurement the introspection registry exports through the
// MetricsExporter is named here and nowhere else, so the docs checker
// (tools/check_docs.sh) can diff this list against docs/METRICS.md and CI
// fails when a new measurement ships undocumented.
#pragma once

namespace pmove::metrics {

/// Ingest tier: per-shard drop/spill/replay counters and queue depth, plus
/// the daemon's engine totals (IngestEngine::stats(), read at export).
inline constexpr char kMeasurementIngest[] = "pmove_ingest";
/// Write-ahead log: appends, fsyncs, rollbacks, checkpoints, checkpoint lag.
inline constexpr char kMeasurementWal[] = "pmove_wal";
/// Circuit breakers: state transitions, rejects, outcome counters, keyed by
/// breaker name ("ingest.shard0", "ingest.wal", "docdb", ...).
inline constexpr char kMeasurementBreaker[] = "pmove_breaker";
/// HealthRegistry: failures / supervised restarts / state per component.
inline constexpr char kMeasurementHealth[] = "pmove_health";
/// Query engine: the daemon's query counts and result-cache hit/miss/
/// evictions (QueryEngine::stats(), read at export); the shared worker
/// pool's size and task count (instance "pool").
inline constexpr char kMeasurementQuery[] = "pmove_query";
/// Fault injection: trigger/fire counters per armed point.
inline constexpr char kMeasurementFault[] = "pmove_fault";
/// Document store: insert/upsert outcomes behind its retry/breaker tier.
inline constexpr char kMeasurementDocdb[] = "pmove_docdb";
/// Columnar storage engine: series/point counts, tag-dictionary size,
/// resident column bytes, run-compression footprint (compressed_runs,
/// bytes_raw vs bytes_packed, pack_time_ns) of the daemon's store
/// (TimeSeriesDb::stats(), read at export).
inline constexpr char kMeasurementTsdb[] = "pmove_tsdb";
/// Fleet execution tier: routed writes, scatter/gather outcomes, degraded
/// queries, gossip rounds.
inline constexpr char kMeasurementFleet[] = "pmove_fleet";
/// Fleet wire tier: frames/bytes sent and received, connects/reconnects,
/// timeouts, CRC and decode errors, torn frames — instance "transport"
/// (SocketTransport) or "server" (FleetServer).
inline constexpr char kMeasurementWire[] = "pmove_wire";

/// `instance` tag key on every exported point (which breaker, which shard,
/// which health component the fields belong to).
inline constexpr char kInstanceTag[] = "instance";
/// `tier` tag value marking self-telemetry points.
inline constexpr char kTierTag[] = "self";

/// Tag of the ObservationInterface the daemon registers for its own
/// telemetry streams; ViewBuilder::internals_view() builds the "P-MoVE
/// internals" dashboard from it.
inline constexpr char kSelfObservationTag[] = "pmove-internals";

/// Breaker/health state gauges encode their enum numerically:
///   breaker: 0 = closed, 1 = open, 2 = half-open
///   health:  0 = healthy, 1 = degraded, 2 = failed
inline constexpr char kFieldState[] = "state";

}  // namespace pmove::metrics
