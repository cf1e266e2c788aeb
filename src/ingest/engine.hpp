// Sharded, batched, WAL-backed telemetry ingestion engine.
//
// Sits between the samplers and the storage tier (TimeSeriesDb / SuperDb)
// and replaces the paper's lossy "no buffer or queue mechanism" shipping
// path (Section V-A, Table III) with a real ingestion tier:
//
//   * sharding     — points are routed by hash(measurement, tags) onto N
//                    shards, each with its own bounded MPSC queue and worker
//                    thread, so concurrent producers never contend on one
//                    queue;
//   * batching     — writers submit whole batches that are decoded once and
//                    bulk-inserted by each shard's worker
//                    (TimeSeriesDb::write_batch);
//   * backpressure — a full queue triggers one of {drop, block, spill}
//                    instead of unconditional loss;
//   * durability   — every acknowledged batch is appended to a CRC-checked
//                    write-ahead log before it is queued; recovery-on-open
//                    replays the log into storage.
//
// Storage: the engine writes, reads and snapshots exactly one TimeSeriesDb —
// the caller's (the daemon's, a fleet node's) or, when the caller passes
// none, one it owns.  Shards are batching/backpressure stages in front of
// that store, never stores of their own.
//
// Self-telemetry: stats() is the one copy of the engine-wide counters (the
// daemon exports its engine's as pmove_ingest{instance=engine}); per-shard
// drops, spills, replays and queue depth go to the registry directly.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ingest/ring_buffer.hpp"
#include "ingest/wal.hpp"
#include "metrics/registry.hpp"
#include "tsdb/db.hpp"
#include "tsdb/sink.hpp"
#include "util/breaker.hpp"
#include "util/clock.hpp"
#include "util/ewma.hpp"
#include "util/health.hpp"
#include "util/retry.hpp"
#include "util/status.hpp"

namespace pmove::ingest {

/// What happens to a batch whose target shard queue is full.
enum class BackpressurePolicy {
  kDrop,   ///< count it and lose it (the paper's Table III behaviour)
  kBlock,  ///< the producer waits for queue space — zero loss
  kSpill,  ///< park it in the spill tier (WAL-durable) — zero loss
};

std::string_view to_string(BackpressurePolicy policy);
Expected<BackpressurePolicy> parse_backpressure(std::string_view name);

struct IngestOptions {
  int shard_count = 4;
  /// Batches per shard queue.
  std::size_t queue_capacity = 64;
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  /// Empty = no WAL (no durability, no spill backing store).
  std::string wal_dir;
  std::size_t wal_segment_bytes = 1u << 20;
  bool wal_sync_each_append = false;
  /// Automatic checkpoint trigger: when a flush() finds more than this many
  /// WAL segments on disk, the engine checkpoints (snapshot storage into
  /// <wal_dir>/checkpoint.lp, then truncate the log).  0 = no automatic
  /// trigger; checkpoint() remains available.  Env: PMOVE_WAL_MAX_SEGMENTS.
  std::size_t wal_max_segments = 0;

  // ----------------------------------------------------------- resilience
  /// Retry budget for one delivery attempt into the storage sink (per
  /// batch, inside the shard worker).
  RetryPolicy sink_retry;
  /// Adaptive retry budget (ROADMAP): when enabled and `sink_retry` has no
  /// explicit deadline, each shard derives its delivery deadline from the
  /// EWMA of its observed sink latencies — deadline = clamp(multiplier x
  /// ewma, floor, cap) — so a healthy 50 us sink fails fast while a sink
  /// that legitimately takes 20 ms gets room, without retuning constants.
  /// An explicit `sink_retry.deadline_ns` always wins.
  bool adaptive_sink_deadline = true;
  /// The floor doubles as the pre-warm-up deadline; it is deliberately far
  /// above the worst-case jitter sleep of the default policy, so enabling
  /// adaptation never tightens a default-configured engine.
  LatencyBudget sink_latency_budget{.multiplier = 8.0,
                                    .floor_ns = 250'000'000,
                                    .cap_ns = 10'000'000'000};
  /// Retry budget for WAL appends (on the producer's submit path — keep
  /// the deadline short so submit latency stays bounded).
  RetryPolicy wal_retry{.max_attempts = 2, .deadline_ns = 50'000'000};
  /// Breaker in front of each shard's storage sink; while open, batches
  /// park in the worker (WAL-durable) and replay on half-open success.
  BreakerOptions sink_breaker;
  BreakerOptions wal_breaker;
  /// Optional: ingest components ("ingest.wal", "ingest.shard<i>") report
  /// state transitions here.  Not owned; must outlive the engine.
  HealthRegistry* health = nullptr;
  /// Time source for breakers / retry deadlines (nullptr = wall clock) and
  /// the sleep used between retries (empty = real sleep).  Tests inject a
  /// VirtualClock and a sleep that advances it.
  const Clock* clock = nullptr;
  SleepFn sleep;
};

/// Monotonic self-telemetry counters (snapshot).
struct IngestStats {
  std::uint64_t submitted_batches = 0;
  std::uint64_t submitted_points = 0;
  std::uint64_t inserted_points = 0;   ///< applied to storage
  std::uint64_t dropped_points = 0;    ///< lost to kDrop backpressure
  std::uint64_t spilled_points = 0;    ///< routed through the spill tier
  std::uint64_t blocked_submits = 0;   ///< submits that had to wait
  std::uint64_t recovered_points = 0;  ///< replayed from the WAL on open
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t checkpoints = 0;  ///< snapshot+truncate cycles completed
  std::size_t max_queue_depth = 0;
  // Resilience counters.
  std::uint64_t sink_failures = 0;   ///< failed delivery attempts (post-retry)
  std::uint64_t wal_failures = 0;    ///< failed WAL appends (post-retry)
  std::uint64_t parked_points = 0;   ///< points parked while the sink was down
  std::uint64_t replayed_points = 0; ///< parked points delivered on recovery
  std::uint64_t rejected_points = 0; ///< poison batches the sink refused
  std::uint64_t abandoned_points = 0;  ///< parked points dropped at close()
                                       ///< (still WAL-durable)
  /// Worst per-shard EWMA of observed sink delivery latency (0 until the
  /// first delivery); the adaptive retry deadline is derived from this.
  std::uint64_t sink_latency_ewma_ns = 0;
};

class IngestEngine final : public tsdb::PointSink {
 public:
  /// `external` != nullptr attaches the engine to an existing DB; otherwise
  /// the engine owns one.  Call open() before submitting.
  explicit IngestEngine(IngestOptions options,
                        tsdb::TimeSeriesDb* external = nullptr);
  ~IngestEngine() override;

  IngestEngine(const IngestEngine&) = delete;
  IngestEngine& operator=(const IngestEngine&) = delete;

  /// Opens the WAL (replaying any surviving records into storage) and
  /// starts the shard workers.
  Status open();

  /// Flushes, stops workers, closes the WAL.  Idempotent.
  void close();

  // ----------------------------------------------------------- write path

  /// Submits a batch under the configured backpressure policy.  On return
  /// the batch is acknowledged: durable in the WAL (when enabled) and
  /// queued, spilled, or — under kDrop with full queues — counted as lost.
  Status submit(std::vector<tsdb::Point> batch);

  /// Never blocks: full queues drop (regardless of policy) and report
  /// kUnavailable.
  Status try_submit(std::vector<tsdb::Point> batch);

  /// Blocks at most `timeout_ns` for queue space, then reports
  /// kUnavailable (points beyond the timeout are dropped).
  Status submit_with_timeout(std::vector<tsdb::Point> batch,
                             TimeNs timeout_ns);

  /// Line-protocol entry point: decodes once, then submit().
  Status submit_lines(std::string_view text);

  // PointSink: lets samplers target the engine transparently (single
  // points arrive through the base-class write() convenience).
  Status write_batch(std::vector<tsdb::Point> points) override;

  /// Blocks until every queued and spilled batch has been applied.  When
  /// `wal_max_segments` is set and the WAL has outgrown it, finishes with an
  /// automatic checkpoint() — flush is the engine's quiescent point, so it
  /// doubles as the segment-count trigger.
  Status flush();

  /// Durability checkpoint: drains in-flight batches, snapshots the store to
  /// <wal_dir>/checkpoint.lp (atomic tmp+rename), then truncates every WAL
  /// segment.  Producers pause at the WAL gate for the duration, so no
  /// acknowledged record can fall between snapshot and truncation.
  /// Owned store: the next open() loads the snapshot before replaying the
  /// (short) log.  Attached store: the snapshot is written but NOT
  /// auto-loaded on open — the attached DB's owner restores state (the
  /// daemon's save_session dumps, then calls this; load_session restores
  /// the dump and open() replays only the post-checkpoint tail).
  /// No-op without a WAL.  Replaces the manual-only wal().checkpoint() flow.
  Status checkpoint();

  // ------------------------------------------------------------ read path

  /// Uncached query over the engine's store (query::run).
  [[nodiscard]] Expected<tsdb::QueryResult> query(
      std::string_view text) const;

  [[nodiscard]] std::size_t point_count() const;
  [[nodiscard]] std::vector<std::string> measurements() const;

  // -------------------------------------------------------- introspection

  /// Deterministic shard routing (FNV-1a over measurement and tags).
  [[nodiscard]] int shard_of(const tsdb::Point& point) const;
  [[nodiscard]] int shard_count() const {
    return static_cast<int>(shards_.size());
  }

  [[nodiscard]] IngestStats stats() const;

  [[nodiscard]] bool wal_enabled() const { return !options_.wal_dir.empty(); }
  [[nodiscard]] const Wal& wal() const { return wal_; }

  // --------------------------------------------------------- resilience

  /// Supervisor hook: clears breakers (and reopens everything when the
  /// engine was closed) after the operator / supervisor fixed the fault.
  Status reopen();

  /// Breaker in front of shard `i`'s storage sink (introspection/tests).
  [[nodiscard]] const CircuitBreaker& sink_breaker(int shard) const {
    return *shards_[static_cast<std::size_t>(shard)]->breaker;
  }
  /// The delivery deadline shard `i` would use right now: the explicit
  /// `sink_retry.deadline_ns` if set, else the EWMA-derived adaptive
  /// budget (0 when adaptation is disabled too).
  [[nodiscard]] TimeNs sink_deadline_ns(int shard) const;
  [[nodiscard]] const CircuitBreaker& wal_breaker() const {
    return *wal_breaker_;
  }

 private:
  using Batch = std::vector<tsdb::Point>;

  struct Shard {
    explicit Shard(std::size_t queue_capacity) : queue(queue_capacity) {}
    BoundedQueue<Batch> queue;
    std::thread worker;
    // Spill tier: overflow batches (already WAL-durable) the worker drains
    // after each queue round.
    std::mutex spill_mutex;
    std::deque<Batch> spill;
    // Delivery resilience: breaker in front of the storage sink, plus the
    // worker-private park list of batches whose delivery failed.  Parked
    // batches keep pending_ elevated (flush() blocks) and replay in order
    // once the breaker lets traffic through again.
    std::unique_ptr<CircuitBreaker> breaker;
    std::deque<Batch> parked;
    std::uint64_t seed = 0;          ///< retry-jitter stream
    std::atomic<bool> healthy{true};  ///< last reported sink health
    // Adaptive retry budget: EWMA of successful delivery latencies,
    // worker-confined (only this shard's worker updates or reads it on the
    // delivery path); the atomic mirror is for stats()/introspection.
    Ewma sink_latency;
    std::atomic<std::uint64_t> sink_latency_ns{0};
    // pmove_ingest self-telemetry, instance "shard<i>".  All engines in the
    // process share these series (the registry is global); stats() keeps
    // the per-engine totals.
    metrics::Counter* m_drops = nullptr;
    metrics::Counter* m_spills = nullptr;
    metrics::Counter* m_replays = nullptr;  ///< parked batches replayed
    metrics::Gauge* m_depth = nullptr;      ///< queue depth at last submit
  };

  enum class SubmitMode { kPolicy, kNever, kTimeout };

  Status submit_internal(Batch batch, SubmitMode mode, TimeNs timeout_ns);
  Status wal_append_batch(const Batch& batch);
  /// flush() minus the auto-checkpoint trigger (checkpoint() itself needs
  /// to drain without recursing).
  void wait_drained();
  /// Loads the checkpoint snapshot into an owned store (recovery, before
  /// WAL replay).  A missing file is fine — there was no checkpoint yet.
  Status load_snapshot();
  Status write_snapshot() const;
  void worker_loop(Shard& shard);
  void apply_batch(Shard& shard, Batch batch);
  void note_applied(std::size_t batches);
  /// One guarded delivery attempt: breaker -> retry -> sink.  ok() means
  /// the batch is in storage (or was poison and got counted + dropped);
  /// anything else means "sink down, park me".
  Status deliver_batch(Shard& shard, Batch& batch);
  /// Replays parked batches in order while the breaker allows; when the
  /// engine is draining (close()) leftover batches are abandoned — they
  /// stay recoverable in the WAL.
  void drain_parked(Shard& shard);
  void report_component(std::atomic<bool>& healthy, const std::string& name,
                        const Status& status);

  IngestOptions options_;
  std::unique_ptr<tsdb::TimeSeriesDb> owned_;  ///< null when attached
  tsdb::TimeSeriesDb* db_ = nullptr;           ///< the one store; never null
  const Clock* clock_ = nullptr;  ///< never null after construction
  SleepFn sleep_;
  std::vector<std::unique_ptr<Shard>> shards_;
  Wal wal_;
  std::unique_ptr<CircuitBreaker> wal_breaker_;
  std::atomic<bool> wal_healthy_{true};
  std::atomic<bool> draining_{false};  ///< close() in progress
  bool running_ = false;

  // Batches accepted but not yet applied; flush() waits for zero.
  std::mutex pending_mutex_;
  std::condition_variable pending_cv_;
  std::size_t pending_ = 0;

  // Checkpoint consistency: submits hold the gate shared for their whole
  // acknowledge path (WAL append + queue hand-off), checkpoint() holds it
  // exclusive across snapshot + truncation.  checkpoint_mutex_ serializes
  // concurrent checkpoint() callers.
  std::shared_mutex checkpoint_gate_;
  std::mutex checkpoint_mutex_;
  std::atomic<std::uint64_t> checkpoints_{0};

  std::atomic<std::uint64_t> submitted_batches_{0};
  std::atomic<std::uint64_t> submitted_points_{0};
  std::atomic<std::uint64_t> inserted_points_{0};
  std::atomic<std::uint64_t> dropped_points_{0};
  std::atomic<std::uint64_t> spilled_points_{0};
  std::atomic<std::uint64_t> blocked_submits_{0};
  std::atomic<std::uint64_t> recovered_points_{0};
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::size_t> max_queue_depth_{0};
  std::atomic<std::uint64_t> sink_failures_{0};
  std::atomic<std::uint64_t> wal_failures_{0};
  std::atomic<std::uint64_t> parked_points_{0};
  std::atomic<std::uint64_t> replayed_points_{0};
  std::atomic<std::uint64_t> rejected_points_{0};
  std::atomic<std::uint64_t> abandoned_points_{0};
};

}  // namespace pmove::ingest
