#include "ingest/engine.hpp"

#include <algorithm>
#include <cstdio>

#include "fault/fault.hpp"
#include "metrics/names.hpp"
#include "query/plan.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace pmove::ingest {

namespace {

constexpr std::int64_t kWorkerIdleNs = 50'000'000;  // spill-drain cadence
/// Checkpoint snapshot of the engine's store, relative to the WAL dir.
constexpr char kSnapshotFile[] = "/checkpoint.lp";

std::uint64_t fnv1a(std::uint64_t hash, std::string_view data) {
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace

std::string_view to_string(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kDrop:
      return "drop";
    case BackpressurePolicy::kBlock:
      return "block";
    case BackpressurePolicy::kSpill:
      return "spill";
  }
  return "unknown";
}

Expected<BackpressurePolicy> parse_backpressure(std::string_view name) {
  if (name == "drop") return BackpressurePolicy::kDrop;
  if (name == "block") return BackpressurePolicy::kBlock;
  if (name == "spill") return BackpressurePolicy::kSpill;
  return Status::invalid_argument("unknown backpressure policy: " +
                                  std::string(name));
}

IngestEngine::IngestEngine(IngestOptions options,
                           tsdb::TimeSeriesDb* external)
    : options_(std::move(options)),
      owned_(external == nullptr ? std::make_unique<tsdb::TimeSeriesDb>()
                                 : nullptr),
      db_(external != nullptr ? external : owned_.get()) {
  static const WallClock kWallClock;
  clock_ = options_.clock != nullptr ? options_.clock : &kWallClock;
  sleep_ = options_.sleep ? options_.sleep : real_sleep();
  if (options_.shard_count < 1) {
    log_warn("ingest") << "shard_count " << options_.shard_count
                       << " out of range, clamping to 1";
    options_.shard_count = 1;
  }
  if (options_.queue_capacity < 1) {
    log_warn("ingest") << "queue_capacity 0 out of range, clamping to 1";
    options_.queue_capacity = 1;
  }
  metrics::Registry& reg = metrics::Registry::global();
  const char* m = metrics::kMeasurementIngest;
  for (int i = 0; i < options_.shard_count; ++i) {
    auto shard = std::make_unique<Shard>(options_.queue_capacity);
    shard->breaker = std::make_unique<CircuitBreaker>(
        "ingest.shard" + std::to_string(i), options_.sink_breaker, clock_);
    shard->seed = mix_seed(0x50'4d'56u, static_cast<std::uint64_t>(i));
    const std::string instance = "shard" + std::to_string(i);
    shard->m_drops = &reg.counter(m, instance, "dropped_points");
    shard->m_spills = &reg.counter(m, instance, "spilled_points");
    shard->m_replays = &reg.counter(m, instance, "replayed_batches");
    shard->m_depth = &reg.gauge(m, instance, "queue_depth");
    shards_.push_back(std::move(shard));
  }
  wal_breaker_ = std::make_unique<CircuitBreaker>(
      "ingest.wal", options_.wal_breaker, clock_);
}

IngestEngine::~IngestEngine() { close(); }

Status IngestEngine::open() {
  if (running_) return Status::ok();
  if (options_.policy == BackpressurePolicy::kSpill && !wal_enabled()) {
    return Status::invalid_argument(
        "spill backpressure requires a WAL directory");
  }
  if (wal_enabled()) {
    WalOptions wal_options;
    wal_options.dir = options_.wal_dir;
    wal_options.segment_bytes = options_.wal_segment_bytes;
    wal_options.sync_each_append = options_.wal_sync_each_append;
    if (Status s = wal_.open(std::move(wal_options)); !s.is_ok()) return s;
    // The checkpoint snapshot holds everything that was truncated out of
    // the log; the log holds only post-checkpoint records, so loading the
    // snapshot first and then replaying reproduces the full state with no
    // duplicates.
    if (Status s = load_snapshot(); !s.is_ok()) return s;
    // Recovery: re-ingest every surviving batch synchronously (workers are
    // not running yet).  The records stay in the WAL — the in-memory DB is
    // volatile, so the log remains the source of durability until an
    // explicit checkpoint.
    Status replay_status = wal_.replay([this](std::string_view payload) {
      Batch batch;
      std::size_t start = 0;
      while (start <= payload.size()) {
        std::size_t end = payload.find('\n', start);
        if (end == std::string_view::npos) end = payload.size();
        std::string_view line = payload.substr(start, end - start);
        if (!strings::trim(line).empty()) {
          auto point = tsdb::Point::from_line(line);
          if (!point) return point.status();
          batch.push_back(std::move(point.value()));
        }
        start = end + 1;
      }
      if (batch.empty()) return Status::ok();
      recovered_points_ += batch.size();
      inserted_points_ += batch.size();
      return db_->write_batch(std::move(batch));
    });
    if (!replay_status.is_ok()) return replay_status;
  }
  running_ = true;
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, raw = shard.get()] {
      worker_loop(*raw);
    });
  }
  return Status::ok();
}

void IngestEngine::close() {
  if (!running_) return;
  // Draining tells the workers to abandon parked batches they cannot
  // deliver (the sink is still down): without this, flush() below would
  // wait for a recovery that may never come.  The abandoned batches are in
  // the WAL, so the next open() replays them.
  draining_.store(true, std::memory_order_release);
  (void)flush();
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  wal_.close();
  draining_.store(false, std::memory_order_relaxed);
  running_ = false;
}

Status IngestEngine::reopen() {
  if (!running_) return open();
  // The engine is alive; the supervisor believes the downstream fault is
  // fixed.  Force the breakers closed so traffic (and parked replay)
  // resumes immediately instead of waiting out cooldowns.
  for (auto& shard : shards_) shard->breaker->reset();
  wal_breaker_->reset();
  return Status::ok();
}

// --------------------------------------------------------------- write path

Status IngestEngine::submit(Batch batch) {
  return submit_internal(std::move(batch), SubmitMode::kPolicy, -1);
}

Status IngestEngine::try_submit(Batch batch) {
  return submit_internal(std::move(batch), SubmitMode::kNever, -1);
}

Status IngestEngine::submit_with_timeout(Batch batch, TimeNs timeout_ns) {
  return submit_internal(std::move(batch), SubmitMode::kTimeout, timeout_ns);
}

Status IngestEngine::write_batch(Batch points) {
  return submit(std::move(points));
}

Status IngestEngine::submit_lines(std::string_view text) {
  Batch batch;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    if (!strings::trim(line).empty()) {
      auto point = tsdb::Point::from_line(line);
      if (!point) return point.status();
      batch.push_back(std::move(point.value()));
    }
    start = end + 1;
  }
  if (batch.empty()) return Status::ok();
  return submit(std::move(batch));
}

Status IngestEngine::wal_append_batch(const Batch& batch) {
  if (!wal_enabled()) return Status::ok();
  // Breaker-guarded: a dying disk fails producers fast (kAborted) instead
  // of making every submit ride out the full retry budget.
  if (!wal_breaker_->allow()) {
    return wal_breaker_->reject_status();
  }
  std::string payload;
  for (const tsdb::Point& p : batch) {
    payload += p.to_line();
    payload += '\n';
  }
  Status result =
      retry(options_.wal_retry, *clock_, sleep_, /*seed=*/0x3a1u, [&] {
        auto lsn = wal_.append(payload);
        return lsn ? Status::ok() : lsn.status();
      });
  if (!result.is_ok()) {
    wal_breaker_->record_failure();
    wal_failures_ += 1;
    report_component(wal_healthy_, "ingest.wal", result);
    return result;
  }
  wal_breaker_->record_success();
  report_component(wal_healthy_, "ingest.wal", Status::ok());
  return result;
}

Status IngestEngine::submit_internal(Batch batch, SubmitMode mode,
                                     TimeNs timeout_ns) {
  if (!running_) return Status::unavailable("ingest engine not open");
  if (batch.empty()) return Status::ok();
  for (const tsdb::Point& p : batch) {
    if (p.measurement.empty()) {
      return Status::invalid_argument("point missing measurement");
    }
    if (p.fields.empty()) {
      return Status::invalid_argument("point has no fields");
    }
  }
  submitted_batches_ += 1;
  submitted_points_ += batch.size();

  // Held (shared) across append + queue hand-off so checkpoint() can never
  // truncate a record whose batch has not reached pending_ yet — the gap
  // between "in the WAL" and "counted by wait_drained" would otherwise lose
  // the batch: not in the snapshot, no longer in the log.
  std::shared_lock<std::shared_mutex> gate(checkpoint_gate_);

  // Acknowledge durability first: once the WAL append returns, the batch
  // survives a crash no matter what the queues do.
  if (Status s = wal_append_batch(batch); !s.is_ok()) return s;

  std::vector<Batch> parts(shards_.size());
  for (tsdb::Point& p : batch) {
    parts[static_cast<std::size_t>(shard_of(p))].push_back(std::move(p));
  }

  Status result = Status::ok();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].empty()) continue;
    Shard& shard = *shards_[i];
    const std::size_t n = parts[i].size();
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      ++pending_;
    }
    bool accepted = shard.queue.try_push(std::move(parts[i]));
    if (!accepted) {
      switch (mode == SubmitMode::kPolicy
                  ? options_.policy
                  : BackpressurePolicy::kDrop) {
        case BackpressurePolicy::kBlock:
          blocked_submits_ += 1;
          accepted = shard.queue.push_wait(std::move(parts[i]), -1);
          break;
        case BackpressurePolicy::kSpill: {
          std::lock_guard<std::mutex> lock(shard.spill_mutex);
          shard.spill.push_back(std::move(parts[i]));
          spilled_points_ += n;
          shard.m_spills->add(n);
          accepted = true;
          break;
        }
        case BackpressurePolicy::kDrop:
          if (mode == SubmitMode::kTimeout) {
            blocked_submits_ += 1;
            accepted = shard.queue.push_wait(std::move(parts[i]), timeout_ns);
          }
          break;
      }
    }
    if (!accepted) {
      {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        --pending_;
      }
      pending_cv_.notify_all();
      dropped_points_ += n;
      shard.m_drops->add(n);
      result = Status::unavailable("ingest queue full: shard " +
                                   std::to_string(i));
    } else {
      const std::size_t depth = shard.queue.size();
      shard.m_depth->set(static_cast<double>(depth));
      std::size_t seen = max_queue_depth_.load();
      while (depth > seen &&
             !max_queue_depth_.compare_exchange_weak(seen, depth)) {
      }
    }
  }
  return result;
}

// -------------------------------------------------------------- worker side

void IngestEngine::worker_loop(Shard& shard) {
  while (true) {
    std::vector<Batch> batches = shard.queue.pop_all(kWorkerIdleNs);
    // Replay parked batches first so a recovering sink sees the shard's
    // traffic in submission order.
    drain_parked(shard);
    for (Batch& batch : batches) {
      apply_batch(shard, std::move(batch));
    }
    // Drain the spill tier after each round: spilled batches are already
    // WAL-durable, this is just their deferred path into storage.
    std::deque<Batch> spilled;
    {
      std::lock_guard<std::mutex> lock(shard.spill_mutex);
      spilled.swap(shard.spill);
    }
    for (Batch& batch : spilled) {
      apply_batch(shard, std::move(batch));
    }
    if (draining_.load(std::memory_order_acquire)) drain_parked(shard);
    if (shard.queue.is_closed() && batches.empty() && spilled.empty() &&
        shard.queue.size() == 0 && shard.parked.empty()) {
      std::lock_guard<std::mutex> lock(shard.spill_mutex);
      if (shard.spill.empty()) break;
    }
  }
}

void IngestEngine::apply_batch(Shard& shard, Batch batch) {
  // During an outage keep per-shard order: new batches queue up behind the
  // parked ones instead of racing a half-open breaker.
  if (!shard.parked.empty()) {
    parked_points_ += batch.size();
    shard.parked.push_back(std::move(batch));
    return;
  }
  if (Status s = deliver_batch(shard, batch); !s.is_ok()) {
    // Transient sink failure or open breaker: park.  pending_ stays
    // elevated so flush() blocks until recovery — the outage degrades to
    // latency, not loss.
    parked_points_ += batch.size();
    shard.parked.push_back(std::move(batch));
    return;
  }
  note_applied(1);
}

Status IngestEngine::deliver_batch(Shard& shard, Batch& batch) {
  CircuitBreaker& breaker = *shard.breaker;
  if (!breaker.allow()) return breaker.reject_status();
  // Adaptive retry budget: without an explicit deadline, give this
  // delivery clamp(multiplier x EWMA(latency), floor, cap) of wall time —
  // observed behaviour, not a tuned constant, decides how long a retry
  // storm may run.
  RetryPolicy policy = options_.sink_retry;
  if (options_.adaptive_sink_deadline && policy.deadline_ns == 0) {
    policy.deadline_ns = options_.sink_latency_budget.deadline(
        shard.sink_latency);
  }
  const TimeNs delivery_start = clock_->now();
  // The injection point sits before the batch is moved into the sink so a
  // simulated outage leaves it intact for parking and replay.
  Status injected =
      retry(policy, *clock_, sleep_, shard.seed,
            [] { return fault::point("tsdb.write_batch"); });
  if (!injected.is_ok()) {
    breaker.record_failure();
    sink_failures_ += 1;
    report_component(shard.healthy, breaker.name(), injected);
    return injected;
  }
  const std::size_t n = batch.size();
  if (Status s = db_->write_batch(std::move(batch)); !s.is_ok()) {
    // Points were validated at submit, so a refusal here is deterministic
    // (poison), not an outage: count it and drop rather than retry the
    // same error forever.
    rejected_points_ += n;
    breaker.record_success();  // the sink answered; don't trip
    return Status::ok();
  }
  inserted_points_ += n;
  breaker.record_success();
  report_component(shard.healthy, breaker.name(), Status::ok());
  // Only answered deliveries feed the latency estimate: a failed one
  // measures the outage, not the sink's pace.
  shard.sink_latency.update(
      static_cast<double>(clock_->now() - delivery_start));
  shard.sink_latency_ns.store(
      static_cast<std::uint64_t>(shard.sink_latency.value()),
      std::memory_order_relaxed);
  return Status::ok();
}

TimeNs IngestEngine::sink_deadline_ns(int shard) const {
  if (options_.sink_retry.deadline_ns != 0) {
    return options_.sink_retry.deadline_ns;
  }
  if (!options_.adaptive_sink_deadline) return 0;
  // Read through the atomic mirror: this accessor runs off-worker.
  Ewma mirror;
  const std::uint64_t ewma_ns =
      shards_[static_cast<std::size_t>(shard)]->sink_latency_ns.load(
          std::memory_order_relaxed);
  if (ewma_ns > 0) mirror.update(static_cast<double>(ewma_ns));
  return options_.sink_latency_budget.deadline(mirror);
}

void IngestEngine::drain_parked(Shard& shard) {
  while (!shard.parked.empty()) {
    Batch& front = shard.parked.front();
    const std::size_t n = front.size();
    if (Status s = deliver_batch(shard, front); !s.is_ok()) break;
    replayed_points_ += n;
    shard.m_replays->inc();
    shard.parked.pop_front();
    note_applied(1);
  }
  if (!shard.parked.empty() &&
      draining_.load(std::memory_order_acquire)) {
    // Closing with the sink still down: drop the in-memory copies.  They
    // were acknowledged against the WAL, so the next open() replays them.
    while (!shard.parked.empty()) {
      abandoned_points_ += shard.parked.front().size();
      shard.parked.pop_front();
      note_applied(1);
    }
  }
}

void IngestEngine::report_component(std::atomic<bool>& healthy,
                                    const std::string& name,
                                    const Status& status) {
  if (options_.health == nullptr) return;
  const bool ok = status.is_ok();
  if (healthy.exchange(ok) == ok) return;  // report transitions only
  if (ok) {
    options_.health->report_healthy(name);
  } else {
    options_.health->report_failed(name, status.message());
  }
}

void IngestEngine::note_applied(std::size_t batches) {
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_ -= std::min(pending_, batches);
  }
  pending_cv_.notify_all();
}

void IngestEngine::wait_drained() {
  std::unique_lock<std::mutex> lock(pending_mutex_);
  pending_cv_.wait(lock, [this] { return pending_ == 0; });
}

Status IngestEngine::flush() {
  if (!running_) return Status::ok();
  flushes_ += 1;
  wait_drained();
  // The engine is quiescent here, which makes flush the natural place for
  // the segment-count trigger.  Never during close(): drain_parked may have
  // abandoned batches whose only surviving copy is in the WAL — truncating
  // now would turn their deferred replay into loss.
  if (options_.wal_max_segments > 0 && wal_enabled() &&
      !draining_.load(std::memory_order_acquire) &&
      wal_.segment_count() > options_.wal_max_segments) {
    return checkpoint();
  }
  return Status::ok();
}

Status IngestEngine::checkpoint() {
  if (!running_) return Status::unavailable("ingest engine not open");
  if (!wal_enabled()) return Status::ok();
  std::lock_guard<std::mutex> serial(checkpoint_mutex_);
  // Exclusive gate: no submit can append to the WAL (or slip into the
  // queues unobserved) between here and the truncation below.  Producers
  // stall briefly; workers keep draining, which is exactly what
  // wait_drained() needs to make the snapshot cover every logged record.
  std::unique_lock<std::shared_mutex> gate(checkpoint_gate_);
  wait_drained();
  if (Status s = write_snapshot(); !s.is_ok()) return s;
  if (Status s = wal_.checkpoint(); !s.is_ok()) return s;
  checkpoints_ += 1;
  return Status::ok();
}

Status IngestEngine::write_snapshot() const {
  // tmp + rename: a crash mid-dump leaves the previous snapshot intact.
  const std::string path = options_.wal_dir + kSnapshotFile;
  const std::string tmp = path + ".tmp";
  if (Status s = db_->dump_to_file(tmp); !s.is_ok()) return s;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::internal("cannot install snapshot: " + path);
  }
  return Status::ok();
}

Status IngestEngine::load_snapshot() {
  // Attached store: its owner restores its own state (the daemon's
  // load_session reads timeseries.lp, which save_session dumped
  // immediately before checkpointing) — auto-loading checkpoint.lp here
  // would double every restored point.  The snapshot still exists on disk
  // for operators recovering without a session directory.
  if (owned_ == nullptr) return Status::ok();
  const std::size_t before = db_->point_count();
  Status loaded = db_->load_from_file(options_.wal_dir + kSnapshotFile);
  // kNotFound: never checkpointed — nothing to load.
  if (!loaded.is_ok() && loaded.code() != ErrorCode::kNotFound) return loaded;
  const std::size_t gained = db_->point_count() - before;
  if (gained > 0) {
    recovered_points_ += gained;
    inserted_points_ += gained;
  }
  return Status::ok();
}

// ---------------------------------------------------------------- read path

Expected<tsdb::QueryResult> IngestEngine::query(
    std::string_view text) const {
  return query::run(*db_, text);
}

std::size_t IngestEngine::point_count() const { return db_->point_count(); }

std::vector<std::string> IngestEngine::measurements() const {
  return db_->measurements();
}

// ------------------------------------------------------------ introspection

int IngestEngine::shard_of(const tsdb::Point& point) const {
  std::uint64_t hash = fnv1a(14695981039346656037ULL, point.measurement);
  hash = fnv1a(hash, "\x1f");
  for (const auto& [k, v] : point.tags) {
    hash = fnv1a(hash, k);
    hash = fnv1a(hash, "=");
    hash = fnv1a(hash, v);
    hash = fnv1a(hash, ",");
  }
  return static_cast<int>(hash % shards_.size());
}

IngestStats IngestEngine::stats() const {
  IngestStats s;
  s.submitted_batches = submitted_batches_.load();
  s.submitted_points = submitted_points_.load();
  s.inserted_points = inserted_points_.load();
  s.dropped_points = dropped_points_.load();
  s.spilled_points = spilled_points_.load();
  s.blocked_submits = blocked_submits_.load();
  s.recovered_points = recovered_points_.load();
  s.wal_records = wal_.record_count();
  s.wal_bytes = wal_.bytes_appended();
  s.flushes = flushes_.load();
  s.checkpoints = checkpoints_.load();
  s.max_queue_depth = max_queue_depth_.load();
  s.sink_failures = sink_failures_.load();
  s.wal_failures = wal_failures_.load();
  s.parked_points = parked_points_.load();
  s.replayed_points = replayed_points_.load();
  s.rejected_points = rejected_points_.load();
  s.abandoned_points = abandoned_points_.load();
  for (const auto& shard : shards_) {
    s.sink_latency_ewma_ns =
        std::max(s.sink_latency_ewma_ns,
                 shard->sink_latency_ns.load(std::memory_order_relaxed));
  }
  return s;
}

}  // namespace pmove::ingest
