#include "core/daemon.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <utility>

#include "carm/microbench.hpp"
#include "fault/fault.hpp"
#include "json/jsonld.hpp"
#include "kb/metrics_catalog.hpp"
#include "kernels/kernels.hpp"
#include "metrics/names.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace pmove::core {

DaemonConfig DaemonConfig::from_env(
    const std::map<std::string, std::string>& env) {
  DaemonConfig config;
  auto lookup = [&env](const char* key) -> std::string {
    if (auto it = env.find(key); it != env.end()) return it->second;
    if (const char* value = std::getenv(key)) return value;
    return "";
  };
  if (auto v = lookup("PMOVE_INFLUX_HOST"); !v.empty()) {
    config.influx_host = v;
  }
  if (auto v = lookup("PMOVE_MONGO_HOST"); !v.empty()) config.mongo_host = v;
  if (auto v = lookup("PMOVE_GRAFANA_TOKEN"); !v.empty()) {
    config.grafana_token = v;
  }
  // Malformed numeric environment values never abort startup: each knob
  // falls back to its default with a logged warning.  (std::atoi would have
  // silently produced 0; std::stoi would have thrown.)  Parseable but
  // out-of-range values are clamped into the valid range — also with a
  // warning — so "PMOVE_INGEST_SHARDS=0" cannot configure a shardless
  // engine that the IngestEngine constructor would silently correct later.
  if (auto v = lookup("PMOVE_INGEST_SHARDS"); !v.empty()) {
    if (auto n = strings::parse_int(v); n) {
      const std::int64_t clamped = std::clamp<std::int64_t>(*n, 1, 1024);
      if (clamped != *n) {
        log_warn("daemon") << "PMOVE_INGEST_SHARDS='" << v
                           << "' out of range [1,1024], clamping to "
                           << clamped;
      }
      config.ingest.shard_count = static_cast<int>(clamped);
    } else {
      log_warn("daemon") << "ignoring PMOVE_INGEST_SHARDS='" << v
                         << "' (want an integer in [1,1024]), keeping "
                         << config.ingest.shard_count;
    }
    config.ingest_enabled = true;
  }
  if (auto v = lookup("PMOVE_INGEST_QUEUE_CAP"); !v.empty()) {
    if (auto n = strings::parse_int(v); n) {
      const std::int64_t clamped =
          std::clamp<std::int64_t>(*n, 1, std::int64_t{1} << 20);
      if (clamped != *n) {
        log_warn("daemon") << "PMOVE_INGEST_QUEUE_CAP='" << v
                           << "' out of range [1,1048576], clamping to "
                           << clamped;
      }
      config.ingest.queue_capacity = static_cast<std::size_t>(clamped);
    } else {
      log_warn("daemon") << "ignoring PMOVE_INGEST_QUEUE_CAP='" << v
                         << "' (want a positive integer), keeping "
                         << config.ingest.queue_capacity;
    }
    config.ingest_enabled = true;
  }
  if (auto v = lookup("PMOVE_RETENTION_S"); !v.empty()) {
    if (auto secs = strings::parse_double(v); secs && *secs >= 0.0) {
      config.retention_ns = from_seconds(*secs);
    } else {
      log_warn("daemon") << "ignoring PMOVE_RETENTION_S='" << v
                         << "' (want a non-negative number of seconds), "
                            "keeping retention disabled";
    }
  }
  if (auto v = lookup("PMOVE_INGEST_POLICY"); !v.empty()) {
    if (auto policy = ingest::parse_backpressure(v)) {
      config.ingest.policy = policy.value();
    } else {
      log_warn("daemon") << policy.status().message() << ", keeping "
                         << ingest::to_string(config.ingest.policy);
    }
    config.ingest_enabled = true;
  }
  if (auto v = lookup("PMOVE_INGEST_WAL_DIR"); !v.empty()) {
    config.ingest.wal_dir = v;
    config.ingest_enabled = true;
  }
  if (auto v = lookup("PMOVE_WAL_MAX_SEGMENTS"); !v.empty()) {
    if (auto n = strings::parse_int(v); n) {
      const std::int64_t clamped =
          std::clamp<std::int64_t>(*n, 1, std::int64_t{1} << 20);
      if (clamped != *n) {
        log_warn("daemon") << "PMOVE_WAL_MAX_SEGMENTS='" << v
                           << "' out of range [1,1048576], clamping to "
                           << clamped;
      }
      config.ingest.wal_max_segments = static_cast<std::size_t>(clamped);
    } else {
      log_warn("daemon") << "ignoring PMOVE_WAL_MAX_SEGMENTS='" << v
                         << "' (want a positive integer), keeping automatic "
                            "checkpointing off";
    }
    config.ingest_enabled = true;
  }
  // Deterministic fault injection (tests, chaos drills):
  //   PMOVE_FAULT="wal.append.fsync=fail_after:100;tsdb.write_batch=error_rate:0.05,seed:7"
  // A malformed spec arms nothing (all-or-nothing parse).
  if (auto v = lookup("PMOVE_FAULT"); !v.empty()) {
    if (Status s = fault::arm_from_spec(v); !s.is_ok()) {
      log_warn("daemon") << "PMOVE_FAULT rejected, nothing armed: "
                         << s.message();
    } else {
      log_info("daemon") << "fault injection armed: " << fault::to_spec();
    }
  }
  return config;
}

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      layer_(abstraction::AbstractionLayer::with_builtin_configs()),
      ts_(tsdb::RetentionPolicy{config_.retention_ns}),
      uuids_(config_.seed) {
  // Passive components have no restart story; they anchor the registry so
  // `pmove health` shows the full surface even before anything fails.
  health_.register_component("tsdb");
  health_.register_component("query");
  // KB writes ride the docdb breaker; "restarting" the store means forcing
  // that breaker closed once the supervisor decides the fault is gone.
  health_.register_component("docdb", [this]() {
    docs_.write_breaker().reset();
    return Status::ok();
  });
}

Status Daemon::enable_ingest() {
  if (ingest_ != nullptr) return Status::ok();
  config_.ingest.health = &health_;
  auto engine =
      std::make_unique<ingest::IngestEngine>(config_.ingest, &ts_);
  if (Status s = engine->open(); !s.is_ok()) return s;
  ingest_ = std::move(engine);
  // Supervised: a failed shard sink or WAL is "restarted" by resetting the
  // engine's breakers (reopen), after which parked batches replay.
  const auto restart_ingest = [this]() { return ingest_->reopen(); };
  for (int i = 0; i < ingest_->shard_count(); ++i) {
    health_.register_component("ingest.shard" + std::to_string(i),
                               restart_ingest);
  }
  health_.register_component("ingest.wal", restart_ingest);
  return Status::ok();
}

Status Daemon::attach_target(std::string_view preset) {
  auto spec = topology::machine_preset(preset);
  if (!spec) return spec.status();
  return attach_target(spec.value());
}

Status Daemon::attach_target(const topology::MachineSpec& spec) {
  // Fig 3, steps 1-2: probing runs "on the target" and the report comes
  // back as JSON; we round-trip through the report to exercise the same
  // path.
  json::Value report = topology::probe_report(spec);
  auto knowledge_base = kb::KnowledgeBase::from_probe_report(report);
  if (!knowledge_base) return knowledge_base.status();
  kb_ = std::move(knowledge_base.value());
  // Validate the abstraction layer against the target's PMU up front.
  const std::string pmu_name{pmu::pmu_short_name(kb_->machine().uarch)};
  if (Status s = layer_.validate(pmu_name, pmu::event_table(kb_->machine().uarch));
      !s.is_ok()) {
    log_warn("daemon") << "abstraction layer incomplete for " << pmu_name
                       << ": " << s.message();
  }
  register_internals_observation();
  return sync_kb();  // step 3
}

void Daemon::register_internals_observation() {
  if (!kb_) return;
  if (kb_->find_observation(metrics::kSelfObservationTag).has_value()) {
    return;  // attach_target called twice: the entry already exists
  }
  // One SampledMetric per self-telemetry measurement the exporter emits;
  // the fields listed are the headline series internals_view() panels show.
  // docs/METRICS.md is the full field reference.
  kb::ObservationInterface observation;
  observation.tag = metrics::kSelfObservationTag;
  observation.id = json::make_dtmi(
      {"dt", kb_->machine().hostname, "observation", "pmove-internals"});
  observation.host = kb_->machine().hostname;
  observation.command = "pmove self-telemetry";
  const struct {
    const char* measurement;
    std::vector<std::string> fields;
  } streams[] = {
      {metrics::kMeasurementIngest,
       {"submitted_points", "inserted_points", "dropped_points",
        "spilled_points", "parked_points"}},
      {metrics::kMeasurementWal,
       {"appends", "fsyncs", "rollbacks", "checkpoints"}},
      {metrics::kMeasurementTsdb,
       {"series", "points", "dict_strings", "dict_bytes", "column_bytes"}},
      {metrics::kMeasurementBreaker, {"opens", "rejects", "state"}},
      {metrics::kMeasurementHealth, {"failures", "restarts", "state"}},
      {metrics::kMeasurementQuery,
       {"queries", "cache_hits", "cache_misses"}},
      {metrics::kMeasurementDocdb, {"inserts", "insert_failures"}},
      {metrics::kMeasurementFault, {"triggers", "fires"}},
  };
  for (const auto& stream : streams) {
    kb::SampledMetric metric;
    metric.sampler_name = std::string("self.") + stream.measurement;
    metric.db_name = stream.measurement;
    metric.fields = stream.fields;
    observation.metrics.push_back(std::move(metric));
  }
  kb_->attach_observation(std::move(observation));
}

Status Daemon::publish_internals(TimeNs now) {
  // The registry is process-wide; setting this daemon's values right
  // before the snapshot makes this export carry them.
  using Fields = std::initializer_list<std::pair<const char*, std::uint64_t>>;
  metrics::Registry& reg = metrics::Registry::global();
  const auto set = [&reg](const char* measurement, const char* instance,
                          Fields fields) {
    for (const auto& [field, value] : fields) {
      reg.gauge(measurement, instance, field).set(static_cast<double>(value));
    }
  };
  const tsdb::TsdbStats db = ts_.stats();
  set(metrics::kMeasurementTsdb, "db",
      {{"series", db.series},
       {"points", db.points},
       {"dict_strings", db.dict_strings},
       {"dict_bytes", db.dict_bytes},
       {"column_bytes", db.column_bytes},
       {"sealed_runs", db.sealed_runs},
       {"run_seals", db.run_seals},
       {"run_folds", db.run_folds},
       {"compressed_runs", db.compressed_runs},
       {"bytes_raw", db.bytes_raw},
       {"bytes_packed", db.bytes_packed},
       {"pack_time_ns", db.pack_time_ns},
       {"index_postings", db.index_postings},
       {"index_probes", db.index_probes},
       {"index_scans", db.index_scans},
       {"index_fallbacks", db.index_fallbacks}});
  if (ingest_ != nullptr) {
    const ingest::IngestStats in = ingest_->stats();
    set(metrics::kMeasurementIngest, "engine",
        {{"submitted_points", in.submitted_points},
         {"inserted_points", in.inserted_points},
         {"dropped_points", in.dropped_points},
         {"spilled_points", in.spilled_points},
         {"blocked_submits", in.blocked_submits},
         {"parked_points", in.parked_points},
         {"replayed_points", in.replayed_points},
         {"abandoned_points", in.abandoned_points},
         {"recovered_points", in.recovered_points},
         {"sink_failures", in.sink_failures},
         {"wal_failures", in.wal_failures}});
  }
  const query::EngineStats q = engine_.stats();
  set(metrics::kMeasurementQuery, "engine",
      {{"queries", q.queries},
       {"cache_hits", q.cache_hits},
       {"cache_misses", q.cache_misses},
       {"cache_evictions", q.cache_evictions}});
  return exporter_.export_once(now);
}

Status Daemon::publish_internals_if_due(TimeNs now) {
  return exporter_.due(now) ? publish_internals(now) : Status::ok();
}

Expected<int> Daemon::run_benchmark(std::string_view name) {
  if (!kb_) return Status::unavailable("no target attached");
  const std::string benchmark = strings::to_upper(name);
  if (benchmark == "CARM") {
    auto recorded = carm::record_carm_campaign(*kb_, config_.seed);
    if (!recorded) return recorded.status();
    if (Status s = sync_kb(); !s.is_ok()) return s;
    return recorded;
  }
  if (benchmark == "STREAM") {
    auto result = kernels::run_stream(1u << 21, 3);
    kb::BenchmarkInterface entry;
    entry.benchmark = "STREAM";
    entry.compiler = "gcc";
    entry.parameters["n"] = std::to_string(1u << 21);
    entry.results = {{"copy_gbs", result.copy_gbs, "GB/s"},
                     {"scale_gbs", result.scale_gbs, "GB/s"},
                     {"add_gbs", result.add_gbs, "GB/s"},
                     {"triad_gbs", result.triad_gbs, "GB/s"}};
    kb_->attach_benchmark(std::move(entry));
    if (Status s = sync_kb(); !s.is_ok()) return s;
    return 1;
  }
  if (benchmark == "HPCG") {
    auto result = kernels::run_hpcg_lite(96, 300, 1e-8);
    if (!result) return result.status();
    kb::BenchmarkInterface entry;
    entry.benchmark = "HPCG";
    entry.compiler = "gcc";
    entry.parameters["grid"] = "96";
    entry.results = {
        {"gflops", result->gflops, "GFLOP/s"},
        {"iterations", static_cast<double>(result->iterations), "count"},
        {"final_residual", result->final_residual, "relative"},
        {"seconds", result->seconds, "s"}};
    kb_->attach_benchmark(std::move(entry));
    if (Status s = sync_kb(); !s.is_ok()) return s;
    return 1;
  }
  return Status::not_found("unknown benchmark campaign: " +
                           std::string(name));
}

Status Daemon::save_dashboard(std::string_view name,
                              const dashboard::Dashboard& dash) {
  json::Value doc = dash.to_json();
  doc.as_object().set("_id", "dashboard:" + std::string(name));
  auto id = docs_.upsert("dashboards", std::move(doc));
  return id ? Status::ok() : id.status();
}

Expected<dashboard::Dashboard> Daemon::load_dashboard(
    std::string_view name) const {
  auto doc = docs_.get("dashboards", "dashboard:" + std::string(name));
  if (!doc) return doc.status();
  return dashboard::Dashboard::from_json(doc.value());
}

std::vector<std::string> Daemon::saved_dashboards() const {
  std::vector<std::string> names;
  for (const auto& doc : docs_.all("dashboards")) {
    if (const json::Value* id = doc.find("_id")) {
      const std::string text = id->string_or("");
      if (text.rfind("dashboard:", 0) == 0) {
        names.push_back(text.substr(10));
      }
    }
  }
  return names;
}

std::size_t Daemon::enforce_retention(TimeNs now) {
  return ts_.enforce_retention(now);
}

Status Daemon::save_session(const std::string& directory) const {
  if (!kb_) return Status::unavailable("no target attached");
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::unavailable("cannot create " + directory + ": " +
                               ec.message());
  }
  if (Status s = docs_.dump_to_file(directory + "/documents.json");
      !s.is_ok()) {
    return s;
  }
  if (Status s = ts_.dump_to_file(directory + "/timeseries.lp");
      !s.is_ok()) {
    return s;
  }
  // The dump above is the durable copy of everything the WAL was covering;
  // checkpointing now keeps the log short and makes the next start replay
  // only what arrived after this save.
  if (ingest_ != nullptr) return ingest_->checkpoint();
  return Status::ok();
}

Status Daemon::load_session(const std::string& directory,
                            std::string_view hostname) {
  if (Status s = docs_.load_from_file(directory + "/documents.json");
      !s.is_ok()) {
    return s;
  }
  if (Status s = ts_.load_from_file(directory + "/timeseries.lp");
      !s.is_ok()) {
    return s;
  }
  auto knowledge_base = kb::KnowledgeBase::load(docs_, hostname);
  if (!knowledge_base) return knowledge_base.status();
  kb_ = std::move(knowledge_base.value());
  return Status::ok();
}

Status Daemon::sync_kb() {
  if (!kb_) return Status::unavailable("no target attached");
  return kb_->store(docs_);
}

Expected<Daemon::ScenarioAResult> Daemon::run_scenario_a(double frequency_hz,
                                                         int metric_count,
                                                         double duration_s) {
  if (!kb_) return Status::unavailable("no target attached");
  if (frequency_hz <= 0.0 || duration_s <= 0.0 || metric_count <= 0) {
    return Status::invalid_argument(
        "frequency, metric count and duration must be positive");
  }
  // PMOVE_INGEST_* asked for the ingest tier; bring it up on first use.
  if (config_.ingest_enabled && ingest_ == nullptr) {
    if (Status s = enable_ingest(); !s.is_ok()) return s;
  }
  // (A1)/(A2) happen together: dashboards are generated from the KB while
  // the target starts reporting.
  dashboard::ViewBuilder builder(&*kb_);
  auto dash = builder.subtree_view(kb_->system_dtmi());
  if (!dash) return dash.status();

  sampler::SessionConfig session;
  session.frequency_hz = frequency_hz;
  session.metric_count = metric_count;
  session.duration_s = duration_s;
  session.seed = config_.seed;
  if (ingest_ != nullptr) {
    // The ingest policy covers the whole path: the transport stops dropping
    // on busy too, otherwise reports are lost before they ever reach the
    // engine's queues.
    switch (config_.ingest.policy) {
      case ingest::BackpressurePolicy::kDrop:
        session.transport.mode = sampler::BackpressureMode::kDrop;
        break;
      case ingest::BackpressurePolicy::kBlock:
        session.transport.mode = sampler::BackpressureMode::kBlock;
        break;
      case ingest::BackpressurePolicy::kSpill:
        session.transport.mode = sampler::BackpressureMode::kSpill;
        break;
    }
  }
  ScenarioAResult result;
  tsdb::PointSink* sink =
      ingest_ != nullptr ? static_cast<tsdb::PointSink*>(ingest_.get())
                         : &ts_;
  result.stats = sampler::run_sampling_session(kb_->machine(), session, sink);
  if (ingest_ != nullptr) {
    if (Status s = ingest_->flush(); !s.is_ok()) return s;
  }
  // Self-telemetry (storage, ingest, query, breaker, WAL and health
  // numbers) alongside the session's data, so internals dashboards have
  // data to render.
  (void)publish_internals(from_seconds(duration_s));

  // Health verdict for the sampling tier; a session that delivered nothing
  // counts as failed and the supervisor may re-run it with these
  // parameters.
  last_scenario_a_ = ScenarioAParams{frequency_hz, metric_count, duration_s};
  health_.register_component("sampler.scenario_a", [this]() {
    if (!last_scenario_a_) {
      return Status::unavailable("no scenario-a session to restart");
    }
    const ScenarioAParams params = *last_scenario_a_;
    auto rerun = run_scenario_a(params.frequency_hz, params.metric_count,
                                params.duration_s);
    return rerun ? Status::ok() : rerun.status();
  });
  if (result.stats.expected > 0 && result.stats.inserted == 0) {
    health_.report_failed("sampler.scenario_a",
                          "session delivered no points");
  } else if (result.stats.lost() > 0) {
    health_.report_degraded(
        "sampler.scenario_a",
        std::to_string(result.stats.lost()) + " of " +
            std::to_string(result.stats.expected) + " points lost");
  } else {
    health_.report_healthy("sampler.scenario_a");
  }

  result.dashboard = std::move(dash.value());
  return result;
}

Expected<std::vector<std::string>> Daemon::resolve_events(
    const std::vector<std::string>& events, bool generic) const {
  if (!kb_) return Status::unavailable("no target attached");
  if (!generic) return events;
  const std::string pmu_name{pmu::pmu_short_name(kb_->machine().uarch)};
  std::vector<std::string> raw;
  for (const auto& generic_event : events) {
    auto formula = layer_.get(pmu_name, generic_event);
    if (!formula) return formula.status();
    if (formula->unsupported()) {
      // Skip rather than fail: a dashboard on AMD simply lacks the
      // AVX-512 panel (Table I: some generic events are vendor-exclusive).
      log_info("daemon") << generic_event << " unsupported on " << pmu_name
                         << ", skipped";
      continue;
    }
    for (const auto& hw_event : formula->hw_events()) {
      if (std::find(raw.begin(), raw.end(), hw_event) == raw.end()) {
        raw.push_back(hw_event);
      }
    }
  }
  if (raw.empty()) {
    return Status::invalid_argument(
        "no requested event is supported on this target");
  }
  return raw;
}

Expected<kb::ObservationInterface> Daemon::run_scenario_b(
    const ScenarioBRequest& request, const Workload& workload) {
  if (!kb_) return Status::unavailable("no target attached");
  const topology::MachineSpec& machine = kb_->machine();

  // (B1) resolve + program the PMUs.
  auto events = resolve_events(request.events, request.generic);
  if (!events) return events.status();
  auto cpus = pin_cpus(machine, request.affinity, request.threads);
  if (!cpus) return cpus.status();

  workload::LiveCounters live(machine.total_threads());
  pmu::SimulatedPmu pmu(machine, &live);
  if (Status s = pmu.configure(*events); !s.is_ok()) return s;

  kb::ObservationInterface observation;
  observation.tag = uuids_.next();
  observation.id = json::make_dtmi(
      {"dt", machine.hostname, "observation", observation.tag});
  observation.host = machine.hostname;
  observation.command = request.command;
  observation.affinity = std::string(to_string(request.affinity));
  observation.cpus = *cpus;
  observation.sampling_hz = request.frequency_hz;

  sampler::LiveSamplerConfig sampler_config;
  sampler_config.frequency_hz = request.frequency_hz;
  sampler_config.events = *events;
  sampler_config.cpus = *cpus;
  sampler_config.tag = observation.tag;
  sampler_config.host = machine.hostname;
  sampler::LiveSampler live_sampler(pmu, &ts_, sampler_config);

  // (B2..B7) start sampling, execute the kernel, stop as it halts.
  observation.start = 0;
  if (Status s = live_sampler.start(); !s.is_ok()) return s;
  const double seconds = workload(live);
  live_sampler.stop();
  observation.end = from_seconds(seconds);

  for (const auto& event : *events) {
    kb::SampledMetric metric;
    metric.pmu_name = std::string(pmu::pmu_short_name(machine.uarch));
    metric.sampler_name = event;
    metric.db_name = kb::hw_measurement(event);
    for (int cpu : *cpus) {
      metric.fields.push_back("_cpu" + std::to_string(cpu));
    }
    observation.metrics.push_back(std::move(metric));
  }

  // Report generated on the fly and added to the entry (Listing 2).
  json::Object report;
  report.set("wall_seconds", seconds);
  report.set("samples", live_sampler.samples_taken());
  report.set("ticks_missed", live_sampler.ticks_missed());
  json::Object totals;
  for (const auto& event : *events) {
    totals.set(event, live_sampler.accumulated(event));
  }
  report.set("accumulated", std::move(totals));
  observation.report = std::move(report);

  // The profiled execution is itself a process: re-instantiate its
  // ProcessInterface (Section III-C) and link it from the report.
  kb::ProcessSpec process;
  process.pid = next_pid_++;
  process.name = request.command.substr(0, request.command.find(' '));
  process.command = request.command;
  process.cpus = *cpus;
  process.start = 0;
  if (auto instance = kb_->instantiate_process(process); instance) {
    observation.report.as_object().set("process", instance->dtmi);
  }

  // (B8) append to the KB and re-sync the store.
  kb_->attach_observation(observation);
  if (Status s = sync_kb(); !s.is_ok()) return s;
  return observation;
}

}  // namespace pmove::core
