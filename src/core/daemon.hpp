// The P-MoVE daemon (paper, Section IV, Fig 3).
//
// Runs on the *host* alongside the heavy tooling (the TSDB, the document
// store, the dashboard generator); the *target* contributes a probe report
// and PCP-style samplers.  Lifecycle:
//   step 0   read environment (DB endpoints, Grafana token);
//   steps 1-3 probe the target, build the KB, insert it into the document
//            store (re-inserted whenever the KB changes);
//   Scenario A: configure SW-telemetry sampling and auto-generate
//            dashboards (both driven purely by the KB);
//   Scenario B: profile a kernel execution — pin threads, program the PMUs,
//            live-sample during the run, and append an
//            ObservationInterface linking the KB to the time-series rows.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "abstraction/layer.hpp"
#include "core/pinning.hpp"
#include "dashboard/views.hpp"
#include "docdb/store.hpp"
#include "ingest/engine.hpp"
#include "kb/ids.hpp"
#include "kb/kb.hpp"
#include "metrics/exporter.hpp"
#include "pmu/pmu.hpp"
#include "query/engine.hpp"
#include "sampler/live.hpp"
#include "sampler/session.hpp"
#include "tsdb/db.hpp"
#include "util/health.hpp"
#include "util/status.hpp"
#include "workload/counter_source.hpp"

namespace pmove::core {

/// Step 0: the environment variables the daemon reads at startup.
struct DaemonConfig {
  std::string influx_host = "127.0.0.1:8086";
  std::string mongo_host = "127.0.0.1:27017";
  std::string grafana_token = "local-token";
  /// TSDB retention window (paper, Section V-B: "we rely on the retention
  /// policy of InfluxDB"); 0 keeps everything.
  TimeNs retention_ns = 0;
  std::uint64_t seed = 2024;
  /// Ingestion tier (sharded queues + WAL in front of the TSDB).  Read from
  /// PMOVE_INGEST_SHARDS / PMOVE_INGEST_POLICY / PMOVE_INGEST_WAL_DIR;
  /// setting any of those also sets `ingest_enabled`, and the first
  /// Scenario A session (or an explicit enable_ingest() call) activates it.
  ingest::IngestOptions ingest;
  bool ingest_enabled = false;

  /// Reads PMOVE_INFLUX_HOST / PMOVE_MONGO_HOST / PMOVE_GRAFANA_TOKEN from a
  /// key-value map (tests) or the process environment.
  static DaemonConfig from_env(
      const std::map<std::string, std::string>& env = {});
};

/// A profiled workload: runs to completion while publishing exact progress
/// counts; returns the measured wall seconds.
using Workload = std::function<double(workload::LiveCounters&)>;

struct ScenarioBRequest {
  std::string command;  ///< recorded in the observation ("./spmv ...")
  /// Generic event names resolved through the abstraction layer; raw PMU
  /// names are accepted when `generic` is false.
  std::vector<std::string> events;
  bool generic = true;
  double frequency_hz = 20.0;
  PinStrategy affinity = PinStrategy::kBalanced;
  int threads = 1;
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config = {});

  /// Steps 1-3: probe `preset` ("skx", "icl", "csl", "zen3"), build the KB,
  /// store it.
  Status attach_target(std::string_view preset);
  Status attach_target(const topology::MachineSpec& spec);

  [[nodiscard]] bool attached() const { return kb_.has_value(); }
  [[nodiscard]] const kb::KnowledgeBase& knowledge_base() const {
    return *kb_;
  }
  [[nodiscard]] kb::KnowledgeBase& knowledge_base() { return *kb_; }
  [[nodiscard]] tsdb::TimeSeriesDb& timeseries() { return ts_; }
  [[nodiscard]] const tsdb::TimeSeriesDb& timeseries() const { return ts_; }

  /// Read path over timeseries(): cached query execution.
  /// Dashboard refreshes and analysis queries should go through this rather
  /// than scanning the TSDB directly.
  [[nodiscard]] query::QueryEngine& query_engine() { return engine_; }
  [[nodiscard]] docdb::DocumentStore& documents() { return docs_; }
  [[nodiscard]] const abstraction::AbstractionLayer& abstraction_layer()
      const {
    return layer_;
  }
  [[nodiscard]] const DaemonConfig& config() const { return config_; }

  /// Puts the ingest tier (config().ingest) in front of the daemon's TSDB:
  /// Scenario A sessions then submit batches through its sharded queues and
  /// WAL instead of writing points one by one, and publish_internals exports
  /// the engine's stats() as pmove_ingest{instance=engine}.  Idempotent.
  Status enable_ingest();
  [[nodiscard]] bool ingest_enabled() const { return ingest_ != nullptr; }
  [[nodiscard]] ingest::IngestEngine* ingest() { return ingest_.get(); }

  /// Scenario A: SW-telemetry sampling session (virtual time) plus the
  /// automatically generated system dashboard.
  struct ScenarioAResult {
    sampler::SessionStats stats;
    dashboard::Dashboard dashboard;
  };
  Expected<ScenarioAResult> run_scenario_a(double frequency_hz,
                                           int metric_count,
                                           double duration_s);

  /// Scenario B: profile `workload` with PMU sampling; returns the
  /// ObservationInterface appended to the KB (with its report generated on
  /// the fly).  The observation's queries can replay the collected data.
  Expected<kb::ObservationInterface> run_scenario_b(
      const ScenarioBRequest& request, const Workload& workload);

  /// Resolves generic events to raw PMU events for the attached target.
  Expected<std::vector<std::string>> resolve_events(
      const std::vector<std::string>& events, bool generic) const;

  /// Runs one of the named benchmark campaigns against the target and
  /// records the results as BenchmarkInterface entries in the KB (paper,
  /// Section III-C: CARM / STREAM / HPCG through the BenchmarkInterface).
  /// "STREAM" and "HPCG" really execute on this host; "CARM" runs the
  /// machine-mode microbenchmark campaign for the attached target.
  /// Returns the number of entries recorded.
  Expected<int> run_benchmark(std::string_view name);

  /// Persists a (possibly user-edited) dashboard under `name` so it is
  /// available "for the next sessions"; stored in the document DB.
  Status save_dashboard(std::string_view name,
                        const dashboard::Dashboard& dash);
  [[nodiscard]] Expected<dashboard::Dashboard> load_dashboard(
      std::string_view name) const;
  [[nodiscard]] std::vector<std::string> saved_dashboards() const;

  /// Applies the configured retention policy to the TSDB; returns the
  /// number of dropped points.
  std::size_t enforce_retention(TimeNs now);

  /// Recorded sessions (the paper monitors "live and/or recorded" data):
  /// persists the document store (KB, observations, dashboards) and the
  /// time-series data under `directory`, and restores a daemon from such a
  /// recording.  After load_session the full analysis surface — queries,
  /// dashboards, live-CARM panels — works on the recorded data.
  Status save_session(const std::string& directory) const;
  Status load_session(const std::string& directory,
                      std::string_view hostname);

  /// Re-stores the KB (step 3 re-occurs every time the KB changes).
  Status sync_kb();

  // ------------------------------------------------------------- health
  /// Component health: ingest shards and WAL report transitions here, the
  /// last Scenario A session reports its outcome, and `pmove health`
  /// renders the registry.
  [[nodiscard]] HealthRegistry& health() { return health_; }
  [[nodiscard]] const HealthRegistry& health() const { return health_; }

  /// One supervisor tick at `now`: failed components with a restart
  /// callback (ingest breakers, the sampler session) are restarted under
  /// exponential backoff.
  HealthRegistry::SuperviseResult supervise(TimeNs now) {
    return health_.supervise(now);
  }

  // ----------------------------------------------------- self-telemetry
  /// Reads this daemon's store, query engine and (when enabled) ingest
  /// engine through their stats() into the pmove_tsdb{instance=db},
  /// pmove_query{instance=engine} and pmove_ingest{instance=engine} gauges,
  /// then snapshots the process-wide metrics registry (those gauges plus
  /// breaker states, WAL and per-shard ingest counters, ...) and writes the
  /// pmove_* measurements into the TSDB, stamped `now`.  The "P-MoVE
  /// internals" dashboard (ViewBuilder::internals_view) reads these series.
  Status publish_internals(TimeNs now);
  /// Cadence-gated variant for periodic callers (`pmove metrics --watch`,
  /// the supervisor loop): reads and exports only when an export is due.
  Status publish_internals_if_due(TimeNs now);
  [[nodiscard]] metrics::MetricsExporter& metrics_exporter() {
    return exporter_;
  }

 private:
  /// Registers the "pmove-internals" ObservationInterface in the KB so
  /// dashboard generation can discover the self-telemetry streams.
  void register_internals_observation();

  DaemonConfig config_;
  abstraction::AbstractionLayer layer_;
  docdb::DocumentStore docs_;
  tsdb::TimeSeriesDb ts_;
  query::QueryEngine engine_{ts_};  ///< cached read path over ts_
  /// Global-registry snapshots land directly in ts_ (it is a PointSink);
  /// the ingest tier fronts sampler traffic, not introspection writes.
  metrics::MetricsExporter exporter_{nullptr, &ts_};
  std::unique_ptr<ingest::IngestEngine> ingest_;  ///< fronts ts_ when enabled
  std::optional<kb::KnowledgeBase> kb_;
  kb::UuidGenerator uuids_;
  HealthRegistry health_;
  /// Last Scenario A parameters: the supervisor's restart callback re-runs
  /// the session with them when it reported failed.
  struct ScenarioAParams {
    double frequency_hz = 0.0;
    int metric_count = 0;
    double duration_s = 0.0;
  };
  std::optional<ScenarioAParams> last_scenario_a_;
  int next_pid_ = 10'000;  ///< synthetic pids for profiled workloads
};

}  // namespace pmove::core
