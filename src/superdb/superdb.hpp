// SUPERDB: the global performance database (paper, Section III-E).
//
// "Unlike local instances, SUPERDB employs cloud instances of MongoDB and
// InfluxDB" — here, a second DocumentStore + TimeSeriesDb pair.  Users can
// report their KB and telemetry; observations evolve into two document
// kinds:
//   - TSObservationInterface: the observation plus its full time-series
//     rows copied into the global TSDB;
//   - AGGObservationInterface: the observation plus statistical summaries
//     (min/max/mean/stddev/count per metric) "to manage high data volumes".
// Data can be exported in a flat form for ML training; systems without a
// local P-MoVE instance can only download, not visualize.
#pragma once

#include <string>
#include <vector>

#include "docdb/store.hpp"
#include "json/value.hpp"
#include "kb/kb.hpp"
#include "tsdb/db.hpp"
#include "util/status.hpp"

namespace pmove::superdb {

class SuperDb {
 public:
  /// Uploads (or refreshes) a system's KB.
  Status report_system(const kb::KnowledgeBase& knowledge_base);

  /// Uploads an observation with its full time-series rows
  /// (TSObservationInterface).
  Status report_observation_ts(const kb::KnowledgeBase& knowledge_base,
                               const tsdb::TimeSeriesDb& local_db,
                               const kb::ObservationInterface& observation);

  /// Uploads an observation with aggregates only (AGGObservationInterface).
  Status report_observation_agg(const kb::KnowledgeBase& knowledge_base,
                                const tsdb::TimeSeriesDb& local_db,
                                const kb::ObservationInterface& observation);

  /// Uploads a fleet-health snapshot (one document per report, collection
  /// "fleet").  json-typed on purpose: superdb sits below the fleet tier,
  /// so callers (daemon, CLI, tests) render the digest table to JSON —
  /// typically {"head": ..., "time": ..., "nodes": [{"node", "liveness",
  /// "state", "version"}, ...]} — and superdb stays fleet-agnostic.
  Status report_fleet(json::Value snapshot);

  /// All uploaded fleet-health snapshots, oldest first.
  [[nodiscard]] std::vector<json::Value> fleet_reports() const;

  /// Hostnames of reported systems, sorted.
  [[nodiscard]] std::vector<std::string> systems() const;

  /// All AGG/TS observation documents for a host ("" = all hosts).
  [[nodiscard]] std::vector<json::Value> observations(
      std::string_view host = "") const;

  /// Flat CSV export for ML training: one row per (host, observation,
  /// metric, field) with the aggregate columns.
  [[nodiscard]] std::string export_csv() const;

  [[nodiscard]] const docdb::DocumentStore& documents() const {
    return docs_;
  }
  [[nodiscard]] const tsdb::TimeSeriesDb& timeseries() const { return ts_; }

 private:
  docdb::DocumentStore docs_;
  tsdb::TimeSeriesDb ts_;
};

}  // namespace pmove::superdb
