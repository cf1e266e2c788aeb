#include "superdb/superdb.hpp"

#include <algorithm>
#include <cmath>

#include "query/plan.hpp"

namespace pmove::superdb {

namespace {

/// Aggregates of one metric field over an observation window.
json::Value aggregate_field(const tsdb::TimeSeriesDb& db,
                            const std::string& measurement,
                            const std::string& field,
                            const std::string& tag) {
  using query::Aggregate;
  json::Object agg;
  auto result = query::run(db, query::QueryBuilder(measurement)
                                   .select(Aggregate::kMin, field)
                                   .select(Aggregate::kMax, field)
                                   .select(Aggregate::kMean, field)
                                   .select(Aggregate::kStddev, field)
                                   .select(Aggregate::kSum, field)
                                   .select(Aggregate::kCount, field)
                                   .where_tag("tag", tag)
                                   .build());
  if (!result || result->rows.empty()) return agg;
  static const char* kNames[] = {"min", "max", "mean", "stddev", "sum",
                                 "count"};
  const auto& row = result->rows.front();
  for (std::size_t i = 0; i + 1 < row.size() && i < 6; ++i) {
    const double v = row[i + 1];
    if (!std::isnan(v)) agg.set(kNames[i], v);
  }
  return agg;
}

}  // namespace

Status SuperDb::report_system(const kb::KnowledgeBase& knowledge_base) {
  json::Value doc = knowledge_base.to_json();
  doc.as_object().set("@id", knowledge_base.system_dtmi());
  doc.as_object().set("@type", "SystemReport");
  auto id = docs_.upsert("systems", std::move(doc));
  return id ? Status::ok() : id.status();
}

Status SuperDb::report_fleet(json::Value snapshot) {
  if (!snapshot.is_object()) {
    return Status::invalid_argument("fleet report must be a JSON object");
  }
  snapshot.as_object().set("@type", "FleetHealthReport");
  auto id = docs_.insert("fleet", std::move(snapshot));
  return id ? Status::ok() : id.status();
}

std::vector<json::Value> SuperDb::fleet_reports() const {
  return docs_.all("fleet");
}

Status SuperDb::report_observation_ts(
    const kb::KnowledgeBase& knowledge_base,
    const tsdb::TimeSeriesDb& local_db,
    const kb::ObservationInterface& observation) {
  (void)knowledge_base;  // reserved: future linkage checks against the KB
  // Copy every tagged row of every metric into the global TSDB, one batch
  // per metric (single lock acquisition + ordering pass on the far side).
  for (const auto& metric : observation.metrics) {
    auto result = query::run(local_db, query::QueryBuilder(metric.db_name)
                                           .select_all()
                                           .where_tag("tag", observation.tag)
                                           .build());
    if (!result) continue;  // metric may have produced no rows
    std::vector<tsdb::Point> batch;
    batch.reserve(result->rows.size());
    for (const auto& row : result->rows) {
      tsdb::Point point;
      point.measurement = metric.db_name;
      point.tags["tag"] = observation.tag;
      point.tags["host"] = observation.host;
      point.time = static_cast<TimeNs>(row[0]);
      // SELECT * resolves columns in sorted order, so appending with an
      // end hint keeps every field insert O(1) instead of a keyed lookup
      // per cell per row.
      for (std::size_t i = 1; i < row.size(); ++i) {
        if (!std::isnan(row[i])) {
          point.fields.emplace_hint(point.fields.end(), result->columns[i],
                                    row[i]);
        }
      }
      if (!point.fields.empty()) batch.push_back(std::move(point));
    }
    if (!batch.empty()) {
      if (Status s = ts_.write_batch(std::move(batch)); !s.is_ok()) return s;
    }
  }
  json::Value doc = observation.to_json();
  doc.as_object().set("@type", "TSObservationInterface");
  doc.as_object().set(
      "@id", observation.id + ":ts");
  auto id = docs_.upsert("ts_observations", std::move(doc));
  return id ? Status::ok() : id.status();
}

Status SuperDb::report_observation_agg(
    const kb::KnowledgeBase& knowledge_base,
    const tsdb::TimeSeriesDb& local_db,
    const kb::ObservationInterface& observation) {
  (void)knowledge_base;  // reserved: future linkage checks against the KB
  json::Value doc = observation.to_json();
  doc.as_object().set("@type", "AGGObservationInterface");
  doc.as_object().set("@id", observation.id + ":agg");
  json::Object aggregates;
  for (const auto& metric : observation.metrics) {
    json::Object per_field;
    for (const auto& field : metric.fields) {
      per_field.set(field, aggregate_field(local_db, metric.db_name, field,
                                           observation.tag));
    }
    aggregates.set(metric.db_name, std::move(per_field));
  }
  doc.as_object().set("aggregates", std::move(aggregates));
  auto id = docs_.upsert("agg_observations", std::move(doc));
  return id ? Status::ok() : id.status();
}

std::vector<std::string> SuperDb::systems() const {
  std::vector<std::string> hosts;
  for (const auto& doc : docs_.all("systems")) {
    if (const json::Value* host = doc.find("hostname")) {
      hosts.push_back(host->string_or(""));
    }
  }
  std::sort(hosts.begin(), hosts.end());
  return hosts;
}

std::vector<json::Value> SuperDb::observations(std::string_view host) const {
  std::vector<json::Value> out;
  for (const char* collection : {"agg_observations", "ts_observations"}) {
    for (const auto& doc : docs_.all(collection)) {
      if (!host.empty()) {
        const json::Value* h = doc.find("host");
        if (h == nullptr || h->string_or("") != host) continue;
      }
      out.push_back(doc);
    }
  }
  return out;
}

std::string SuperDb::export_csv() const {
  std::string csv =
      "host,tag,command,metric,field,min,max,mean,stddev,sum,count\n";
  for (const auto& doc : docs_.all("agg_observations")) {
    const std::string host =
        doc.find("host") ? doc.find("host")->string_or("") : "";
    const std::string tag =
        doc.find("tag") ? doc.find("tag")->string_or("") : "";
    const std::string command =
        doc.find("command") ? doc.find("command")->string_or("") : "";
    const json::Value* aggregates = doc.find("aggregates");
    if (aggregates == nullptr || !aggregates->is_object()) continue;
    for (const auto& [metric, fields] : aggregates->as_object()) {
      if (!fields.is_object()) continue;
      for (const auto& [field, agg] : fields.as_object()) {
        csv += host + "," + tag + "," + command + "," + metric + "," + field;
        for (const char* name :
             {"min", "max", "mean", "stddev", "sum", "count"}) {
          const json::Value* v = agg.find(name);
          csv += ",";
          if (v != nullptr && v->is_number()) {
            csv += std::to_string(v->as_double());
          }
        }
        csv += "\n";
      }
    }
  }
  return csv;
}

}  // namespace pmove::superdb
