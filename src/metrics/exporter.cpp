#include "metrics/exporter.hpp"

#include <map>
#include <utility>

#include "metrics/names.hpp"
#include "tsdb/db.hpp"

namespace pmove::metrics {

MetricsExporter::MetricsExporter(Registry* registry, tsdb::PointSink* sink,
                                 ExporterOptions options)
    : registry_(registry != nullptr ? registry : &Registry::global()),
      sink_(sink),
      options_(options) {}

Status MetricsExporter::export_once(TimeNs now) {
  if (sink_ == nullptr) return Status::unavailable("exporter has no sink");
  const std::vector<Sample> samples = registry_->snapshot();
  std::map<std::pair<std::string, std::string>, tsdb::Point> grouped;
  for (const Sample& sample : samples) {
    tsdb::Point& point = grouped[{sample.measurement, sample.instance}];
    if (point.measurement.empty()) {
      point.measurement = sample.measurement;
      point.tags["tier"] = kTierTag;
      if (!sample.instance.empty()) {
        point.tags[kInstanceTag] = sample.instance;
      }
      point.time = now;
    }
    point.fields[sample.field] = sample.value;
  }
  if (grouped.empty()) return Status::ok();
  std::vector<tsdb::Point> batch;
  batch.reserve(grouped.size());
  for (auto& [key, point] : grouped) batch.push_back(std::move(point));
  const std::size_t n = batch.size();
  if (Status s = sink_->write_batch(std::move(batch)); !s.is_ok()) return s;
  ++exports_;
  points_written_ += n;
  last_export_ = now;
  exported_once_ = true;
  return Status::ok();
}

bool MetricsExporter::due(TimeNs now) const {
  return !exported_once_ || now - last_export_ >= options_.interval_ns;
}

Status MetricsExporter::export_if_due(TimeNs now) {
  return due(now) ? export_once(now) : Status::ok();
}

}  // namespace pmove::metrics
