#include "fleet/router.hpp"

#include <string_view>
#include <utility>

#include "fault/fault.hpp"
#include "metrics/names.hpp"
#include "metrics/registry.hpp"

namespace pmove::fleet {

namespace {
metrics::Counter& router_counter(std::string_view field) {
  return metrics::Registry::global().counter(metrics::kMeasurementFleet,
                                             "router", field);
}
}  // namespace

FleetRouter::FleetRouter(Transport* transport, int vnodes)
    : transport_(transport),
      ring_(vnodes),
      routed_points_(router_counter("routed_points")),
      routed_batches_(router_counter("routed_batches")),
      route_errors_(router_counter("route_errors")) {}

Status FleetRouter::add_node(const std::string& name) {
  std::unique_lock lock(mutex_);
  return ring_.add_node(name);
}

Status FleetRouter::remove_node(const std::string& name) {
  std::unique_lock lock(mutex_);
  return ring_.remove_node(name);
}

std::vector<std::string> FleetRouter::nodes() const {
  std::shared_lock lock(mutex_);
  return ring_.nodes();
}

std::size_t FleetRouter::size() const {
  std::shared_lock lock(mutex_);
  return ring_.size();
}

Expected<std::string> FleetRouter::route(const tsdb::Point& p) const {
  return route_series(p.measurement, p.tags);
}

Expected<std::string> FleetRouter::route_series(
    std::string_view measurement,
    const std::map<std::string, std::string>& tags) const {
  std::shared_lock lock(mutex_);
  return ring_.owner(series_key(measurement, tags));
}

Status FleetRouter::write_batch(std::vector<tsdb::Point> batch) {
  // Split by owner; iterating the batch in order keeps each sub-batch in
  // the original relative order, which is what preserves per-series
  // (time, arrival) order on the owning node.
  std::map<std::string, std::vector<tsdb::Point>> by_owner;
  {
    std::shared_lock lock(mutex_);
    if (ring_.size() == 0) {
      route_errors_.inc();
      return Status::unavailable("fleet: no nodes in ring");
    }
    for (tsdb::Point& p : batch) {
      auto owner = ring_.owner(series_key(p.measurement, p.tags));
      if (!owner) {
        route_errors_.inc();
        return owner.status();
      }
      by_owner[*owner].push_back(std::move(p));
    }
  }

  Status first_error = Status::ok();
  for (auto& [node, sub] : by_owner) {
    const std::size_t sub_size = sub.size();
    Status s = fault::point("fleet.route");
    if (s.is_ok()) s = transport_->deliver(node, std::move(sub));
    if (!s.is_ok()) {
      route_errors_.inc();
      if (first_error.is_ok()) first_error = s;
      continue;
    }
    routed_batches_.inc();
    routed_points_.add(sub_size);
  }
  return first_error;
}

Status FleetRouter::flush() {
  Status first_error = Status::ok();
  for (const std::string& node : nodes()) {
    Status s = transport_->flush(node);
    if (!s.is_ok() && first_error.is_ok()) first_error = s;
  }
  return first_error;
}

}  // namespace pmove::fleet
