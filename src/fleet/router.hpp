// FleetRouter: consistent-hash write sharding across fleet nodes.
//
// Every point belongs to exactly one series — (measurement, canonical tag
// set) — and every series belongs to exactly one node, decided by the
// HashRing.  write_batch() splits an incoming batch by owner, preserving
// the batch's relative order inside each sub-batch (so per-series
// time/arrival order on the owning node matches what a single fat node
// would have recorded), and delivers each sub-batch through the Transport.
//
// Membership changes only move the series that hash to the changed ring
// segments (vnode consistent hashing); data migration for those series is
// orchestrated one level up, in Fleet, which can see storage.
#pragma once

#include <map>
#include <shared_mutex>
#include <string>
#include <vector>

#include "fleet/ring.hpp"
#include "fleet/transport.hpp"
#include "tsdb/point.hpp"
#include "util/status.hpp"

namespace pmove::metrics {
class Counter;
}  // namespace pmove::metrics

namespace pmove::fleet {

class FleetRouter {
 public:
  /// `transport` is borrowed and must outlive the router.
  explicit FleetRouter(Transport* transport, int vnodes = 64);

  Status add_node(const std::string& name);
  Status remove_node(const std::string& name);

  [[nodiscard]] std::vector<std::string> nodes() const;
  [[nodiscard]] std::size_t size() const;

  /// Owning node for one point's series.
  [[nodiscard]] Expected<std::string> route(const tsdb::Point& p) const;

  /// Owning node for an explicit series identity.
  [[nodiscard]] Expected<std::string> route_series(
      std::string_view measurement,
      const std::map<std::string, std::string>& tags) const;

  /// Splits `batch` by series ownership and delivers every sub-batch.
  /// All sub-batches are attempted even after a failure; the first error is
  /// returned (callers treat any non-ok as "batch not fully durable").
  Status write_batch(std::vector<tsdb::Point> batch);

  /// Drains every node's ingest queues (fleet-wide flush barrier).
  Status flush();

 private:
  Transport* transport_;
  mutable std::shared_mutex mutex_;  ///< guards ring_ vs membership changes
  HashRing ring_;

  // pmove_fleet{router} registry handles, looked up once.
  metrics::Counter& routed_points_;
  metrics::Counter& routed_batches_;
  metrics::Counter& route_errors_;
};

}  // namespace pmove::fleet
