// FleetQueryEngine: scatter/gather reads over the fleet.
//
// The head plans a typed Query once and fans it out over the Transport to
// every node, then merges the answers.  Two gather strategies:
//
//  * exact (default): nodes return their raw matching rows; the head
//    concatenates them, stable-sorts by (time, tag set) — the canonical
//    fleet row order — and runs the shared evaluator (query::execute) once
//    over the union.  Count, min/max and the exactly summed sum/mean/stddev
//    do not depend on row order, so they are bit-for-bit identical to a
//    single fat node holding all the data.  first/last and raw rows are
//    too whenever that node's equal-time arrival order matches the
//    canonical tag order (one series' points never reorder, because the
//    router preserves per-series order).
//
//  * pushdown: when every selected aggregate is order-insensitive
//    (min/max/count), grouped or not, nodes evaluate locally and the head
//    merges their rows bucket by bucket — exact by associativity, and the
//    network moves one row per node and bucket instead of every matching
//    point.  GROUP BY intervals of at most 1,024 ns, and the rare answers
//    that depend on row order across nodes (a node whose first value is
//    NaN, extremes that are zeros of opposite sign), take the exact gather.
//
// Partial failure is a first-class result, not an error: each node gets a
// deadline derived from the EWMA of its observed scatter latencies
// (util/ewma.hpp) and a circuit breaker; nodes that are down, over
// deadline, or breaker-rejected are reported in `nodes_missing` and the
// query succeeds with the rows that exist — degraded, and saying so.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fleet/transport.hpp"
#include "query/plan.hpp"
#include "query/query.hpp"
#include "tsdb/db.hpp"
#include "util/breaker.hpp"
#include "util/ewma.hpp"
#include "util/status.hpp"

namespace pmove::metrics {
class Counter;
}  // namespace pmove::metrics

namespace pmove::util {
class TaskPool;
}  // namespace pmove::util

namespace pmove::fleet {

struct FleetQueryOptions {
  /// Per-node deadline = budget.deadline(EWMA of that node's latencies).
  /// The floor doubles as the cold-start deadline (no samples yet), so it
  /// is deliberately generous — a first contact must not be abandoned just
  /// because the node has never been measured; once the EWMA warms up the
  /// effective deadline tightens to multiplier x observed latency.
  LatencyBudget budget{.multiplier = 8.0,
                       .floor_ns = 250'000'000,
                       .cap_ns = 10'000'000'000};
  /// Per-node scatter breaker (shared config, one breaker per node).
  BreakerOptions breaker;
  /// EWMA weight for per-node latency tracking.
  double ewma_alpha = 0.2;
  /// Worker pool scatter calls run on; null means the process-wide
  /// util::TaskPool::shared().  Borrowed — must outlive the engine.
  util::TaskPool* pool = nullptr;
  /// Allows the pushdown strategy for order-insensitive aggregates,
  /// grouped or not.
  bool pushdown = true;
};

/// A gathered fleet answer.  `nodes_missing` non-empty means the rows are
/// real but incomplete — the caller decides whether degraded is acceptable.
struct FleetQueryResult {
  tsdb::QueryResult result;
  std::vector<std::string> nodes_missing;  ///< down / deadline / breaker
  std::size_t nodes_queried = 0;           ///< scatter targets
  std::size_t nodes_with_data = 0;         ///< responders holding rows
  bool pushdown = false;                   ///< merged partials, not raw rows

  [[nodiscard]] bool degraded() const { return !nodes_missing.empty(); }
};

class FleetQueryEngine {
 public:
  /// `transport` is borrowed and must outlive the engine.
  explicit FleetQueryEngine(Transport* transport,
                            FleetQueryOptions options = {});
  ~FleetQueryEngine();

  FleetQueryEngine(const FleetQueryEngine&) = delete;
  FleetQueryEngine& operator=(const FleetQueryEngine&) = delete;

  /// Scatters `q` to `nodes` and gathers.  Fails only when the query
  /// itself is invalid or every targeted node is missing; partial coverage
  /// succeeds with `nodes_missing` filled in.  not_found when every
  /// responding node lacks the measurement and none are missing (matching
  /// single-node semantics).
  Expected<FleetQueryResult> query(const query::Query& q,
                                   const std::vector<std::string>& nodes);

  /// Current EWMA-derived deadline for `node` (floor before any sample).
  [[nodiscard]] TimeNs node_deadline(const std::string& node) const;
  /// Observed scatter-latency EWMA for `node` (0 before any sample).
  [[nodiscard]] TimeNs node_latency_ewma(const std::string& node) const;
  /// Breaker state for `node` (kClosed for never-contacted nodes).
  [[nodiscard]] CircuitBreaker::State node_breaker_state(
      const std::string& node) const;

 private:
  struct NodeState {
    Ewma ewma;
    std::unique_ptr<CircuitBreaker> breaker;
    explicit NodeState(double alpha) : ewma(alpha) {}
  };

  /// Per-node slot of an in-flight scatter; shared with the worker task so
  /// the gatherer can abandon a node at its deadline while the late task
  /// still has somewhere safe to write.
  template <typename T>
  struct Scatter;

  NodeState& state_for_locked(const std::string& node);

  template <typename T>
  std::shared_ptr<Scatter<T>> scatter(
      const std::vector<std::string>& nodes,
      std::function<Expected<T>(const std::string&)> call);

  /// Waits each node out to its deadline, classifies the outcome
  /// (ok / no-data / missing), and feeds breakers.  Fills `partials`
  /// with (node, value) for nodes that returned data.
  template <typename T>
  void gather(Scatter<T>& sc, std::vector<std::pair<std::string, T>>& partials,
              FleetQueryResult& out);

  Expected<FleetQueryResult> query_exact(const query::Plan& plan,
                                         const std::vector<std::string>& nodes);
  Expected<FleetQueryResult> query_pushdown(
      const query::Plan& plan, const std::vector<std::string>& nodes);

  /// Submits a scatter call to the worker pool, tracked by inflight_.
  void enqueue(std::function<void()> task);

  /// Scatter calls run on a pool the engine does not own, so a task can be
  /// sitting in the queue when the engine is destroyed.  Each task holds
  /// this block (shared_ptr): tasks that start after shutdown see
  /// `stopping` and bail without touching the engine, and the destructor
  /// waits for `count` to drain before freeing anything a running call
  /// could still reach.
  struct Inflight {
    std::mutex m;
    std::condition_variable cv;
    std::size_t count = 0;
    bool stopping = false;
  };

  Transport* transport_;
  FleetQueryOptions options_;

  // pmove_fleet{engine} registry handles, looked up once.
  metrics::Counter& queries_;
  metrics::Counter& pushdown_queries_;
  metrics::Counter& degraded_queries_;
  metrics::Counter& nodes_missing_;
  metrics::Counter& query_errors_;

  mutable std::mutex mutex_;  ///< guards states_
  std::map<std::string, NodeState> states_;

  std::shared_ptr<Inflight> inflight_ = std::make_shared<Inflight>();
};

}  // namespace pmove::fleet
