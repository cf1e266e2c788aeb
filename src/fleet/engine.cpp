#include "fleet/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>

#include "fault/fault.hpp"
#include "metrics/names.hpp"
#include "metrics/registry.hpp"
#include "util/task_pool.hpp"

namespace pmove::fleet {

namespace {
using SteadyClock = std::chrono::steady_clock;

// Grouped pushdown merges node rows by bucket stamp, and stamps cross the
// wire as doubles.  Distinct int64 bucket starts lie at least one interval
// apart, and adjacent doubles below 2^63 are at most 1,024 apart, so above
// this interval distinct buckets keep distinct, ordered stamps.  Shorter
// intervals take the exact gather.
constexpr TimeNs kMinPushdownInterval = 1024;

bool is_extreme(query::Aggregate aggregate) {
  return aggregate == query::Aggregate::kMin ||
         aggregate == query::Aggregate::kMax;
}

metrics::Counter& engine_counter(std::string_view field) {
  return metrics::Registry::global().counter(metrics::kMeasurementFleet,
                                             "engine", field);
}
}  // namespace

/// One node's slot in an in-flight scatter.  Shared (via shared_ptr) with
/// the worker task so the gatherer can abandon a node at its deadline while
/// the late task still has somewhere safe to write its answer.
template <typename T>
struct FleetQueryEngine::Scatter {
  struct Slot {
    std::string node;
    TimeNs deadline_ns = 0;     ///< EWMA-derived, frozen at scatter time
    bool skip_breaker = false;  ///< breaker-rejected: outcome not an outcome
    bool started = false;       ///< the worker picked the call up
    SteadyClock::time_point started_at;
    bool done = false;
    std::optional<Expected<T>> out;
  };

  std::mutex m;
  std::condition_variable cv;
  std::vector<Slot> slots;
};

FleetQueryEngine::FleetQueryEngine(Transport* transport,
                                   FleetQueryOptions options)
    : transport_(transport),
      options_(options),
      queries_(engine_counter("queries")),
      pushdown_queries_(engine_counter("pushdown_queries")),
      degraded_queries_(engine_counter("degraded_queries")),
      nodes_missing_(engine_counter("nodes_missing")),
      query_errors_(engine_counter("query_errors")) {}

FleetQueryEngine::~FleetQueryEngine() {
  std::unique_lock lk(inflight_->m);
  inflight_->stopping = true;
  inflight_->cv.wait(lk, [&] { return inflight_->count == 0; });
}

void FleetQueryEngine::enqueue(std::function<void()> task) {
  auto inflight = inflight_;
  {
    std::lock_guard lk(inflight->m);
    ++inflight->count;
  }
  util::TaskPool& pool =
      options_.pool != nullptr ? *options_.pool : util::TaskPool::shared();
  pool.submit([inflight, task = std::move(task)] {
    bool stopping = false;
    {
      std::lock_guard lk(inflight->m);
      stopping = inflight->stopping;
    }
    // A call popped after shutdown began is discarded, like the old
    // engine-owned queue at stop: nobody is gathering it any more
    // (queries never outlive the engine), and the engine's members may
    // already be gone.
    if (!stopping) task();
    {
      std::lock_guard lk(inflight->m);
      --inflight->count;
    }
    inflight->cv.notify_all();
  });
}

FleetQueryEngine::NodeState& FleetQueryEngine::state_for_locked(
    const std::string& node) {
  auto it = states_.find(node);
  if (it == states_.end()) {
    it = states_.emplace(node, NodeState(options_.ewma_alpha)).first;
    it->second.breaker = std::make_unique<CircuitBreaker>(
        "fleet." + node, options_.breaker);
  }
  return it->second;
}

TimeNs FleetQueryEngine::node_deadline(const std::string& node) const {
  std::lock_guard lock(mutex_);
  auto it = states_.find(node);
  if (it == states_.end()) return options_.budget.floor_ns;
  return options_.budget.deadline(it->second.ewma);
}

TimeNs FleetQueryEngine::node_latency_ewma(const std::string& node) const {
  std::lock_guard lock(mutex_);
  auto it = states_.find(node);
  if (it == states_.end()) return 0;
  return static_cast<TimeNs>(it->second.ewma.value());
}

CircuitBreaker::State FleetQueryEngine::node_breaker_state(
    const std::string& node) const {
  std::lock_guard lock(mutex_);
  auto it = states_.find(node);
  if (it == states_.end()) return CircuitBreaker::State::kClosed;
  return it->second.breaker->state();
}

template <typename T>
std::shared_ptr<FleetQueryEngine::Scatter<T>> FleetQueryEngine::scatter(
    const std::vector<std::string>& nodes,
    std::function<Expected<T>(const std::string&)> call) {
  auto sc = std::make_shared<Scatter<T>>();
  sc->slots.resize(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    auto& slot = sc->slots[i];
    slot.node = nodes[i];
    CircuitBreaker* breaker = nullptr;
    {
      std::lock_guard lock(mutex_);
      NodeState& state = state_for_locked(nodes[i]);
      slot.deadline_ns = options_.budget.deadline(state.ewma);
      breaker = state.breaker.get();
    }
    if (Status s = fault::point("fleet.scatter"); !s.is_ok()) {
      // Injected scatter-RPC failure: classified (and breaker-counted) by
      // the gatherer exactly like a real transport error.
      std::lock_guard lk(sc->m);
      slot.done = true;
      slot.out.emplace(std::move(s));
      continue;
    }
    if (!breaker->allow()) {
      std::lock_guard lk(sc->m);
      slot.done = true;
      slot.skip_breaker = true;
      slot.out.emplace(breaker->reject_status());
      continue;
    }
    enqueue([this, sc, i, call, node = nodes[i]] {
      {
        std::lock_guard lk(sc->m);
        sc->slots[i].started = true;
        sc->slots[i].started_at = SteadyClock::now();
      }
      sc->cv.notify_all();
      const auto t0 = SteadyClock::now();
      Expected<T> result = call(node);
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              SteadyClock::now() - t0)
              .count();
      {
        std::lock_guard lock(mutex_);
        state_for_locked(node).ewma.update(static_cast<double>(elapsed));
      }
      {
        std::lock_guard lk(sc->m);
        sc->slots[i].out.emplace(std::move(result));
        sc->slots[i].done = true;
      }
      sc->cv.notify_all();
    });
  }
  return sc;
}

template <typename T>
void FleetQueryEngine::gather(
    Scatter<T>& sc, std::vector<std::pair<std::string, T>>& partials,
    FleetQueryResult& out) {
  out.nodes_queried = sc.slots.size();
  std::unique_lock lk(sc.m);
  for (auto& slot : sc.slots) {
    // The deadline times the call itself, not its wait in the scatter
    // queue — so a deep fan-out doesn't spuriously expire the tail.
    sc.cv.wait(lk, [&] { return slot.done || slot.started; });
    if (!slot.done) {
      const auto deadline =
          slot.started_at + std::chrono::nanoseconds(slot.deadline_ns);
      sc.cv.wait_until(lk, deadline, [&] { return slot.done; });
    }
    CircuitBreaker* breaker = nullptr;
    {
      std::lock_guard lock(mutex_);
      breaker = state_for_locked(slot.node).breaker.get();
    }
    if (!slot.done) {
      // Over deadline: degraded, not fatal.  The late answer (if any) is
      // dropped; its latency still feeds the node's EWMA, stretching the
      // next deadline if the node is merely slow.
      out.nodes_missing.push_back(slot.node);
      breaker->record_failure();
      continue;
    }
    Expected<T>& result = *slot.out;
    if (result.has_value()) {
      if (!slot.skip_breaker) breaker->record_success();
      partials.emplace_back(slot.node, std::move(result.value()));
    } else if (result.status().code() == ErrorCode::kNotFound) {
      // A healthy answer: the measurement was never written to this node.
      if (!slot.skip_breaker) breaker->record_success();
    } else {
      if (!slot.skip_breaker) breaker->record_failure();
      out.nodes_missing.push_back(slot.node);
    }
  }
}

Expected<FleetQueryResult> FleetQueryEngine::query(
    const query::Query& q, const std::vector<std::string>& nodes) {
  if (nodes.empty()) {
    return Status::unavailable("fleet: no nodes to query");
  }
  const query::Plan plan = query::make_plan(q);
  const bool pushdown_ok =
      options_.pushdown &&
      (plan.kind == query::PlanKind::kAggregate ||
       (plan.kind == query::PlanKind::kGroupedAggregate &&
        q.group_interval > kMinPushdownInterval)) &&
      !q.select_all && !q.selectors.empty() &&
      std::all_of(q.selectors.begin(), q.selectors.end(),
                  [](const query::Selector& s) {
                    return query::order_insensitive(s.aggregate);
                  });
  auto result =
      pushdown_ok ? query_pushdown(plan, nodes) : query_exact(plan, nodes);

  if (result) {
    queries_.inc();
    if (result->pushdown) pushdown_queries_.inc();
    if (result->degraded()) {
      degraded_queries_.inc();
      nodes_missing_.add(result->nodes_missing.size());
    }
  } else {
    query_errors_.inc();
  }
  return result;
}

Expected<FleetQueryResult> FleetQueryEngine::query_exact(
    const query::Plan& plan, const std::vector<std::string>& nodes) {
  FleetQueryResult out;
  std::vector<std::pair<std::string, std::vector<tsdb::Point>>> partials;
  // The query is captured by value: a task abandoned at its deadline may
  // run after this frame is gone.
  auto sc = scatter<std::vector<tsdb::Point>>(
      nodes, [this, q = plan.query](const std::string& node) {
        return transport_->collect(node, q);
      });
  gather(*sc, partials, out);

  if (partials.empty()) {
    if (!out.nodes_missing.empty()) {
      return Status::unavailable(
          "fleet: measurement unreachable: " + plan.query.measurement + " (" +
          std::to_string(out.nodes_missing.size()) + " nodes missing)");
    }
    return Status::not_found("measurement not found: " +
                             plan.query.measurement);
  }

  std::size_t total = 0;
  for (const auto& [node, rows] : partials) total += rows.size();
  std::vector<tsdb::Point> all;
  all.reserve(total);
  for (auto& [node, rows] : partials) {
    if (!rows.empty()) ++out.nodes_with_data;
    for (tsdb::Point& p : rows) all.push_back(std::move(p));
  }
  // Canonical fleet row order: (time, tag set), ties in node order.  Two
  // points of one series never compare equal across nodes (a series lives
  // on exactly one node), and within a node stable_sort preserves the
  // arrival order the router preserved.  Only first/last and raw rows read
  // this order; every other aggregate is order-free.
  std::stable_sort(all.begin(), all.end(),
                   [](const tsdb::Point& a, const tsdb::Point& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.tags < b.tags;
                   });
  auto result = query::execute(plan, all);
  if (!result) return result.status();
  out.result = std::move(result.value());
  return out;
}

Expected<FleetQueryResult> FleetQueryEngine::query_pushdown(
    const query::Plan& plan, const std::vector<std::string>& nodes) {
  // Nodes also count every min/max field, so that a NaN extreme tells
  // "field absent on this node" (NaN count) from "the node's first value
  // is NaN".  The added columns are dropped from the answer.
  query::Query node_q = plan.query;
  const std::size_t shown = node_q.selectors.size();
  std::vector<std::size_t> count_col(shown, 0);
  for (std::size_t j = 0; j < shown; ++j) {
    if (!is_extreme(node_q.selectors[j].aggregate)) continue;
    const std::string field = node_q.selectors[j].field;
    const auto counted = std::find_if(
        node_q.selectors.begin(), node_q.selectors.end(),
        [&](const query::Selector& s) {
          return s.aggregate == query::Aggregate::kCount && s.field == field;
        });
    count_col[j] =
        static_cast<std::size_t>(counted - node_q.selectors.begin());
    if (counted == node_q.selectors.end()) {
      node_q.selectors.push_back({field, query::Aggregate::kCount});
    }
  }

  FleetQueryResult out;
  out.pushdown = true;
  std::vector<std::pair<std::string, NodePartial>> partials;
  auto sc = scatter<NodePartial>(
      nodes, [this, q = node_q](const std::string& node) {
        return transport_->execute(node, q);
      });
  gather(*sc, partials, out);

  if (partials.empty()) {
    if (!out.nodes_missing.empty()) {
      return Status::unavailable(
          "fleet: measurement unreachable: " + plan.query.measurement + " (" +
          std::to_string(out.nodes_missing.size()) + " nodes missing)");
    }
    return Status::not_found("measurement not found: " +
                             plan.query.measurement);
  }
  for (const auto& [node, partial] : partials) {
    if (partial.matched > 0) ++out.nodes_with_data;
  }

  // Merge the nodes' rows one bucket at a time, in ascending stamp order:
  // a node answers one row per bucket that holds any of its rows (one row
  // in all when ungrouped).  min/max/count are associative and commutative
  // over disjoint row sets, so any merge order is exact:
  //   min = min(node mins)   max = max(node maxes)   count = sum(counts)
  // A NaN cell whose count is NaN means the field is absent on that node,
  // and is skipped.  Two cases depend on the row order across nodes, which
  // their rows do not carry, and take the exact gather instead: a NaN
  // extreme with a count (that node's first value is NaN, which poisons
  // min/max only if it comes first fleet-wide), and extremes that are zeros
  // of opposite sign (a single node keeps the one that comes first).
  const bool grouped = plan.query.group_interval > 0;
  const std::vector<query::Selector>& selectors = node_q.selectors;
  std::vector<std::size_t> next(partials.size(), 0);
  std::vector<char> zero_tie(selectors.size());
  for (;;) {
    bool pending = false;
    double key = 0.0;  // every row is one bucket when ungrouped
    for (std::size_t n = 0; n < partials.size(); ++n) {
      const auto& rows = partials[n].second.result.rows;
      if (next[n] == rows.size()) continue;
      const double k = grouped ? rows[next[n]][0] : 0.0;
      if (!pending || k < key) key = k;
      pending = true;
    }
    if (!pending) break;

    std::vector<double> row(selectors.size() + 1,
                            std::numeric_limits<double>::quiet_NaN());
    std::fill(zero_tie.begin(), zero_tie.end(), 0);
    bool stamped = false;
    double stamp = 0.0;
    for (std::size_t n = 0; n < partials.size(); ++n) {
      const NodePartial& partial = partials[n].second;
      const auto& rows = partial.result.rows;
      if (next[n] == rows.size() || (grouped && rows[next[n]][0] != key)) {
        continue;
      }
      const std::vector<double>& prow = rows[next[n]++];
      if (!grouped && partial.matched > 0) {
        // An ungrouped row is stamped with the last matched time; the
        // fleet's is the latest across nodes.
        stamp = stamped ? std::max(stamp, prow[0]) : prow[0];
        stamped = true;
      }
      for (std::size_t j = 0; j < selectors.size(); ++j) {
        const query::Aggregate agg = selectors[j].aggregate;
        const double v = prow[j + 1];
        if (std::isnan(v)) {
          if (is_extreme(agg) && !std::isnan(prow[count_col[j] + 1])) {
            return query_exact(plan, nodes);
          }
          continue;
        }
        double& acc = row[j + 1];
        if (std::isnan(acc)) {
          acc = v;
          continue;
        }
        if (agg == query::Aggregate::kCount) {
          acc += v;
          continue;
        }
        const bool better =
            agg == query::Aggregate::kMin ? v < acc : acc < v;
        if (better) {
          acc = v;
          zero_tie[j] = 0;
        } else if (v == acc && std::signbit(v) != std::signbit(acc)) {
          zero_tie[j] = 1;
        }
      }
    }
    if (std::find(zero_tie.begin(), zero_tie.end(), 1) != zero_tie.end()) {
      return query_exact(plan, nodes);
    }
    row[0] = grouped ? key : stamp;
    row.resize(shown + 1);
    out.result.rows.push_back(std::move(row));
  }
  out.result.columns = partials.front().second.result.columns;
  out.result.columns.resize(shown + 1);
  return out;
}

}  // namespace pmove::fleet
