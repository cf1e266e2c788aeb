// Typed read-path query API (paper, Listing 3; ROADMAP "hot-path speedups").
//
// The seed TSDB exposed exactly one read entry point —
// `TimeSeriesDb::query(std::string_view)` — so every dashboard panel
// re-parsed its query text on every refresh tick.  This module is the
// *parse* stage of the parse → plan → execute pipeline: a `Query` value is
// the typed AST the parser produces and the planner consumes, and callers
// (ViewBuilder, the live-CARM panel, the CLI) can construct one directly
// with `QueryBuilder` and reuse it across refreshes without ever paying for
// parsing.
//
// Grammar subset (unchanged from the seed):
//
//   SELECT "f1", "f2" | * | agg("f") [, ...]
//     FROM "measurement"
//     [WHERE tag="uuid" AND time >= a AND time <= b]
//     [GROUP BY time(<interval>)]
//
// `Query::to_string()` renders a canonical text form that reparses to an
// equal Query; it doubles as the plan-cache key.
#pragma once

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.hpp"
#include "util/status.hpp"

namespace pmove::query {

/// Aggregate selector functions (superdb's AGGObservationInterface set).
enum class Aggregate {
  kNone = 0,  ///< raw field selection
  kMean,
  kMin,
  kMax,
  kSum,
  kCount,
  kStddev,  ///< sample standard deviation (n-1)
  kFirst,
  kLast,
};

/// Lower-case query-text name ("mean", "stddev", ...); "" for kNone.
std::string_view to_string(Aggregate aggregate);

/// Parses a lower-case aggregate name; the error message matches the seed
/// parser ("unknown aggregate function: <name>").
Expected<Aggregate> parse_aggregate(std::string_view name);

/// True when a node's finished answer for the aggregate (min/max/count)
/// merges exactly with other nodes' answers in any order — the fleet
/// pushdown keys on this.  sum/mean/stddev do not depend on row order
/// either, but a node's rounded sum cannot be merged exactly with another;
/// first/last depend on the cross-node row order.  Both are re-evaluated
/// over the gathered rows.
[[nodiscard]] bool order_insensitive(Aggregate aggregate);

/// One SELECT-list entry: a raw field or an aggregate over a field.
struct Selector {
  std::string field;
  Aggregate aggregate = Aggregate::kNone;

  /// Column label: the field name, or "agg(field)".
  [[nodiscard]] std::string label() const;

  friend bool operator==(const Selector&, const Selector&) = default;
};

/// The typed query AST.  Time bounds default to the full range; a
/// `group_interval` of 0 means no GROUP BY time() clause.
struct Query {
  std::vector<Selector> selectors;
  bool select_all = false;
  std::string measurement;
  std::map<std::string, std::string> tag_filters;
  TimeNs time_min = std::numeric_limits<TimeNs>::min();
  TimeNs time_max = std::numeric_limits<TimeNs>::max();
  TimeNs group_interval = 0;

  /// Parses query text (the seed grammar, identical error messages).
  static Expected<Query> parse(std::string_view text);

  /// Canonical text form; `parse(q.to_string())` yields a Query equal to
  /// `q`.  Used as the result-cache key.
  [[nodiscard]] std::string to_string() const;

  /// True when any declared selector carries an aggregate.
  [[nodiscard]] bool aggregated() const;

  friend bool operator==(const Query&, const Query&) = default;
};

/// Fluent construction for the common caller shapes:
///
///   QueryBuilder("kernel_percpu_cpu_idle")
///       .select("_cpu0")
///       .where_tag("tag", observation.tag)
///       .build();
class QueryBuilder {
 public:
  explicit QueryBuilder(std::string measurement) {
    query_.measurement = std::move(measurement);
  }

  QueryBuilder& select(std::string field) {
    query_.selectors.push_back({std::move(field), Aggregate::kNone});
    return *this;
  }
  QueryBuilder& select(Aggregate aggregate, std::string field) {
    query_.selectors.push_back({std::move(field), aggregate});
    return *this;
  }
  QueryBuilder& select_all() {
    query_.select_all = true;
    return *this;
  }
  QueryBuilder& where_tag(std::string key, std::string value) {
    query_.tag_filters[std::move(key)] = std::move(value);
    return *this;
  }
  /// time >= t (intersected with any previous bound).
  QueryBuilder& since(TimeNs t) {
    query_.time_min = std::max(query_.time_min, t);
    return *this;
  }
  /// time <= t (intersected with any previous bound).
  QueryBuilder& until(TimeNs t) {
    query_.time_max = std::min(query_.time_max, t);
    return *this;
  }
  QueryBuilder& group_by_time(TimeNs interval_ns) {
    query_.group_interval = interval_ns;
    return *this;
  }

  [[nodiscard]] Query build() const& { return query_; }
  [[nodiscard]] Query build() && { return std::move(query_); }

 private:
  Query query_;
};

}  // namespace pmove::query
