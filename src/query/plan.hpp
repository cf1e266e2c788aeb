// Plan + execute stages of the read path (parse → plan → execute).
//
// `make_plan` turns a typed Query into a Plan: the execution strategy
// (raw scan / single aggregate row / grouped aggregation) plus the
// canonical cache key.  `execute_columnar` evaluates a plan over a scan's
// series views; `query::run` wraps it for one DB and is the single-node
// read path, called directly or through the QueryEngine's result cache.
// `execute` evaluates the same plan over Point rows (the fleet's exact
// gather) and is bit-for-bit identical to the columnar evaluator over the
// same rows.
//
// Data-dependent validation (SELECT * resolution, the raw/aggregate mixing
// rules) happens inside execute(), exactly where the seed's monolithic
// query() performed it, so error behaviour is unchanged.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "query/query.hpp"
#include "tsdb/columns.hpp"
#include "tsdb/db.hpp"

namespace pmove::util {
class TaskPool;
}  // namespace pmove::util

namespace pmove::query {

enum class PlanKind {
  kRawScan,            ///< raw field rows, one per matching point
  kAggregate,          ///< one aggregate row over all matches
  kGroupedAggregate,   ///< one aggregate row per time bucket
};

struct Plan {
  Query query;
  PlanKind kind = PlanKind::kRawScan;
  /// Canonical query text (Query::to_string); the result-cache key.
  std::string cache_key;
};

/// Builds the plan for a query.  Never fails: kind is derived from the
/// declared selectors, and the remaining validation is data-dependent.
Plan make_plan(Query query);

/// Aggregates `values` (gathered in time order, with `times` parallel to
/// it).  Empty input yields NaN; stddev of fewer than two values is 0.
/// Spans so the columnar path can aggregate straight over column slices
/// without copying; vectors convert implicitly.
double aggregate(Aggregate agg, std::span<const double> values,
                 std::span<const TimeNs> times);

/// Evaluates a plan over the matching points (already tag/time-filtered
/// and in time order).  The fleet's exact gather and the storage bench's
/// row-store reference; the single-DB path uses execute_columnar.
Expected<tsdb::QueryResult> execute(const Plan& plan,
                                    const std::vector<tsdb::Point>& matches);

/// Parallel-execution knobs for the columnar evaluator.  Decompositions
/// are chosen so the result is independent of thread count and morsel
/// boundaries: every parallel path either partitions work whose results
/// the serial path would compute independently anyway (group buckets, raw
/// rows, distinct aggregate fields) or merges order-exact partials
/// (count/min/max/first/last).  Order-sensitive floating-point folds
/// (sum/mean/stddev) are never chunk-merged.
struct ExecOptions {
  /// Worker pool; null means util::TaskPool::shared().  A pool of size 1
  /// executes everything on the calling thread (serial).
  util::TaskPool* pool = nullptr;
  /// Minimum merged row count before row-partitioned paths (grouped
  /// buckets, raw materialization, morsel splits) fan out.
  std::size_t parallel_min_rows = 4096;
  /// Target rows per morsel when a single packed series is split.
  std::size_t morsel_rows = 65536;
};

/// Evaluates a plan directly over zero-copy SeriesView cursors, inside a
/// TimeSeriesDb::scan() callback.  Aggregates run over the views' rows in
/// merged (time, seq) order (no Point materialization); results are
/// bit-for-bit identical to execute() over the same rows collected as
/// points, including the order floating-point folds happen in.
Expected<tsdb::QueryResult> execute_columnar(
    const Plan& plan, std::span<const tsdb::SeriesView> views);
Expected<tsdb::QueryResult> execute_columnar(
    const Plan& plan, std::span<const tsdb::SeriesView> views,
    const ExecOptions& opts);

/// Parse-free typed execution against one DB: scan + execute_columnar.
/// The single-node read path; QueryEngine::run puts its cache in front.
Expected<tsdb::QueryResult> run(const tsdb::TimeSeriesDb& db, const Query& q);
Expected<tsdb::QueryResult> run(const tsdb::TimeSeriesDb& db, const Query& q,
                                const ExecOptions& opts);
Expected<tsdb::QueryResult> run(const tsdb::TimeSeriesDb& db,
                                std::string_view text);

}  // namespace pmove::query
