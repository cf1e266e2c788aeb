// Concurrent TSDB query engine: parse → plan → execute with an epoch-keyed
// LRU result cache.
//
// One engine fronts one TimeSeriesDb.  Dashboard panels submit typed
// Queries (or legacy text) through run():
//
//   1. cache — the plan's canonical text keys an LRU entry tagged with the
//              write epoch of the queried measurement; while the epoch is
//              unchanged the panel is served without touching point storage
//              (write_batch bumps the epoch, invalidating);
//   2. scan  — otherwise query::run() evaluates under the DB's shared lock,
//              which readers hold concurrently.
//
// Thread safety: run() may be called from any number of panel threads
// concurrently with writers on the underlying DB.  The engine's own mutex
// guards only cache and stats bookkeeping, never point storage scans.
#pragma once

#include <cstdint>
#include <mutex>
#include <string_view>

#include "query/cache.hpp"
#include "query/plan.hpp"
#include "query/query.hpp"
#include "tsdb/db.hpp"
#include "util/status.hpp"

namespace pmove::query {

struct EngineOptions {
  /// Result-cache entries; 0 disables caching.
  std::size_t cache_capacity = 256;
};

/// Monotonic counters (snapshot): the engine's one copy of them.  The
/// daemon exports its engine's as pmove_query{instance=engine}.
struct EngineStats {
  std::uint64_t queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
};

class QueryEngine {
 public:
  explicit QueryEngine(tsdb::TimeSeriesDb& db, EngineOptions options = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Executes a typed query through cache → scan.
  Expected<tsdb::QueryResult> run(const Query& q);
  /// Legacy text entry point: parse once, then run().
  Expected<tsdb::QueryResult> run(std::string_view text);

  [[nodiscard]] EngineStats stats() const;
  void clear_cache();

  [[nodiscard]] tsdb::TimeSeriesDb& db() { return db_; }
  [[nodiscard]] const tsdb::TimeSeriesDb& db() const { return db_; }

 private:
  tsdb::TimeSeriesDb& db_;

  mutable std::mutex mutex_;  ///< guards cache_, stats_
  ResultCache cache_;
  EngineStats stats_;
};

}  // namespace pmove::query
