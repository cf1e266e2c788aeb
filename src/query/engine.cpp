#include "query/engine.hpp"

#include <cstdint>
#include <utility>

namespace pmove::query {

QueryEngine::QueryEngine(tsdb::TimeSeriesDb& db, EngineOptions options)
    : db_(db), cache_(options.cache_capacity) {}

Expected<tsdb::QueryResult> QueryEngine::run(std::string_view text) {
  auto parsed = Query::parse(text);
  if (!parsed) return parsed.status();
  return run(parsed.value());
}

Expected<tsdb::QueryResult> QueryEngine::run(const Query& q) {
  Plan plan = make_plan(q);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.queries;
    if (cache_.capacity() > 0) {
      if (const ResultCache::Entry* entry = cache_.get(plan.cache_key)) {
        // Valid while the measurement's epoch is unchanged.  The epoch was
        // read *before* the scan, so a racing write can only make the tag
        // stale (miss), never the data.
        if (entry->epoch != 0 &&
            db_.write_epoch(q.measurement) == entry->epoch) {
          ++stats_.cache_hits;
          return entry->result;
        }
      }
    }
    ++stats_.cache_misses;
  }

  // Execute outside the engine lock: scans run under the DB's shared lock
  // so concurrent panels proceed in parallel.
  const std::uint64_t epoch = db_.write_epoch(q.measurement);
  Expected<tsdb::QueryResult> result = query::run(db_, q);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (result.has_value() && cache_.capacity() > 0 && epoch != 0) {
      cache_.put(plan.cache_key, {result.value(), epoch});
      stats_.cache_evictions = cache_.evictions();
    }
  }
  return result;
}

EngineStats QueryEngine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void QueryEngine::clear_cache() {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.clear();
}

}  // namespace pmove::query
