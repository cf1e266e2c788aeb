// LRU result cache for the query engine.
//
// Entries are keyed by the canonical query text (Plan::cache_key) and
// tagged with the queried measurement's write epoch *read before the scan*.
// An entry is valid only while the measurement's current epoch still equals
// the tag, so a write that races with the scan can only make the stored
// epoch older than the data — the entry is then invalidated on the next
// lookup, never served stale.  Capacity 0 disables caching entirely.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

#include "tsdb/db.hpp"

namespace pmove::query {

class ResultCache {
 public:
  struct Entry {
    tsdb::QueryResult result;
    std::uint64_t epoch = 0;  ///< write epoch, read before the scan
  };

  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the entry and marks it most-recently-used; nullptr on miss.
  /// The pointer is invalidated by the next put()/erase()/clear().
  const Entry* get(const std::string& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  void put(const std::string& key, Entry entry) {
    if (capacity_ == 0) return;
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(entry);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(entry));
    index_[key] = order_.begin();
    if (order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
  }

  void erase(const std::string& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return;
    order_.erase(it->second);
    index_.erase(it);
  }

  void clear() {
    order_.clear();
    index_.clear();
  }

  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_;
  std::uint64_t evictions_ = 0;
  /// Front = most recently used.
  std::list<std::pair<std::string, Entry>> order_;
  std::unordered_map<std::string, std::list<std::pair<std::string, Entry>>::iterator>
      index_;
};

}  // namespace pmove::query
