#include "tsdb/db.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <mutex>
#include <numeric>
#include <utility>

#include "util/strings.hpp"
#include "util/task_pool.hpp"

namespace pmove::tsdb {

namespace {

// Decoded-tag-set lexicographic order: identical to comparing the
// materialized std::map<std::string, std::string> tag maps, so scan order
// matches the group order the seed row store produced when callers grouped
// points by their tag maps.
bool tagset_less(const TagDictionary& dict, const TagDictionary::TagSet& a,
                 const TagDictionary::TagSet& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (int c = dict.string(a[i].first).compare(dict.string(b[i].first));
        c != 0) {
      return c < 0;
    }
    if (int c = dict.string(a[i].second).compare(dict.string(b[i].second));
        c != 0) {
      return c < 0;
    }
  }
  return a.size() < b.size();
}

// Reorders v[first..first+perm.size()) to v[first + perm[i]].
template <class T>
void apply_perm(std::vector<T>& v, std::size_t first,
                const std::vector<std::uint32_t>& perm) {
  std::vector<T> tmp(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) tmp[i] = v[first + perm[i]];
  std::copy(tmp.begin(), tmp.end(), v.begin() + first);
}

// Sorts run rows [head, end) into (time, seq) order via one permutation.
void sort_run(Run& run) {
  const std::size_t first = run.head;
  const std::size_t n = run.times.size() - first;
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  const TimeNs* times = run.times.data() + first;
  const std::uint64_t* seqs = run.seqs.data() + first;
  std::sort(perm.begin(), perm.end(),
            [times, seqs](std::uint32_t a, std::uint32_t b) {
              if (times[a] != times[b]) return times[a] < times[b];
              return seqs[a] < seqs[b];
            });
  apply_perm(run.times, first, perm);
  apply_perm(run.seqs, first, perm);
  for (FieldColumn& col : run.fields) {
    apply_perm(col.values, first, perm);
    if (!col.present.empty()) apply_perm(col.present, first, perm);
  }
  run.sorted = true;
}

// Reclaims trimmed rows once they dominate the run: retention only
// advances `head`, so the dead prefix is erased lazily when it is both big
// enough to matter and at least half the physical storage (amortized O(1)
// per trimmed row).
void maybe_compact(Run& run) {
  if (run.head < 1024 || run.head * 2 < run.times.size()) return;
  const auto n = static_cast<std::ptrdiff_t>(run.head);
  run.times.erase(run.times.begin(), run.times.begin() + n);
  run.seqs.erase(run.seqs.begin(), run.seqs.begin() + n);
  for (FieldColumn& col : run.fields) {
    col.values.erase(col.values.begin(), col.values.begin() + n);
    if (!col.present.empty()) {
      col.present.erase(col.present.begin(), col.present.begin() + n);
    }
  }
  run.head = 0;
}

// Drops the trimmed prefix unconditionally (used when a run is about to be
// moved or merged, where keeping dead rows would just copy them around).
void drop_trimmed(Run& run) {
  if (run.head == 0) return;
  const auto n = static_cast<std::ptrdiff_t>(run.head);
  run.times.erase(run.times.begin(), run.times.begin() + n);
  run.seqs.erase(run.seqs.begin(), run.seqs.begin() + n);
  for (FieldColumn& col : run.fields) {
    col.values.erase(col.values.begin(), col.values.begin() + n);
    if (!col.present.empty()) {
      col.present.erase(col.present.begin(), col.present.begin() + n);
    }
  }
  run.head = 0;
}

// Line-protocol byte cost of one point given its series' cached prefix
// width — the same arithmetic as Point::wire_size() with the invariant
// measurement+tags part precomputed.
std::size_t wire_cost(const Series& series, const Point& point) {
  std::size_t n = series.wire_prefix;
  bool first = true;
  for (const auto& [k, v] : point.fields) {
    if (!first) ++n;  // ','
    first = false;
    n += lp::escaped_size(k) + 1 + lp::value_width(v);
  }
  return n + 1 + lp::decimal_width(point.time);
}

// FNV-1a over the series key (measurement + tag strings) for the per-batch
// series memo.
std::uint64_t series_key_hash(const Point& point) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::string& s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0xff;
    h *= 1099511628211ull;
  };
  mix(point.measurement);
  for (const auto& [k, v] : point.tags) {
    mix(k);
    mix(v);
  }
  return h;
}

}  // namespace

IndexConfig IndexConfig::from_env() {
  IndexConfig config;
  if (const char* env = std::getenv("PMOVE_TSDB_INDEX_MIN_SERIES");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      config.min_series = static_cast<std::size_t>(v);
    }
  }
  return config;
}

std::size_t QueryResult::column_index(std::string_view name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return i;
  }
  return columns.size();
}

void TimeSeriesDb::bump_epoch_locked(const std::string& measurement) {
  epochs_[measurement] = ++epoch_counter_;
}

void TimeSeriesDb::append_row_locked(Series& series, const Point& point) {
  Run& run = series.active;
  if (run.sorted && !run.times.empty() && point.time < run.times.back()) {
    run.sorted = false;
  }
  run.times.push_back(point.time);
  run.seqs.push_back(seq_counter_++);
  const std::size_t rows = run.times.size();
  // Merge the point's (sorted) field map into the (sorted) column vector:
  // matched columns take the value, unmatched columns take an absent NaN,
  // unseen fields open a new column backfilled with absent rows.
  std::size_t ci = 0;
  auto fit = point.fields.begin();
  while (ci < run.fields.size() || fit != point.fields.end()) {
    int cmp;
    if (ci == run.fields.size()) {
      cmp = 1;
    } else if (fit == point.fields.end()) {
      cmp = -1;
    } else {
      cmp = run.fields[ci].name.compare(fit->first);
    }
    if (cmp < 0) {  // column the point does not carry
      FieldColumn& col = run.fields[ci];
      if (col.present.empty()) col.present.assign(rows - 1, 1);
      col.present.push_back(0);
      col.values.push_back(std::nan(""));
      ++ci;
    } else if (cmp > 0) {  // field this run has not seen
      FieldColumn col;
      col.name = fit->first;
      col.values.assign(rows - 1, std::nan(""));
      col.values.push_back(fit->second);
      if (rows > 1) {
        col.present.assign(rows - 1, 0);
        col.present.push_back(1);
      }
      run.fields.insert(
          run.fields.begin() + static_cast<std::ptrdiff_t>(ci),
          std::move(col));
      ++ci;
      ++fit;
    } else {
      FieldColumn& col = run.fields[ci];
      col.values.push_back(fit->second);
      if (!col.present.empty()) col.present.push_back(1);
      ++ci;
      ++fit;
    }
  }
  ++live_points_;
}

void TimeSeriesDb::seal_active_locked(Series& series) {
  Run& run = series.active;
  if (run.empty()) return;
  drop_trimmed(run);
  if (!run.sorted) sort_run(run);
  series.sealed.push_back(std::move(run));
  series.active = Run{};
  ++run_seals_;
  // Amortized compaction: fold once sealed runs pile up or reach the
  // configured fraction of the base (each fold then grows the base
  // geometrically, bounding total copy work per row).
  const std::size_t floor = std::max(series.base.row_count(),
                                     run_config_.seal_rows);
  if (series.sealed.size() > run_config_.max_sealed ||
      static_cast<double>(series.sealed_rows()) >=
          run_config_.fold_ratio * static_cast<double>(floor)) {
    fold_series_locked(series, /*include_active=*/false);
  } else {
    // The run will sit on the sealed list for a while — compress it now.
    // (When the fold fires instead, the fold packs the merged base.)
    try_pack_locked(series.sealed.back());
  }
}

void TimeSeriesDb::fold_series_locked(Series& series, bool include_active) {
  std::vector<Run*> runs;
  if (!series.base.empty()) runs.push_back(&series.base);
  for (Run& r : series.sealed) {
    if (!r.empty()) runs.push_back(&r);
  }
  if (include_active && !series.active.empty()) {
    runs.push_back(&series.active);
  }
  if (runs.size() <= 1 && series.sealed.empty() &&
      (!include_active || series.active.empty())) {
    return;  // nothing to fold
  }
  for (Run* r : runs) {
    // The merge below reads raw column vectors; packed inputs decode
    // first (their rows land packed again in the folded base).
    unpack_run(*r);
    drop_trimmed(*r);
    if (!r->sorted) sort_run(*r);
  }
  ++run_folds_;
  if (runs.empty()) {
    series.base = Run{};
    series.sealed.clear();
    if (include_active) series.active = Run{};
    return;
  }

  // Order runs by first (time, seq); if they cover disjoint windows the
  // fold is a straight column concatenation (memcpy-shaped).
  std::stable_sort(runs.begin(), runs.end(), [](const Run* a, const Run* b) {
    if (a->times.front() != b->times.front()) {
      return a->times.front() < b->times.front();
    }
    return a->seqs.front() < b->seqs.front();
  });
  bool disjoint = true;
  for (std::size_t i = 0; i + 1 < runs.size(); ++i) {
    const Run* a = runs[i];
    const Run* b = runs[i + 1];
    if (a->times.back() > b->times.front() ||
        (a->times.back() == b->times.front() &&
         a->seqs.back() > b->seqs.front())) {
      disjoint = false;
      break;
    }
  }

  std::size_t total = 0;
  for (const Run* r : runs) total += r->times.size();

  // Unified field schema (union, name-sorted) and per-run column table.
  std::vector<std::string_view> names;
  for (const Run* r : runs) {
    for (const FieldColumn& col : r->fields) {
      auto it = std::lower_bound(names.begin(), names.end(),
                                 std::string_view(col.name));
      if (it == names.end() || *it != col.name) {
        names.insert(it, std::string_view(col.name));
      }
    }
  }
  std::vector<const FieldColumn*> table(names.size() * runs.size(), nullptr);
  for (std::size_t f = 0; f < names.size(); ++f) {
    for (std::size_t r = 0; r < runs.size(); ++r) {
      table[f * runs.size() + r] = runs[r]->field(names[f]);
    }
  }

  Run out;
  out.sorted = true;
  out.times.reserve(total);
  out.seqs.reserve(total);
  out.fields.resize(names.size());

  if (disjoint) {
    for (const Run* r : runs) {
      out.times.insert(out.times.end(), r->times.begin(), r->times.end());
      out.seqs.insert(out.seqs.end(), r->seqs.begin(), r->seqs.end());
    }
    for (std::size_t f = 0; f < names.size(); ++f) {
      FieldColumn& col = out.fields[f];
      col.name = std::string(names[f]);
      col.values.reserve(total);
      const bool everywhere = [&] {
        for (std::size_t r = 0; r < runs.size(); ++r) {
          const FieldColumn* src = table[f * runs.size() + r];
          if (src == nullptr || !src->all_present()) return false;
        }
        return true;
      }();
      if (!everywhere) col.present.reserve(total);
      for (std::size_t r = 0; r < runs.size(); ++r) {
        const FieldColumn* src = table[f * runs.size() + r];
        const std::size_t rows = runs[r]->times.size();
        if (src == nullptr) {
          col.values.insert(col.values.end(), rows, std::nan(""));
          if (!everywhere) col.present.insert(col.present.end(), rows, 0);
          continue;
        }
        col.values.insert(col.values.end(), src->values.begin(),
                          src->values.end());
        if (everywhere) continue;
        if (src->all_present()) {
          col.present.insert(col.present.end(), rows, 1);
        } else {
          col.present.insert(col.present.end(), src->present.begin(),
                             src->present.end());
        }
      }
    }
  } else {
    // Interleaved runs: k-way merge via one (time, seq) sort of row refs.
    struct Ref {
      TimeNs time;
      std::uint64_t seq;
      std::uint32_t run;
      std::uint32_t row;
    };
    std::vector<Ref> refs;
    refs.reserve(total);
    for (std::uint32_t r = 0; r < runs.size(); ++r) {
      const Run* run = runs[r];
      for (std::size_t i = 0; i < run->times.size(); ++i) {
        refs.push_back({run->times[i], run->seqs[i], r,
                        static_cast<std::uint32_t>(i)});
      }
    }
    std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    });
    for (const Ref& ref : refs) {
      out.times.push_back(ref.time);
      out.seqs.push_back(ref.seq);
    }
    for (std::size_t f = 0; f < names.size(); ++f) {
      FieldColumn& col = out.fields[f];
      col.name = std::string(names[f]);
      col.values.reserve(total);
      bool everywhere = true;
      for (std::size_t r = 0; r < runs.size(); ++r) {
        const FieldColumn* src = table[f * runs.size() + r];
        if (src == nullptr || !src->all_present()) {
          everywhere = false;
          break;
        }
      }
      if (!everywhere) col.present.reserve(total);
      for (const Ref& ref : refs) {
        const FieldColumn* src = table[f * runs.size() + ref.run];
        const bool present =
            src != nullptr &&
            (src->all_present() || src->present[ref.row] != 0);
        col.values.push_back(present ? src->values[ref.row] : std::nan(""));
        if (!everywhere) col.present.push_back(present ? 1 : 0);
      }
    }
  }

  series.base = std::move(out);
  series.sealed.clear();
  if (include_active) series.active = Run{};
  try_pack_locked(series.base);
}

Series* TimeSeriesDb::resolve_series_locked(
    MeasurementStore& store, const std::string& measurement,
    const std::map<std::string, std::string>& tags) {
  const TagDictionary::TagSetId ts = dict_.intern_set(tags);
  if (auto it = store.by_tagset.find(ts); it != store.by_tagset.end()) {
    return store.series[it->second].get();
  }
  const auto idx = static_cast<std::uint32_t>(store.series.size());
  auto series = std::make_unique<Series>();
  series->tagset_id = ts;
  std::size_t prefix = lp::escaped_size(measurement);
  for (const auto& [k, v] : tags) {
    prefix += 2 + lp::escaped_size(k) + lp::escaped_size(v);  // ',' k '=' v
  }
  series->wire_prefix = prefix + 1;  // trailing space before fields
  Series* raw = series.get();
  store.series.push_back(std::move(series));
  store.by_tagset.emplace(ts, idx);
  auto pos = std::lower_bound(
      store.sorted.begin(), store.sorted.end(), idx,
      [this, &store](std::uint32_t a, std::uint32_t b) {
        return tagset_less(dict_, dict_.set(store.series[a]->tagset_id),
                           dict_.set(store.series[b]->tagset_id));
      });
  const auto at = static_cast<std::size_t>(pos - store.sorted.begin());
  store.sorted.insert(pos, idx);
  // Inverted tag index: idx is the largest creation index, so appending
  // keeps every posting list ascending.  Ranks at and after the insertion
  // point shift by one — same O(sorted) cost the vector insert just paid.
  for (const auto& pair : dict_.set(ts)) {
    store.postings[pair].push_back(idx);
  }
  store.rank.resize(store.series.size());
  for (std::size_t i = at; i < store.sorted.size(); ++i) {
    store.rank[store.sorted[i]] = static_cast<std::uint32_t>(i);
  }
  return raw;
}

void TimeSeriesDb::rebuild_index_locked(MeasurementStore& store,
                                        const TagDictionary& dict) {
  store.postings.clear();
  for (std::uint32_t i = 0; i < store.series.size(); ++i) {
    for (const auto& pair : dict.set(store.series[i]->tagset_id)) {
      store.postings[pair].push_back(i);
    }
  }
  store.rank.assign(store.series.size(), 0);
  for (std::size_t i = 0; i < store.sorted.size(); ++i) {
    store.rank[store.sorted[i]] = static_cast<std::uint32_t>(i);
  }
}

Status TimeSeriesDb::write_batch(std::vector<Point> points) {
  for (const Point& point : points) {
    if (point.measurement.empty()) {
      return Status::invalid_argument("point missing measurement");
    }
    if (point.fields.empty()) {
      return Status::invalid_argument("point has no fields");
    }
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  ++batch_counter_;
  // Per-batch series memo: a direct-mapped hash table keyed by the point's
  // (measurement, tags) that skips the dictionary interning walk for
  // repeated tag sets — batches overwhelmingly cycle through a bounded set
  // of series.  Misses (and collisions) fall back to the full resolve.
  struct MemoSlot {
    std::uint64_t hash = 0;
    const Point* key = nullptr;
    Series* series = nullptr;
  };
  constexpr std::size_t kMemoSlots = 1024;  // power of two
  std::array<MemoSlot, kMemoSlots> memo{};
  const std::string* cur_measurement = nullptr;
  MeasurementStore* cur_store = nullptr;
  std::vector<Series*> touched;
  for (const Point& point : points) {
    if (cur_measurement == nullptr || *cur_measurement != point.measurement) {
      auto it = series_.find(point.measurement);
      if (it == series_.end()) {
        it = series_.emplace(point.measurement, MeasurementStore{}).first;
      }
      bump_epoch_locked(it->first);
      cur_measurement = &it->first;
      cur_store = &it->second;
    }
    const std::uint64_t hash = series_key_hash(point);
    MemoSlot& slot = memo[hash & (kMemoSlots - 1)];
    Series* series;
    if (slot.series != nullptr && slot.hash == hash &&
        slot.key->measurement == point.measurement &&
        slot.key->tags == point.tags) {
      series = slot.series;
    } else {
      series = resolve_series_locked(*cur_store, *cur_measurement, point.tags);
      slot = {hash, &point, series};
    }
    // O(1) touched dedup: a generation stamp instead of scanning the
    // touched list per point (which was quadratic in distinct series).
    if (series->touch_batch != batch_counter_) {
      series->touch_batch = batch_counter_;
      touched.push_back(series);
    }
    bytes_written_ += wire_cost(*series, point);
    append_row_locked(*series, point);
  }
  for (Series* series : touched) {
    if (series->active.row_count() >= run_config_.seal_rows) {
      seal_active_locked(*series);
    }
  }
  return Status::ok();
}

std::size_t TimeSeriesDb::enforce_retention(TimeNs now) {
  if (retention_.duration <= 0) return 0;
  const TimeNs cutoff = now - retention_.duration;
  std::unique_lock<std::shared_mutex> lock(mutex_);
  std::size_t dropped = 0;
  for (auto& [name, store] : series_) {
    std::size_t trimmed = 0;
    for (auto& entry : store.series) {
      Series& s = *entry;
      const auto trim_run = [&](Run& run) {
        if (run.empty()) return;
        if (run.is_packed()) {
          // Same head-advance, but the search runs over the delta-of-delta
          // block index instead of a raw vector.  Compaction of a
          // mostly-trimmed packed run is a decode/re-encode cycle.
          const std::size_t new_head =
              std::max(run.head, run.packed->times.lower_bound(cutoff));
          if (new_head == run.head) return;
          trimmed += new_head - run.head;
          run.head = new_head;
          if (run.head >= 1024 && run.head * 2 >= run.physical_rows()) {
            unpack_run(run);
            drop_trimmed(run);
            try_pack_locked(run);
          }
          return;
        }
        if (!run.sorted) sort_run(run);
        const auto live_begin =
            run.times.begin() + static_cast<std::ptrdiff_t>(run.head);
        auto pos = std::lower_bound(live_begin, run.times.end(), cutoff);
        const auto new_head = static_cast<std::size_t>(pos -
                                                       run.times.begin());
        if (new_head == run.head) return;
        trimmed += new_head - run.head;
        run.head = new_head;
        maybe_compact(run);
      };
      trim_run(s.base);
      for (Run& run : s.sealed) trim_run(run);
      trim_run(s.active);
      // Fully-trimmed sealed runs are dead weight; drop them now.
      s.sealed.erase(std::remove_if(s.sealed.begin(), s.sealed.end(),
                                    [](const Run& r) { return r.empty(); }),
                     s.sealed.end());
    }
    if (trimmed != 0) {
      dropped += trimmed;
      bump_epoch_locked(name);
    }
  }
  live_points_ -= dropped;
  return dropped;
}

std::size_t TimeSeriesDb::compact() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  std::size_t folded = 0;
  for (auto& [name, store] : series_) {
    for (auto& entry : store.series) {
      Series& s = *entry;
      const std::size_t loose =
          s.sealed.size() + (s.active.empty() ? 0 : 1);
      if (loose == 0) {
        // Nothing to fold, but an already-compacted base may still be
        // uncompressed (e.g. packing was just enabled): compress it now so
        // an explicit compact() always converges to the packed layout.
        try_pack_locked(s.base);
        continue;
      }
      fold_series_locked(s, /*include_active=*/true);
      folded += loose;
    }
  }
  return folded;
}

std::vector<std::string> TimeSeriesDb::measurements() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, store] : series_) out.push_back(name);
  return out;
}

std::size_t TimeSeriesDb::point_count() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return live_points_;
}

std::size_t TimeSeriesDb::point_count(std::string_view measurement) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = series_.find(measurement);
  if (it == series_.end()) return 0;
  std::size_t total = 0;
  for (const auto& entry : it->second.series) total += entry->row_count();
  return total;
}

std::size_t TimeSeriesDb::bytes_written() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return bytes_written_;
}

bool TimeSeriesDb::has_measurement(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return series_.find(name) != series_.end();
}

std::uint64_t TimeSeriesDb::write_epoch(std::string_view measurement) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = epochs_.find(measurement);
  return it == epochs_.end() ? 0 : it->second;
}

bool TimeSeriesDb::gather_views_locked(
    std::string_view measurement, TimeNs time_min, TimeNs time_max,
    const std::map<std::string, std::string>& filters,
    std::vector<SeriesView>& out) const {
  auto it = series_.find(measurement);
  if (it == series_.end()) return false;
  const MeasurementStore& store = it->second;
  // Resolve filter strings to dictionary ids once; a string the dictionary
  // has never seen cannot match any stored tag, so the scan is empty.
  std::vector<std::pair<TagDictionary::StringId, TagDictionary::StringId>>
      needed;
  needed.reserve(filters.size());
  for (const auto& [key, value] : filters) {
    const auto key_id = dict_.find(key);
    const auto value_id = dict_.find(value);
    if (!key_id.has_value() || !value_id.has_value()) return true;
    needed.emplace_back(*key_id, *value_id);
  }

  // Matching series, in the deterministic tag-sorted scan order.
  std::vector<std::uint32_t> matches;
  if (!needed.empty() && store.series.size() >= index_config_.min_series) {
    // Index path: intersect the posting lists, smallest first, so the
    // work is O(smallest list) instead of O(series × filters).  A filter
    // pair the index has never seen matches nothing.
    index_scans_.fetch_add(1, std::memory_order_relaxed);
    std::vector<const std::vector<std::uint32_t>*> lists;
    lists.reserve(needed.size());
    bool any_empty = false;
    for (const auto& pair : needed) {
      auto p = store.postings.find(pair);
      if (p == store.postings.end() || p->second.empty()) {
        any_empty = true;
        break;
      }
      lists.push_back(&p->second);
    }
    if (!any_empty) {
      std::sort(lists.begin(), lists.end(),
                [](const std::vector<std::uint32_t>* a,
                   const std::vector<std::uint32_t>* b) {
                  return a->size() < b->size();
                });
      matches = *lists.front();
      index_probes_.fetch_add(matches.size(), std::memory_order_relaxed);
      for (std::size_t l = 1; l < lists.size() && !matches.empty(); ++l) {
        std::vector<std::uint32_t> next;
        next.reserve(matches.size());
        std::set_intersection(matches.begin(), matches.end(),
                              lists[l]->begin(), lists[l]->end(),
                              std::back_inserter(next));
        matches.swap(next);
      }
      // Posting lists are in creation order; emit hits in the linear
      // probe's tag-sorted order so scan output is identical either way.
      std::sort(matches.begin(), matches.end(),
                [&store](std::uint32_t a, std::uint32_t b) {
                  return store.rank[a] < store.rank[b];
                });
    }
  } else {
    if (!needed.empty()) {
      index_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
    matches.reserve(store.sorted.size());
    for (std::uint32_t idx : store.sorted) {
      const Series& s = *store.series[idx];
      bool ok = true;
      for (const auto& [key_id, value_id] : needed) {
        if (!dict_.set_contains(s.tagset_id, key_id, value_id)) {
          ok = false;
          break;
        }
      }
      if (ok) matches.push_back(idx);
    }
  }

  // Build the clipped views — in parallel for wide matches.  Workers only
  // read series/dictionary state; the caller holds the shared lock for
  // the whole gather, so no writer can interleave.  Each slot is written
  // by exactly one task, and empty views are dropped afterwards in match
  // order, keeping the output deterministic.
  const std::size_t n = matches.size();
  std::vector<SeriesView> built(n);
  util::TaskPool& pool =
      scan_pool_ != nullptr ? *scan_pool_ : util::TaskPool::shared();
  constexpr std::size_t kParallelBuildMin = 64;
  if (n >= kParallelBuildMin && pool.size() > 1) {
    pool.parallel_for(n, [&](std::size_t i) {
      built[i] = SeriesViewBuilder::build(*store.series[matches[i]], dict_,
                                          time_min, time_max);
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      built[i] = SeriesViewBuilder::build(*store.series[matches[i]], dict_,
                                          time_min, time_max);
    }
  }
  out.reserve(out.size() + n);
  for (SeriesView& view : built) {
    if (view.rows() == 0) continue;
    out.push_back(std::move(view));
  }
  return true;
}

bool TimeSeriesDb::scan(std::string_view measurement, TimeNs time_min,
                        TimeNs time_max,
                        const std::map<std::string, std::string>& tag_filters,
                        const ScanCallback& visit) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<SeriesView> views;
  const bool found =
      gather_views_locked(measurement, time_min, time_max, tag_filters,
                          views);
  visit(std::span<const SeriesView>(views));
  return found;
}

std::vector<Point> TimeSeriesDb::collect(
    std::string_view measurement, TimeNs time_min, TimeNs time_max,
    const std::map<std::string, std::string>& tag_filters) const {
  std::vector<Point> out;
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<SeriesView> views;
  if (!gather_views_locked(measurement, time_min, time_max, tag_filters,
                           views)) {
    return out;
  }
  std::size_t total = 0;
  for (const SeriesView& v : views) total += v.rows();
  out.reserve(total);
  // Decode each tag set once per series, not once per point, and track how
  // many rows still need each map: intermediate points share via copy, the
  // last row of a series steals the map outright — one decode and V copies
  // saved per series instead of one copy per point.
  std::vector<std::map<std::string, std::string>> tag_maps;
  std::vector<std::size_t> remaining;
  tag_maps.reserve(views.size());
  remaining.reserve(views.size());
  for (const SeriesView& v : views) {
    tag_maps.push_back(v.decode_tags());
    remaining.push_back(v.rows());
  }
  for (const ViewRow& ref : merged_view_rows(views)) {
    const SeriesView& view = views[ref.view];
    Point p;
    p.measurement = std::string(measurement);
    if (--remaining[ref.view] == 0) {
      p.tags = std::move(tag_maps[ref.view]);
    } else {
      p.tags = tag_maps[ref.view];
    }
    p.time = ref.time;
    for (std::size_t f = 0; f < view.field_count(); ++f) {
      if (!view.has_value(f, ref.loc)) continue;
      // Fields are name-sorted, so insertion at the map's end is O(1).
      p.fields.emplace_hint(p.fields.end(), std::string(view.field_name(f)),
                            view.value_at(f, ref.loc));
    }
    out.push_back(std::move(p));
  }
  return out;
}

Status TimeSeriesDb::dump_to_file(const std::string& path) const {
  // Render the whole snapshot under the shared lock, but keep the file I/O
  // outside it — a slow disk must never stall writers.
  std::string buffer;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    char value_buf[48];
    for (const auto& [name, store] : series_) {
      std::vector<SeriesView> views;
      (void)gather_views_locked(name, std::numeric_limits<TimeNs>::min(),
                                std::numeric_limits<TimeNs>::max(), {},
                                views);
      // Per-series constants: the escaped "measurement,tag=v,..." prefix and
      // the escaped field names, rendered once instead of once per row.
      std::vector<std::string> prefixes;
      std::vector<std::vector<std::string>> field_names;
      prefixes.reserve(views.size());
      field_names.reserve(views.size());
      for (const SeriesView& view : views) {
        std::string prefix = lp::escape(name);
        for (const auto& [key_id, value_id] : view.tagset()) {
          prefix += ',';
          prefix += lp::escape(view.dict().string(key_id));
          prefix += '=';
          prefix += lp::escape(view.dict().string(value_id));
        }
        prefixes.push_back(std::move(prefix));
        std::vector<std::string> names;
        names.reserve(view.field_count());
        for (std::size_t f = 0; f < view.field_count(); ++f) {
          names.push_back(lp::escape(std::string(view.field_name(f))));
        }
        field_names.push_back(std::move(names));
      }
      for (const ViewRow& ref : merged_view_rows(views)) {
        const SeriesView& view = views[ref.view];
        buffer += prefixes[ref.view];
        buffer += ' ';
        bool first = true;
        for (std::size_t f = 0; f < view.field_count(); ++f) {
          if (!view.has_value(f, ref.loc)) continue;
          if (!first) buffer += ',';
          first = false;
          buffer += field_names[ref.view][f];
          buffer += '=';
          const int n =
              lp::format_value(value_buf, view.value_at(f, ref.loc));
          buffer.append(value_buf, static_cast<std::size_t>(n));
        }
        buffer += ' ';
        buffer += std::to_string(ref.time);
        buffer += '\n';
      }
    }
  }
  std::ofstream out(path);
  if (!out) return Status::unavailable("cannot write " + path);
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  return out.good() ? Status::ok()
                    : Status::unavailable("write failed: " + path);
}

Status TimeSeriesDb::load_from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::not_found("cannot open " + path);
  std::string line;
  std::size_t line_no = 0;
  // Parse into batches so the columnar insert amortizes locking and
  // ordering; lines before a malformed one still land (same partial-apply
  // behavior as the old per-line path).
  constexpr std::size_t kBatch = 4096;
  std::vector<Point> batch;
  batch.reserve(kBatch);
  auto flush = [&]() -> Status {
    if (batch.empty()) return Status::ok();
    std::vector<Point> out;
    out.reserve(kBatch);
    std::swap(out, batch);
    return write_batch(std::move(out));
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (strings::trim(line).empty()) continue;
    auto point = Point::from_line(line);
    if (!point.has_value()) {
      (void)flush();
      return Status::parse_error(path + ":" + std::to_string(line_no) + ": " +
                                 point.status().message());
    }
    batch.push_back(std::move(point.value()));
    if (batch.size() >= kBatch) {
      if (Status s = flush(); !s.is_ok()) return s;
    }
  }
  return flush();
}

void TimeSeriesDb::clear() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  series_.clear();
  // Epoch tags die with the entries; epoch_counter_ keeps counting so a
  // measurement recreated after clear() never reuses an old epoch value.
  // seq_counter_ keeps counting too — old seqs are unreachable, but a
  // monotonic counter is free and immune to ABA-style ordering surprises.
  epochs_.clear();
  dict_.clear();
  bytes_written_ = 0;
  live_points_ = 0;
}

std::size_t TimeSeriesDb::drop_series(
    std::string_view measurement,
    const std::map<std::string, std::string>& tags) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = series_.find(measurement);
  if (it == series_.end()) return 0;
  MeasurementStore& store = it->second;
  std::size_t victim = store.series.size();
  for (std::size_t i = 0; i < store.series.size(); ++i) {
    const TagDictionary::TagSet& set = dict_.set(store.series[i]->tagset_id);
    if (set.size() != tags.size()) continue;
    bool match = true;
    auto tag = tags.begin();
    for (const auto& [key_id, value_id] : set) {
      if (dict_.string(key_id) != tag->first ||
          dict_.string(value_id) != tag->second) {
        match = false;
        break;
      }
      ++tag;
    }
    if (match) {
      victim = i;
      break;
    }
  }
  if (victim == store.series.size()) return 0;
  const std::size_t dropped = store.series[victim]->row_count();
  store.series.erase(store.series.begin() +
                     static_cast<std::ptrdiff_t>(victim));
  // Indices past the victim shifted down; rebuild both index structures.
  store.by_tagset.clear();
  store.sorted.clear();
  for (std::uint32_t i = 0; i < store.series.size(); ++i) {
    store.by_tagset.emplace(store.series[i]->tagset_id, i);
    store.sorted.push_back(i);
  }
  std::sort(store.sorted.begin(), store.sorted.end(),
            [this, &store](std::uint32_t a, std::uint32_t b) {
              return tagset_less(dict_, dict_.set(store.series[a]->tagset_id),
                                 dict_.set(store.series[b]->tagset_id));
            });
  rebuild_index_locked(store, dict_);
  bump_epoch_locked(it->first);
  live_points_ -= dropped;
  return dropped;
}

TsdbStats TimeSeriesDb::stats() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  TsdbStats st;
  st.measurements = series_.size();
  for (const auto& [name, store] : series_) {
    st.series += store.series.size();
    for (const auto& entry : store.series) {
      st.sealed_runs += entry->sealed.size();
      st.active_rows += entry->active.row_count();
    }
  }
  st.points = live_points_;
  st.dict_strings = dict_.string_count();
  st.dict_tagsets = dict_.set_count();
  st.dict_bytes = dict_.memory_bytes();
  st.column_bytes = stats_column_bytes_locked();
  st.run_seals = run_seals_;
  st.run_folds = run_folds_;
  const PackedTotals packed = stats_packed_locked();
  st.compressed_runs = packed.runs;
  st.bytes_raw = packed.raw;
  st.bytes_packed = packed.packed;
  st.pack_time_ns = pack_time_ns_;
  for (const auto& [name, store] : series_) {
    for (const auto& [pair, list] : store.postings) {
      st.index_postings += list.size();
    }
  }
  st.index_probes = index_probes_.load(std::memory_order_relaxed);
  st.index_scans = index_scans_.load(std::memory_order_relaxed);
  st.index_fallbacks = index_fallbacks_.load(std::memory_order_relaxed);
  return st;
}

RunConfig TimeSeriesDb::run_config() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return run_config_;
}

void TimeSeriesDb::set_run_config(const RunConfig& config) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  run_config_ = config;
  if (run_config_.seal_rows == 0) run_config_.seal_rows = 1;
  if (run_config_.max_sealed == 0) run_config_.max_sealed = 1;
  if (run_config_.fold_ratio <= 0.0) run_config_.fold_ratio = 0.5;
}

PackConfig TimeSeriesDb::pack_config() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return pack_config_;
}

void TimeSeriesDb::set_pack_config(const PackConfig& config) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  pack_config_ = config;
  if (pack_config_.min_rows == 0) pack_config_.min_rows = 1;
}

IndexConfig TimeSeriesDb::index_config() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return index_config_;
}

void TimeSeriesDb::set_index_config(const IndexConfig& config) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  index_config_ = config;
  if (index_config_.min_series == 0) index_config_.min_series = 1;
}

void TimeSeriesDb::set_scan_pool(util::TaskPool* pool) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  scan_pool_ = pool;
}

bool TimeSeriesDb::try_pack_locked(Run& run) {
  if (!pack_config_.enabled || run.is_packed()) return false;
  const auto start = std::chrono::steady_clock::now();
  const bool packed = pack_run(run, pack_config_);
  if (packed) {
    pack_time_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  return packed;
}

std::size_t TimeSeriesDb::stats_column_bytes_locked() const {
  std::size_t bytes = 0;
  const auto run_bytes = [](const Run& run) {
    if (run.is_packed()) return run.packed->byte_size();
    std::size_t n =
        run.times.size() * (sizeof(TimeNs) + sizeof(std::uint64_t));
    for (const FieldColumn& col : run.fields) {
      n += col.values.size() * sizeof(double) + col.present.size();
    }
    return n;
  };
  for (const auto& [name, store] : series_) {
    for (const auto& entry : store.series) {
      const Series& s = *entry;
      bytes += run_bytes(s.base) + run_bytes(s.active);
      for (const Run& run : s.sealed) bytes += run_bytes(run);
    }
  }
  return bytes;
}

TimeSeriesDb::PackedTotals TimeSeriesDb::stats_packed_locked() const {
  PackedTotals totals;
  const auto visit = [&totals](const Run& run) {
    if (!run.is_packed()) return;
    ++totals.runs;
    totals.raw += run.packed->raw_bytes;
    totals.packed += run.packed->byte_size();
  };
  for (const auto& [name, store] : series_) {
    for (const auto& entry : store.series) {
      const Series& s = *entry;
      visit(s.base);
      for (const Run& run : s.sealed) visit(run);
    }
  }
  return totals;
}

}  // namespace pmove::tsdb
