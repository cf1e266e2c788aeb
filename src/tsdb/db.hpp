// In-memory time-series database (InfluxDB 1.x substrate) — columnar engine
// with an LSM-style write path.
//
// Stores points per (measurement, interned tag set) in columnar form: each
// series is a small LSM tree of runs (tsdb/columns.hpp) — a sorted base, a
// bounded list of sealed sorted runs, and an arrival-order active run — so
// a batch write is a pure column append.  Ordering is restored lazily: the
// active run is sorted once when it is sealed at PMOVE_TSDB_RUN_ROWS rows,
// and an amortized compactor folds sealed runs into the base (triggered at
// seal time by run count / size ratio, or explicitly via compact()).  Tag
// strings live once in a per-DB dictionary (tsdb/dict.hpp), so tag
// filtering is integer comparison; time-range pruning is a binary search
// per sorted run; retention trims advance per-run head offsets with
// amortized compaction.
//
// Read paths:
//   * scan()    — the zero-copy primitive: hands the caller a SeriesView
//                 cursor per matching series under the shared lock.  Views
//                 present one logical (time, seq)-ordered row sequence and
//                 hide the run structure entirely — query, fleet and bench
//                 code never learn that runs exist.
//   * collect() — compatibility wrapper that materializes Points from the
//                 views for the fleet's exact gather and rebalance.
//
// Ordering: rows are merged by (time, arrival seq), the same total order
// the seed row store maintained, so scans reproduce the seed's point
// order — and therefore its floating-point aggregation order — bit for
// bit, regardless of how rows are distributed across runs.
//
// Concurrency: storage is guarded by a shared_mutex — any number of panel
// readers (scan/collect/point_count/...) proceed in parallel and only
// writers (write_batch, retention, compact, clear) take the lock
// exclusively.  Every write bumps the touched measurement's *write epoch*,
// a never-repeating global counter the query engine's result cache keys
// its invalidation on.
//
// The query front end lives in src/query (parse → plan → execute, result
// cache); this class stores runs and hands out views (scan) or filtered
// copies (collect).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tsdb/columns.hpp"
#include "tsdb/dict.hpp"
#include "tsdb/point.hpp"
#include "tsdb/sink.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"

namespace pmove::util {
class TaskPool;
}  // namespace pmove::util

namespace pmove::tsdb {

struct QueryResult {
  /// "time" followed by the selected field names (or "agg(field)" labels).
  std::vector<std::string> columns;
  /// One row per matching point (or a single row for aggregate queries);
  /// row[0] is the timestamp, NaN marks a missing field.
  std::vector<std::vector<double>> rows;

  /// Index of `name` in columns, or columns.size() when absent.  O(columns)
  /// per call — resolve once before a row loop, never per row.
  [[nodiscard]] std::size_t column_index(std::string_view name) const;
};

/// Retention policy: points older than `duration` (relative to the max time
/// in the DB or an explicit "now") are dropped by enforce_retention().
struct RetentionPolicy {
  TimeNs duration = 0;  ///< 0 = keep forever
};

/// Storage-engine introspection snapshot.  The daemon copies it into the
/// pmove_tsdb gauges each time it exports its internals.
struct TsdbStats {
  std::size_t measurements = 0;
  std::size_t series = 0;        ///< (measurement, tag set) pairs
  std::size_t points = 0;        ///< live rows (excludes trimmed-not-compacted)
  std::size_t dict_strings = 0;  ///< interned tag strings
  std::size_t dict_tagsets = 0;  ///< interned tag sets
  std::size_t dict_bytes = 0;    ///< dictionary payload bytes
  /// Resident column payload: timestamps, seqs, field values and presence
  /// maps, including trimmed rows awaiting compaction.  Excludes allocator
  /// slack and per-series fixed overhead.
  std::size_t column_bytes = 0;
  std::size_t sealed_runs = 0;   ///< sorted runs awaiting compaction
  std::size_t active_rows = 0;   ///< rows in arrival-order active runs
  std::uint64_t run_seals = 0;   ///< lifetime active-run seals
  std::uint64_t run_folds = 0;   ///< lifetime sealed→base compactions
  std::size_t compressed_runs = 0;  ///< runs currently holding a PackedRun
  /// What the compressed runs' columns would occupy raw vs. what their
  /// packed images occupy (the packed number is the column_bytes share).
  std::size_t bytes_raw = 0;
  std::size_t bytes_packed = 0;
  std::uint64_t pack_time_ns = 0;  ///< lifetime nanoseconds spent packing
  /// Inverted tag index: total posting-list entries, lifetime candidate
  /// probes via the index, filtered scans answered by posting-list
  /// intersection, and filtered scans that fell back to the linear probe
  /// (measurement below the index threshold).
  std::size_t index_postings = 0;
  std::uint64_t index_probes = 0;
  std::uint64_t index_scans = 0;
  std::uint64_t index_fallbacks = 0;
};

/// Tag-index tuning.  Filtered scans of a measurement with at least
/// `min_series` series are answered by intersecting the per-(key, value)
/// posting lists (smallest list first); smaller measurements keep the
/// linear probe, which wins below the threshold.  Set a huge value to
/// disable the index, 1 to force it on.
struct IndexConfig {
  std::size_t min_series = 64;

  /// Reads PMOVE_TSDB_INDEX_MIN_SERIES, clamping unusable values to the
  /// default.
  static IndexConfig from_env();
};

class TimeSeriesDb : public PointSink {
 public:
  TimeSeriesDb()
      : run_config_(RunConfig::from_env()),
        pack_config_(PackConfig::from_env()),
        index_config_(IndexConfig::from_env()) {}
  explicit TimeSeriesDb(RetentionPolicy retention)
      : retention_(retention),
        run_config_(RunConfig::from_env()),
        pack_config_(PackConfig::from_env()),
        index_config_(IndexConfig::from_env()) {}

  /// Bulk insert: one lock acquisition per batch, pure column appends per
  /// point (ordering is restored lazily at seal/compaction time).  The
  /// batch is validated up front and rejected as a unit if any point is
  /// invalid (no partial insert).  Bumps the write epoch of every touched
  /// measurement.  (Single points and line protocol go through the
  /// PointSink write()/write_line() helpers.)
  Status write_batch(std::vector<Point> points) override;

  /// Drops points older than the retention window; returns #dropped.
  std::size_t enforce_retention(TimeNs now);

  /// Folds every series' sealed + active runs into its sorted base run.
  /// Writers do this incrementally; an explicit call is useful before a
  /// read-heavy phase or in tests.  Returns the number of runs folded.
  std::size_t compact();

  [[nodiscard]] std::vector<std::string> measurements() const;
  [[nodiscard]] std::size_t point_count() const;
  [[nodiscard]] std::size_t point_count(std::string_view measurement) const;

  /// Total bytes written in line-protocol form (disk-usage accounting).
  [[nodiscard]] std::size_t bytes_written() const;

  /// Recorded-data support (the paper monitors "live and/or recorded"
  /// performance data): dump every point as line protocol, one per line,
  /// and load such a file back (appending to current contents).  The dump
  /// renders a consistent snapshot under the shared lock, then performs
  /// the file I/O outside it so a slow disk never stalls writers.
  Status dump_to_file(const std::string& path) const;
  Status load_from_file(const std::string& path);

  void clear();

  /// Removes one series (measurement + exact tag set); returns the number
  /// of dropped points.  The fleet tier uses this to migrate exactly the
  /// series whose ring placement moved.
  std::size_t drop_series(std::string_view measurement,
                          const std::map<std::string, std::string>& tags);

  [[nodiscard]] bool has_measurement(std::string_view name) const;

  /// Write epoch of a measurement: 0 while absent, otherwise a globally
  /// monotonic value that changes on every mutation (write_batch,
  /// retention trim, drop_series) and never repeats — so a cached query
  /// result tagged with the epoch observed *before* its scan is valid
  /// exactly while the value is unchanged.
  [[nodiscard]] std::uint64_t write_epoch(std::string_view measurement) const;

  // ----------------------------------------------------------- read paths

  /// Zero-copy scan: invoked exactly once with a SeriesView per matching
  /// series (tag filters satisfied, rows clipped to [time_min, time_max],
  /// series ordered by decoded tag set so iteration order is
  /// deterministic).  The DB's shared lock is held for the duration of the
  /// callback; the views alias live column storage and MUST NOT escape
  /// it.  Series with no row in range are omitted.  Returns false (with an
  /// empty-span callback) when the measurement does not exist.
  using ScanCallback = std::function<void(std::span<const SeriesView>)>;
  bool scan(std::string_view measurement, TimeNs time_min, TimeNs time_max,
            const std::map<std::string, std::string>& tag_filters,
            const ScanCallback& visit) const;

  /// Copies of the points of `measurement` in [time_min, time_max] whose
  /// tags match every entry of `tag_filters`, in (time, arrival) order.
  /// Compatibility wrapper over scan() that materializes Points — the read
  /// primitive of the fleet's exact gather and rebalance.
  [[nodiscard]] std::vector<Point> collect(
      std::string_view measurement, TimeNs time_min, TimeNs time_max,
      const std::map<std::string, std::string>& tag_filters) const;

  // -------------------------------------------------------- introspection

  /// Walks every series, run and posting list under the shared lock, so
  /// callers read it when they need the numbers, never once per write.
  [[nodiscard]] TsdbStats stats() const;

  /// LSM write-path tuning.  set_run_config applies to subsequent writes
  /// only (existing runs keep their shape until the compactor folds them).
  [[nodiscard]] RunConfig run_config() const;
  void set_run_config(const RunConfig& config);

  /// Compression tuning (the PMOVE_TSDB_PACK_* knobs).  set_pack_config
  /// applies to runs sealed or folded afterwards; already-packed runs keep
  /// their encoding until the compactor rewrites them.
  [[nodiscard]] PackConfig pack_config() const;
  void set_pack_config(const PackConfig& config);

  /// Tag-index tuning (the PMOVE_TSDB_INDEX_MIN_SERIES knob).  Takes
  /// effect on the next filtered scan — the posting lists themselves are
  /// always maintained.
  [[nodiscard]] IndexConfig index_config() const;
  void set_index_config(const IndexConfig& config);

  /// Worker pool for parallel SeriesView builds inside scan()/collect()
  /// (many matching series ⇒ one build task per series).  Defaults to the
  /// process-wide util::TaskPool::shared(); benches inject per-sweep pools
  /// here.  Pass nullptr to restore the default.  The pool is borrowed and
  /// must outlive every scan.
  void set_scan_pool(util::TaskPool* pool);

 private:
  struct MeasurementStore {
    std::vector<std::unique_ptr<Series>> series;  ///< creation order
    std::map<TagDictionary::TagSetId, std::uint32_t> by_tagset;
    /// Series indices ordered by decoded tag set (lexicographic key/value
    /// strings) — the deterministic scan order.
    std::vector<std::uint32_t> sorted;
    /// Inverted tag index: (key id, value id) → creation-order series
    /// indices (ascending, so posting lists intersect with a linear
    /// two-pointer walk).  Maintained at series creation, rebuilt by
    /// drop_series; retention only advances run heads, so trims never
    /// touch it — the index stays epoch-consistent by living under the
    /// same exclusive lock as every other mutation.
    std::map<std::pair<TagDictionary::StringId, TagDictionary::StringId>,
             std::vector<std::uint32_t>>
        postings;
    /// rank[series idx] = position in `sorted`; lets index hits be
    /// emitted in the exact tag-sorted order the linear probe produces.
    std::vector<std::uint32_t> rank;
  };

  /// Bumps `measurement`'s epoch; caller holds the exclusive lock.
  void bump_epoch_locked(const std::string& measurement);

  /// Appends one point's row to the series' active run, then seals/folds
  /// if thresholds are crossed; caller holds the exclusive lock.
  void append_row_locked(Series& series, const Point& point);

  /// Sorts the active run if needed and moves it onto the sealed list.
  void seal_active_locked(Series& series);

  /// Folds base + sealed (and, when `include_active`, the active run) into
  /// one sorted base run.
  void fold_series_locked(Series& series, bool include_active);

  /// Finds (or creates) the series of `tags` under `store`.
  Series* resolve_series_locked(MeasurementStore& store,
                                const std::string& measurement,
                                const std::map<std::string, std::string>& tags);

  /// Rebuilds `store.postings` and `store.rank` from scratch (after
  /// drop_series shifts creation indices).
  static void rebuild_index_locked(MeasurementStore& store,
                                   const TagDictionary& dict);

  /// Matching views of `measurement` under the (already held) shared
  /// lock; returns false when the measurement is absent.
  bool gather_views_locked(std::string_view measurement, TimeNs time_min,
                           TimeNs time_max,
                           const std::map<std::string, std::string>& filters,
                           std::vector<SeriesView>& out) const;

  /// Compresses a sealed or freshly folded run if the pack config allows
  /// it, charging the elapsed time to pack_time_ns_.
  bool try_pack_locked(Run& run);

  [[nodiscard]] std::size_t stats_column_bytes_locked() const;

  struct PackedTotals {
    std::size_t runs = 0;
    std::size_t raw = 0;
    std::size_t packed = 0;
  };
  [[nodiscard]] PackedTotals stats_packed_locked() const;

  mutable std::shared_mutex mutex_;
  std::map<std::string, MeasurementStore, std::less<>> series_;
  std::map<std::string, std::uint64_t, std::less<>> epochs_;
  TagDictionary dict_;
  std::uint64_t epoch_counter_ = 0;  ///< never reset, so epochs never repeat
  std::uint64_t seq_counter_ = 0;    ///< per-DB arrival counter (row order)
  std::uint64_t batch_counter_ = 0;  ///< write_batch touch-dedup generation
  std::size_t live_points_ = 0;
  RetentionPolicy retention_;
  RunConfig run_config_;
  PackConfig pack_config_;
  IndexConfig index_config_;
  util::TaskPool* scan_pool_ = nullptr;  ///< null = TaskPool::shared()
  /// Index read-path counters; bumped under the shared lock, hence atomic.
  mutable std::atomic<std::uint64_t> index_probes_{0};
  mutable std::atomic<std::uint64_t> index_scans_{0};
  mutable std::atomic<std::uint64_t> index_fallbacks_{0};
  std::size_t bytes_written_ = 0;
  std::uint64_t run_seals_ = 0;
  std::uint64_t run_folds_ = 0;
  std::uint64_t pack_time_ns_ = 0;
};

}  // namespace pmove::tsdb
