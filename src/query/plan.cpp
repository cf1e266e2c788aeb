#include "query/plan.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>

#include "tsdb/simd_kernels.hpp"
#include "util/task_pool.hpp"

namespace pmove::query {

Plan make_plan(Query query) {
  Plan plan;
  plan.cache_key = query.to_string();
  if (query.group_interval > 0) {
    plan.kind = PlanKind::kGroupedAggregate;
  } else if (query.aggregated()) {
    plan.kind = PlanKind::kAggregate;
  } else {
    plan.kind = PlanKind::kRawScan;
  }
  plan.query = std::move(query);
  return plan;
}

double aggregate(Aggregate agg, std::span<const double> values,
                 std::span<const TimeNs> times) {
  if (values.empty()) return std::nan("");
  if (agg == Aggregate::kCount) return static_cast<double>(values.size());
  if (agg == Aggregate::kMin) {
    return *std::min_element(values.begin(), values.end());
  }
  if (agg == Aggregate::kMax) {
    return *std::max_element(values.begin(), values.end());
  }
  if (agg == Aggregate::kFirst) {
    auto idx = std::min_element(times.begin(), times.end()) - times.begin();
    return values[static_cast<std::size_t>(idx)];
  }
  if (agg == Aggregate::kLast) {
    auto idx = std::max_element(times.begin(), times.end()) - times.begin();
    return values[static_cast<std::size_t>(idx)];
  }
  double sum = 0.0;
  for (double v : values) sum += v;
  if (agg == Aggregate::kSum) return sum;
  const double mean = sum / static_cast<double>(values.size());
  if (agg == Aggregate::kMean) return mean;
  if (agg == Aggregate::kStddev) {
    if (values.size() < 2) return 0.0;
    double acc = 0.0;
    for (double v : values) acc += (v - mean) * (v - mean);
    return std::sqrt(acc / static_cast<double>(values.size() - 1));
  }
  return std::nan("");
}

Expected<tsdb::QueryResult> execute(const Plan& plan,
                                    const std::vector<tsdb::Point>& matches) {
  const Query& q = plan.query;
  // Resolve SELECT * into the union of field names, sorted.
  std::vector<Selector> selectors = q.selectors;
  if (q.select_all) {
    std::vector<std::string> fields;
    for (const tsdb::Point& p : matches) {
      for (const auto& [k, v] : p.fields) {
        if (std::find(fields.begin(), fields.end(), k) == fields.end()) {
          fields.push_back(k);
        }
      }
    }
    std::sort(fields.begin(), fields.end());
    for (auto& f : fields) {
      selectors.push_back({std::move(f), Aggregate::kNone});
    }
  }

  tsdb::QueryResult result;
  result.columns.emplace_back("time");
  for (const auto& sel : selectors) result.columns.push_back(sel.label());

  const bool any_aggregate = std::any_of(
      selectors.begin(), selectors.end(),
      [](const Selector& s) { return s.aggregate != Aggregate::kNone; });
  if (q.group_interval > 0) {
    if (!any_aggregate) {
      return Status::parse_error(
          "GROUP BY time() requires aggregate selectors");
    }
    for (const auto& sel : selectors) {
      if (sel.aggregate == Aggregate::kNone) {
        return Status::parse_error(
            "cannot mix raw fields with aggregates in one query");
      }
    }
    // Bucket matches by floor(time / interval); one row per non-empty
    // bucket, stamped with the bucket start.
    std::map<TimeNs, std::vector<const tsdb::Point*>> buckets;
    for (const tsdb::Point& p : matches) {
      TimeNs bucket = p.time / q.group_interval * q.group_interval;
      if (p.time < 0 && p.time % q.group_interval != 0) {
        bucket -= q.group_interval;  // floor for negative timestamps
      }
      buckets[bucket].push_back(&p);
    }
    for (const auto& [bucket, points] : buckets) {
      std::vector<double> row;
      row.push_back(static_cast<double>(bucket));
      for (const auto& sel : selectors) {
        std::vector<double> values;
        std::vector<TimeNs> times;
        for (const tsdb::Point* p : points) {
          auto field = p->fields.find(sel.field);
          if (field != p->fields.end()) {
            values.push_back(field->second);
            times.push_back(p->time);
          }
        }
        row.push_back(aggregate(sel.aggregate, values, times));
      }
      result.rows.push_back(std::move(row));
    }
    return result;
  }
  if (any_aggregate) {
    std::vector<double> row;
    row.push_back(matches.empty()
                      ? 0.0
                      : static_cast<double>(matches.back().time));
    for (const auto& sel : selectors) {
      if (sel.aggregate == Aggregate::kNone) {
        return Status::parse_error(
            "cannot mix raw fields with aggregates in one query");
      }
      std::vector<double> values;
      std::vector<TimeNs> times;
      for (const tsdb::Point& p : matches) {
        auto field = p.fields.find(sel.field);
        if (field != p.fields.end()) {
          values.push_back(field->second);
          times.push_back(p.time);
        }
      }
      row.push_back(aggregate(sel.aggregate, values, times));
    }
    result.rows.push_back(std::move(row));
    return result;
  }

  result.rows.reserve(matches.size());
  for (const tsdb::Point& p : matches) {
    std::vector<double> row;
    row.reserve(selectors.size() + 1);
    row.push_back(static_cast<double>(p.time));
    for (const auto& sel : selectors) {
      auto field = p.fields.find(sel.field);
      row.push_back(field == p.fields.end() ? std::nan("") : field->second);
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

namespace {

// Bucket start for GROUP BY time(): floor(time / interval) * interval,
// corrected toward -inf for negative timestamps (same arithmetic as the
// point-based execute above).
TimeNs bucket_start(TimeNs time, TimeNs interval) {
  TimeNs bucket = time / interval * interval;
  if (time < 0 && time % interval != 0) bucket -= interval;
  return bucket;
}

// Resolves SELECT * against the views: the union of fields present in at
// least one matched row, sorted — the same set (and final order) the
// point-based path derives from the materialized matches.
std::vector<Selector> resolve_selectors(
    const Query& q, std::span<const tsdb::SeriesView> views) {
  std::vector<Selector> selectors = q.selectors;
  if (q.select_all) {
    std::vector<std::string> fields;
    for (const tsdb::SeriesView& view : views) {
      for (std::size_t f = 0; f < view.field_count(); ++f) {
        if (!view.any_present(f)) continue;
        std::string name(view.field_name(f));
        if (std::find(fields.begin(), fields.end(), name) == fields.end()) {
          fields.push_back(std::move(name));
        }
      }
    }
    std::sort(fields.begin(), fields.end());
    for (auto& f : fields) {
      selectors.push_back({std::move(f), Aggregate::kNone});
    }
  }
  return selectors;
}

// Value of `agg` from a completed stats fold.  Bit-for-bit the result
// aggregate() computes over the same cells in the same order (the fold's
// parity contract, see tsdb/simd_kernels.hpp).  kStddev is excluded — it
// needs the second deviation pass (stddev_value).
double fold_value(Aggregate agg, const tsdb::simd::FieldFold& f) {
  if (f.count == 0) return std::nan("");
  switch (agg) {
    case Aggregate::kCount:
      return static_cast<double>(f.count);
    case Aggregate::kMin:
      return f.min;
    case Aggregate::kMax:
      return f.max;
    case Aggregate::kFirst:
      return f.first;
    case Aggregate::kLast:
      return f.last;
    case Aggregate::kSum:
      return f.sum;
    case Aggregate::kMean:
      return f.sum / static_cast<double>(f.count);
    default:
      return std::nan("");
  }
}

double stddev_value(const tsdb::simd::FieldFold& f, double deviation) {
  if (f.count == 0) return std::nan("");
  if (f.count < 2) return 0.0;
  return std::sqrt(deviation / static_cast<double>(f.count - 1));
}

// Evaluates every selector over logical rows [first, last) of a single
// contiguous view, appending one aggregate value per selector to `row`.
// Selectors sharing a field share one streaming stats pass (and one
// deviation pass if any of them wants stddev) — the kernels stream the
// column in blocks, so packed runs never materialize full columns.
void fold_selectors_view(const tsdb::SeriesView& view,
                         const std::vector<std::size_t>& field_of,
                         const std::vector<Selector>& selectors,
                         std::size_t first, std::size_t last,
                         std::vector<double>& row) {
  const std::size_t n = selectors.size();
  std::vector<tsdb::simd::FieldFold> folds(n);
  std::vector<std::size_t> owner(n);
  for (std::size_t s = 0; s < n; ++s) {
    owner[s] = s;
    for (std::size_t p = 0; p < s; ++p) {
      if (field_of[p] == field_of[s]) {
        owner[s] = p;
        break;
      }
    }
    if (owner[s] == s && field_of[s] < view.field_count()) {
      folds[s] = tsdb::simd::fold_field(view, field_of[s], first, last);
    }
  }
  std::vector<double> dev(n, 0.0);
  std::vector<char> dev_done(n, 0);
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t o = owner[s];
    const tsdb::simd::FieldFold& f = folds[o];
    if (selectors[s].aggregate != Aggregate::kStddev) {
      row.push_back(fold_value(selectors[s].aggregate, f));
      continue;
    }
    if (dev_done[o] == 0) {
      dev_done[o] = 1;
      if (f.count >= 2) {
        const double mean = f.sum / static_cast<double>(f.count);
        dev[o] =
            tsdb::simd::deviation_sum(view, field_of[s], first, last, mean);
      }
    }
    row.push_back(stddev_value(f, dev[o]));
  }
}

// The merged multi-view counterpart: evaluates every selector over refs
// [first, last) with ONE walk of the merged rows folding all distinct
// fields at once (the old path re-walked the refs once per selector,
// gathering into scratch vectors), plus one combined second walk when any
// selector wants stddev.
void fold_selectors_refs(std::span<const tsdb::SeriesView> views,
                         const std::vector<std::vector<std::size_t>>& field_of,
                         const std::vector<Selector>& selectors,
                         const std::vector<tsdb::ViewRow>& refs,
                         std::size_t first, std::size_t last,
                         std::vector<double>& row) {
  const std::size_t n = selectors.size();
  std::vector<tsdb::simd::FieldFold> folds(n);
  std::vector<std::size_t> owner(n);
  std::vector<std::size_t> owners;
  owners.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    owner[s] = s;
    for (std::size_t p = 0; p < s; ++p) {
      if (selectors[p].field == selectors[s].field) {
        owner[s] = p;
        break;
      }
    }
    if (owner[s] == s) owners.push_back(s);
  }
  for (std::size_t i = first; i < last; ++i) {
    const tsdb::ViewRow& ref = refs[i];
    const tsdb::SeriesView& view = views[ref.view];
    for (const std::size_t s : owners) {
      const std::size_t field = field_of[ref.view][s];
      if (field >= view.field_count()) continue;
      if (!view.has_value(field, ref.loc)) continue;
      folds[s].add_one(view.value_at(field, ref.loc), ref.time);
    }
  }
  std::vector<char> want_dev(n, 0);
  bool any_dev = false;
  for (std::size_t s = 0; s < n; ++s) {
    if (selectors[s].aggregate == Aggregate::kStddev &&
        folds[owner[s]].count >= 2) {
      want_dev[owner[s]] = 1;
      any_dev = true;
    }
  }
  std::vector<tsdb::simd::DeviationFold> devs(n);
  if (any_dev) {
    for (std::size_t s = 0; s < n; ++s) {
      if (want_dev[s] != 0) {
        devs[s].mean = folds[s].sum / static_cast<double>(folds[s].count);
      }
    }
    for (std::size_t i = first; i < last; ++i) {
      const tsdb::ViewRow& ref = refs[i];
      const tsdb::SeriesView& view = views[ref.view];
      for (const std::size_t s : owners) {
        if (want_dev[s] == 0) continue;
        const std::size_t field = field_of[ref.view][s];
        if (field >= view.field_count()) continue;
        if (!view.has_value(field, ref.loc)) continue;
        devs[s].add_one(view.value_at(field, ref.loc));
      }
    }
  }
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t o = owner[s];
    if (selectors[s].aggregate == Aggregate::kStddev) {
      row.push_back(stddev_value(folds[o], devs[o].acc));
    } else {
      row.push_back(fold_value(selectors[s].aggregate, folds[o]));
    }
  }
}

// ---------------------------------------------------------------------------
// Morsel-driven parallel execution.
//
// Every parallel decomposition below is determinism-exact: the result is
// bit-for-bit identical at any thread count and any morsel boundary.
// Three shapes make that possible:
//   * group buckets, raw rows, and distinct aggregate fields are computed
//     independently by the serial path already — partitioning them across
//     workers changes nothing;
//   * count/min/max/first/last decompose into order-exact partials
//     (ExactPartial) whose merge reproduces the serial fold's semantics
//     exactly, including NaN poisoning and first-of-equals ties — per
//     morsel of one series, and per (series, GROUP BY bucket) of many;
//   * sum/mean/stddev are order-sensitive floating-point folds and are
//     NEVER chunk-merged — they only parallelize across distinct fields,
//     each field's fold order unchanged.
// Workers never call SeriesView::seq_at (its lazy decode is the one
// non-const view access); seq tie-breaks resolve on the calling thread.

util::TaskPool& exec_pool(const ExecOptions& opts) {
  return opts.pool != nullptr ? *opts.pool : util::TaskPool::shared();
}

// True when every selector's aggregate decomposes into order-exact
// partials (everything but the sequential sum-based folds).
bool partials_exact(const std::vector<Selector>& selectors) {
  if (selectors.empty()) return false;
  for (const Selector& s : selectors) {
    switch (s.aggregate) {
      case Aggregate::kCount:
      case Aggregate::kMin:
      case Aggregate::kMax:
      case Aggregate::kFirst:
      case Aggregate::kLast:
        break;
      default:
        return false;
    }
  }
  return true;
}

// selector → position in `owners` of the first selector naming the same
// field (the same field-name dedup the fold paths use).
void dedup_owners(const std::vector<Selector>& selectors,
                  std::vector<std::size_t>& owner_pos,
                  std::vector<std::size_t>& owners) {
  for (std::size_t s = 0; s < selectors.size(); ++s) {
    owner_pos[s] = owners.size();
    for (std::size_t p = 0; p < s; ++p) {
      if (selectors[p].field == selectors[s].field) {
        owner_pos[s] = owner_pos[p];
        break;
      }
    }
    if (owner_pos[s] == owners.size()) owners.push_back(s);
  }
}

// Per-morsel partial for the order-exact merge.  Unlike simd::FieldFold it
// keeps enough structure to combine chunks without changing a result bit:
// the present-cell count, the non-NaN count, the chunk's first and last
// cells with their times, and NaN-skipping real min/max.
// The serial fold's semantics are reproduced at read-out (exact_value):
//   * min/max: FieldFold seeds from the first present value and `v < min`
//     never replaces a NaN — so NaN poisons min/max iff the *globally
//     first* present value is NaN; otherwise they are the non-NaN extremes
//     with first-of-equals ties (strict <).
//   * first = the minimal-(time, seq) present cell; last = the first
//     present cell carrying the maximal time (add_one updates last only on
//     strictly greater time).
struct ExactPartial {
  std::size_t count = 0;  ///< present cells
  std::size_t nn = 0;     ///< non-NaN present cells
  double first = 0.0;
  double last = 0.0;
  double rmin = 0.0;  ///< min over non-NaN cells (first-of-equals)
  double rmax = 0.0;
  TimeNs first_time = 0;
  TimeNs last_time = 0;

  void add_cell(double v, TimeNs t) {
    if (count == 0) {
      first = last = v;
      first_time = last_time = t;
    } else if (t > last_time) {
      last = v;
      last_time = t;
    }
    ++count;
    if (v == v) {  // non-NaN
      if (nn == 0) {
        rmin = rmax = v;
      } else {
        rmin = v < rmin ? v : rmin;
        rmax = rmax < v ? v : rmax;
      }
      ++nn;
    }
  }

  /// Merges `b`, all of whose rows follow this partial's rows in the
  /// series' (time, seq) order — morsels of one series.  No seq keys
  /// needed: times are non-decreasing across the boundary, and the strict
  /// comparisons keep first-of-equals with the earlier morsel.
  void append(const ExactPartial& b) {
    if (b.count == 0) return;
    if (count == 0) {
      *this = b;
      return;
    }
    if (b.last_time > last_time) {
      last = b.last;
      last_time = b.last_time;
    }
    count += b.count;
    if (b.nn != 0) {
      if (nn == 0) {
        rmin = b.rmin;
        rmax = b.rmax;
      } else {
        rmin = b.rmin < rmin ? b.rmin : rmin;
        rmax = rmax < b.rmax ? b.rmax : rmax;
      }
      nn += b.nn;
    }
  }
};

double exact_value(Aggregate agg, const ExactPartial& p) {
  if (p.count == 0) return std::nan("");
  switch (agg) {
    case Aggregate::kCount:
      return static_cast<double>(p.count);
    case Aggregate::kFirst:
      return p.first;
    case Aggregate::kLast:
      return p.last;
    case Aggregate::kMin:
      return std::isnan(p.first) ? p.first : p.rmin;
    case Aggregate::kMax:
      return std::isnan(p.first) ? p.first : p.rmax;
    default:
      return std::nan("");
  }
}

// Folds logical rows [a, b) of a contiguous view into an ExactPartial via
// the same block streaming the fold kernels use.
ExactPartial fold_range_exact(const tsdb::SeriesView& view, std::size_t field,
                              std::size_t a, std::size_t b) {
  ExactPartial p;
  if (field >= view.field_count()) return p;
  view.for_each_value_block(
      field, a, b, [&](const double* v, const TimeNs* t, std::size_t n) {
        for (std::size_t j = 0; j < n; ++j) p.add_cell(v[j], t[j]);
      });
  return p;
}

// The cells of a series partial that cross-series ties are broken on: the
// first and last present cells, and the cells that set rmin and rmax.
enum Cell : std::size_t { kFirstCell, kLastCell, kMinCell, kMaxCell };

// One series' partial over one bucket's rows, plus what a cross-series tie
// needs to find a Cell's (time, seq) merge key later, on the calling
// thread — so the packed seq column decodes only when keys actually tie.
// Contiguous views keep the bucket's logical rows [a, b) and find a cell
// on demand; row-walked views record each cell's Loc as they fold.
struct SeriesPartial {
  ExactPartial p;
  const tsdb::SeriesView* view = nullptr;
  std::size_t field = 0;
  std::size_t a = 0;
  std::size_t b = 0;
  std::array<tsdb::SeriesView::Loc, 4> locs{};

  /// Row-walk form of ExactPartial::add_cell, keeping each Cell's Loc by
  /// the rules add_cell keeps its value.
  void add_walked(tsdb::SeriesView::Loc loc, double v, TimeNs t) {
    if (p.count == 0) locs[kFirstCell] = loc;
    if (p.count == 0 || t > p.last_time) locs[kLastCell] = loc;
    if (v == v) {
      if (p.nn == 0 || v < p.rmin) locs[kMinCell] = loc;
      if (p.nn == 0 || p.rmax < v) locs[kMaxCell] = loc;
    }
    p.add_cell(v, t);
  }
};

// Loc of a partial's `cell`; the partial must hold it (count > 0, and
// nn > 0 for min/max).  A contiguous view's min or max cell is the first
// present cell equal to the extreme, since strict comparisons keep the
// first of equals.
tsdb::SeriesView::Loc cell_loc(const SeriesPartial& sp, Cell cell) {
  const tsdb::SeriesView& view = *sp.view;
  if (!view.contiguous()) return sp.locs[cell];
  std::size_t r = sp.a;
  if (cell == kLastCell) {
    // Jump to the maximal present time, then walk the (short) tail of
    // absent cells inside the tie run.
    const auto times = view.times();
    r = static_cast<std::size_t>(
        std::lower_bound(times.begin() + static_cast<std::ptrdiff_t>(sp.a),
                         times.begin() + static_cast<std::ptrdiff_t>(sp.b),
                         sp.p.last_time) -
        times.begin());
  }
  const double extreme = cell == kMinCell ? sp.p.rmin : sp.p.rmax;
  for (;; ++r) {
    const tsdb::SeriesView::Loc loc = view.loc_at(r);
    if (!view.has_value(sp.field, loc)) continue;
    if (cell == kFirstCell || cell == kLastCell ||
        view.value_at(sp.field, loc) == extreme) {
      return loc;
    }
  }
}

// Among the partials `tied` accepts — which hold `cell` at one time
// (first/last) or at one extreme value (min/max) — the one whose cell comes
// first in the merged (time, seq) row order.  Reads each candidate's seq
// once, through seq_at (possibly decoding a packed seq column).
template <class Tied>
const SeriesPartial* earliest_cell(
    std::span<const SeriesPartial* const> parts, Cell cell, Tied tied) {
  const SeriesPartial* best = nullptr;
  TimeNs best_time = 0;
  std::uint64_t best_seq = 0;
  for (const SeriesPartial* sp : parts) {
    if (sp->p.count == 0 || !tied(*sp)) continue;
    const tsdb::SeriesView::Loc loc = cell_loc(*sp, cell);
    const TimeNs t = sp->view->time_at(loc);
    if (best != nullptr && t > best_time) continue;
    const std::uint64_t seq = sp->view->seq_at(loc);
    if (best == nullptr || t < best_time || seq < best_seq) {
      best = sp;
      best_time = t;
      best_seq = seq;
    }
  }
  return best;
}

// Merges one bucket's per-series partials in the merged (time, seq) row
// order's semantics.  count and the extremes' values are order-free.
// first/last are keyed by (time, seq) across series, and so is a min or
// max that several series reach with zeros of both signs — the only equal
// values whose bits differ — since the serial fold keeps the earliest of
// equals.  Seqs are read only for the partials that tie.
ExactPartial merge_series_partials(
    std::span<const SeriesPartial* const> parts) {
  const SeriesPartial* first = nullptr;
  const SeriesPartial* last = nullptr;
  const SeriesPartial* lo = nullptr;
  const SeriesPartial* hi = nullptr;
  std::size_t first_ties = 0;
  std::size_t last_ties = 0;
  bool lo_mixed = false;  // lo's value is also reached by the other zero
  bool hi_mixed = false;
  ExactPartial out;
  for (const SeriesPartial* sp : parts) {
    const ExactPartial& p = sp->p;
    if (p.count == 0) continue;
    out.count += p.count;
    if (first == nullptr || p.first_time < first->p.first_time) {
      first = sp;
      first_ties = 1;
    } else if (p.first_time == first->p.first_time) {
      ++first_ties;
    }
    if (last == nullptr || p.last_time > last->p.last_time) {
      last = sp;
      last_ties = 1;
    } else if (p.last_time == last->p.last_time) {
      ++last_ties;
    }
    if (p.nn == 0) continue;
    out.nn += p.nn;
    if (lo == nullptr || p.rmin < lo->p.rmin) {
      lo = sp;
      lo_mixed = false;
    } else if (p.rmin == lo->p.rmin &&
               std::signbit(p.rmin) != std::signbit(lo->p.rmin)) {
      lo_mixed = true;
    }
    if (hi == nullptr || hi->p.rmax < p.rmax) {
      hi = sp;
      hi_mixed = false;
    } else if (p.rmax == hi->p.rmax &&
               std::signbit(p.rmax) != std::signbit(hi->p.rmax)) {
      hi_mixed = true;
    }
  }
  if (first == nullptr) return out;
  if (first_ties > 1) {
    const TimeNs t = first->p.first_time;
    first = earliest_cell(parts, kFirstCell, [t](const SeriesPartial& sp) {
      return sp.p.first_time == t;
    });
  }
  if (last_ties > 1) {
    // The serial fold's last is the FIRST cell at the maximal time
    // (strictly-greater update).
    const TimeNs t = last->p.last_time;
    last = earliest_cell(parts, kLastCell, [t](const SeriesPartial& sp) {
      return sp.p.last_time == t;
    });
  }
  if (lo_mixed) {
    lo = earliest_cell(parts, kMinCell, [](const SeriesPartial& sp) {
      return sp.p.nn != 0 && sp.p.rmin == 0.0;
    });
  }
  if (hi_mixed) {
    hi = earliest_cell(parts, kMaxCell, [](const SeriesPartial& sp) {
      return sp.p.nn != 0 && sp.p.rmax == 0.0;
    });
  }
  out.first = first->p.first;
  out.first_time = first->p.first_time;
  out.last = last->p.last;
  out.last_time = last->p.last_time;
  if (lo != nullptr) {
    out.rmin = lo->p.rmin;
    out.rmax = hi->p.rmax;
  }
  return out;
}

// Ungrouped count/min/max/first/last over one contiguous view: rows split
// into morsels, one order-exact partial per (morsel, field), merged
// positionally.  Chosen whenever the shape qualifies (not only when the
// pool has workers) — with one thread the morsels just run inline, so
// PMOVE_QUERY_THREADS=1 and =N execute identical arithmetic.
void exec_exact_single(const tsdb::SeriesView& view,
                       const std::vector<std::size_t>& field_of,
                       const std::vector<Selector>& selectors,
                       const ExecOptions& opts, util::TaskPool& pool,
                       tsdb::QueryResult& result) {
  const std::size_t rows = view.rows();
  std::vector<std::size_t> owner_pos(selectors.size());
  std::vector<std::size_t> owners;
  dedup_owners(selectors, owner_pos, owners);

  const std::size_t morsel = std::max<std::size_t>(1, opts.morsel_rows);
  std::size_t chunks = rows / morsel + (rows % morsel != 0 ? 1 : 0);
  chunks = std::max<std::size_t>(1, std::min(chunks, pool.size() * 4));
  if (rows < opts.parallel_min_rows) chunks = 1;
  std::vector<std::vector<ExactPartial>> parts(
      chunks, std::vector<ExactPartial>(owners.size()));
  pool.parallel_for(chunks, [&](std::size_t c) {
    const std::size_t a = rows * c / chunks;
    const std::size_t b = rows * (c + 1) / chunks;
    for (std::size_t o = 0; o < owners.size(); ++o) {
      parts[c][o] = fold_range_exact(view, field_of[owners[o]], a, b);
    }
  });
  std::vector<ExactPartial> merged(owners.size());
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t o = 0; o < owners.size(); ++o) {
      merged[o].append(parts[c][o]);
    }
  }
  std::vector<double> row;
  row.reserve(selectors.size() + 1);
  row.push_back(rows == 0 ? 0.0 : static_cast<double>(view.times()[rows - 1]));
  for (std::size_t s = 0; s < selectors.size(); ++s) {
    row.push_back(exact_value(selectors[s].aggregate, merged[owner_pos[s]]));
  }
  result.rows.push_back(std::move(row));
}

// One bucket of one view: its start (0 when ungrouped) and the time of its
// last row, which stamps an ungrouped answer.
struct BucketSlot {
  TimeNs key = 0;
  TimeNs last_time = 0;
};

// Most buckets `view` can fill: one when ungrouped, else every bucket from
// its first row's to its last row's, and never more than its rows.
std::size_t bucket_bound(const tsdb::SeriesView& view, TimeNs interval) {
  if (view.rows() == 0) return 0;
  if (interval <= 0) return 1;
  const TimeNs first = tsdb::SeriesView::RowCursor(view).time();
  const TimeNs last = view.last_row_time();
  // Unsigned: two int64 bucket starts can lie more than INT64_MAX apart.
  const std::uint64_t steps =
      (static_cast<std::uint64_t>(bucket_start(last, interval)) -
       static_cast<std::uint64_t>(bucket_start(first, interval))) /
      static_cast<std::uint64_t>(interval);
  return static_cast<std::size_t>(
             std::min<std::uint64_t>(view.rows() - 1, steps)) +
         1;
}

// Folds one view into per-bucket partials, buckets ascending: each used
// bucket fills one slot and `fields.size()` partials, one per field.
// Returns the buckets used (at most bucket_bound).  Contiguous views find
// each bucket's rows by partition_point and stream them through the block
// kernels; views with live runs walk their rows once for every field.
std::size_t fold_view_buckets(const tsdb::SeriesView& view,
                              std::span<const std::size_t> fields,
                              TimeNs interval, BucketSlot* slots,
                              SeriesPartial* parts) {
  const std::size_t nf = fields.size();
  const auto bucket_of = [interval](TimeNs t) {
    return interval > 0 ? bucket_start(t, interval) : TimeNs{0};
  };
  std::size_t used = 0;
  if (view.contiguous()) {
    const auto times = view.times();
    for (std::size_t i = 0; i < times.size(); ++used) {
      const TimeNs key = bucket_of(times[i]);
      const auto j = static_cast<std::size_t>(
          std::partition_point(
              times.begin() + static_cast<std::ptrdiff_t>(i), times.end(),
              [&](TimeNs t) { return bucket_of(t) == key; }) -
          times.begin());
      slots[used] = {key, times[j - 1]};
      for (std::size_t f = 0; f < nf; ++f) {
        SeriesPartial& sp = parts[used * nf + f];
        sp.view = &view;
        sp.field = fields[f];
        sp.a = i;
        sp.b = j;
        sp.p = fold_range_exact(view, fields[f], i, j);
      }
      i = j;
    }
    return used;
  }
  view.for_each_row([&](tsdb::SeriesView::Loc loc, TimeNs t) {
    const TimeNs key = bucket_of(t);
    if (used == 0 || key != slots[used - 1].key) {
      slots[used].key = key;
      for (std::size_t f = 0; f < nf; ++f) {
        parts[used * nf + f].view = &view;
        parts[used * nf + f].field = fields[f];
      }
      ++used;
    }
    slots[used - 1].last_time = t;
    SeriesPartial* bucket = parts + (used - 1) * nf;
    for (std::size_t f = 0; f < nf; ++f) {
      const std::size_t field = fields[f];
      if (field >= view.field_count() || !view.has_value(field, loc)) continue;
      bucket[f].add_walked(loc, view.value_at(field, loc), t);
    }
  });
  return used;
}

// count/min/max/first/last over several views (or one with live runs),
// per GROUP BY time() bucket — ungrouped is the one-bucket case, stamped
// like the serial fold with the last matched time.  One task per view
// folds its rows into per-bucket partials in series order, skipping the
// merged row list entirely; then each bucket's partials merge under the
// (time, seq) keys on this thread, where a view's lazy seq column may
// decode.  Rows are the serial fold's: one per bucket holding any matched
// row, ascending, stamped with the bucket start.
void exec_exact_buckets(std::span<const tsdb::SeriesView> views,
                        const std::vector<std::vector<std::size_t>>& field_of,
                        const std::vector<Selector>& selectors,
                        TimeNs interval, util::TaskPool& pool,
                        tsdb::QueryResult& result) {
  std::vector<std::size_t> owner_pos(selectors.size());
  std::vector<std::size_t> owners;
  dedup_owners(selectors, owner_pos, owners);
  const std::size_t nv = views.size();
  const std::size_t no = owners.size();
  std::vector<std::size_t> fields(nv * no);
  std::vector<std::size_t> offset(nv + 1, 0);
  for (std::size_t v = 0; v < nv; ++v) {
    for (std::size_t o = 0; o < no; ++o) {
      fields[v * no + o] = field_of[v][owners[o]];
    }
    offset[v + 1] = offset[v] + bucket_bound(views[v], interval);
  }
  std::vector<BucketSlot> slots(offset[nv]);
  std::vector<SeriesPartial> parts(offset[nv] * no);
  std::vector<std::size_t> used(nv);
  pool.parallel_for(nv, [&](std::size_t v) {
    used[v] = fold_view_buckets(
        views[v], std::span<const std::size_t>(fields.data() + v * no, no),
        interval, slots.data() + offset[v], parts.data() + offset[v] * no);
  });

  // Every used slot in (bucket, view) order; one bucket is already in it.
  std::vector<std::size_t> order;
  order.reserve(offset[nv]);
  for (std::size_t v = 0; v < nv; ++v) {
    for (std::size_t k = 0; k < used[v]; ++k) order.push_back(offset[v] + k);
  }
  if (interval > 0) {
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return slots[x].key != slots[y].key ? slots[x].key < slots[y].key
                                          : x < y;
    });
  }
  std::vector<ExactPartial> merged(no);
  std::vector<const SeriesPartial*> column;
  const auto emit = [&](TimeNs stamp, std::size_t g, std::size_t h) {
    for (std::size_t o = 0; o < no; ++o) {
      column.clear();
      for (std::size_t e = g; e < h; ++e) {
        column.push_back(&parts[order[e] * no + o]);
      }
      merged[o] = merge_series_partials(column);
    }
    std::vector<double> row;
    row.reserve(selectors.size() + 1);
    row.push_back(static_cast<double>(stamp));
    for (std::size_t s = 0; s < selectors.size(); ++s) {
      row.push_back(exact_value(selectors[s].aggregate, merged[owner_pos[s]]));
    }
    result.rows.push_back(std::move(row));
  };
  for (std::size_t g = 0, h = 0; g < order.size(); g = h) {
    const TimeNs key = slots[order[g]].key;
    TimeNs last = slots[order[g]].last_time;
    for (h = g; h < order.size() && slots[order[h]].key == key; ++h) {
      last = std::max(last, slots[order[h]].last_time);
    }
    emit(interval > 0 ? key : last, g, h);
  }
  // Ungrouped always answers one row: stamp 0 and NaNs when nothing matched.
  if (interval <= 0 && result.rows.empty()) emit(0, 0, 0);
}

// Parallel-across-fields variant of fold_selectors_view, for the
// order-sensitive aggregates the partial path excludes: each distinct
// field's fold (and its deviation pass) runs as one task, in exactly the
// order the serial fold would run it.
void fold_selectors_view_parallel(const tsdb::SeriesView& view,
                                  const std::vector<std::size_t>& field_of,
                                  const std::vector<Selector>& selectors,
                                  std::size_t first, std::size_t last,
                                  util::TaskPool& pool,
                                  std::vector<double>& row) {
  const std::size_t n = selectors.size();
  std::vector<std::size_t> owner_pos(n);
  std::vector<std::size_t> owners;
  dedup_owners(selectors, owner_pos, owners);
  std::vector<char> want_dev(owners.size(), 0);
  for (std::size_t s = 0; s < n; ++s) {
    if (selectors[s].aggregate == Aggregate::kStddev) {
      want_dev[owner_pos[s]] = 1;
    }
  }
  std::vector<tsdb::simd::FieldFold> folds(owners.size());
  std::vector<double> dev(owners.size(), 0.0);
  pool.parallel_for(owners.size(), [&](std::size_t o) {
    const std::size_t field = field_of[owners[o]];
    if (field >= view.field_count()) return;
    folds[o] = tsdb::simd::fold_field(view, field, first, last);
    if (want_dev[o] != 0 && folds[o].count >= 2) {
      const double mean =
          folds[o].sum / static_cast<double>(folds[o].count);
      dev[o] = tsdb::simd::deviation_sum(view, field, first, last, mean);
    }
  });
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t o = owner_pos[s];
    if (selectors[s].aggregate == Aggregate::kStddev) {
      row.push_back(stddev_value(folds[o], dev[o]));
    } else {
      row.push_back(fold_value(selectors[s].aggregate, folds[o]));
    }
  }
}

// Parallel-across-fields variant of fold_selectors_refs: each distinct
// field walks the merged refs independently — the per-field add_one
// sequence is identical to its slice of the combined serial walk.
// Workers read cells via has_value/value_at only (pure const reads).
void fold_selectors_refs_parallel(
    std::span<const tsdb::SeriesView> views,
    const std::vector<std::vector<std::size_t>>& field_of,
    const std::vector<Selector>& selectors,
    const std::vector<tsdb::ViewRow>& refs, std::size_t first,
    std::size_t last, util::TaskPool& pool, std::vector<double>& row) {
  const std::size_t n = selectors.size();
  std::vector<std::size_t> owner_pos(n);
  std::vector<std::size_t> owners;
  dedup_owners(selectors, owner_pos, owners);
  std::vector<char> want_dev(owners.size(), 0);
  for (std::size_t s = 0; s < n; ++s) {
    if (selectors[s].aggregate == Aggregate::kStddev) {
      want_dev[owner_pos[s]] = 1;
    }
  }
  std::vector<tsdb::simd::FieldFold> folds(owners.size());
  std::vector<double> dev(owners.size(), 0.0);
  pool.parallel_for(owners.size(), [&](std::size_t o) {
    const std::size_t sel = owners[o];
    tsdb::simd::FieldFold fold;
    for (std::size_t i = first; i < last; ++i) {
      const tsdb::ViewRow& ref = refs[i];
      const tsdb::SeriesView& view = views[ref.view];
      const std::size_t field = field_of[ref.view][sel];
      if (field >= view.field_count()) continue;
      if (!view.has_value(field, ref.loc)) continue;
      fold.add_one(view.value_at(field, ref.loc), ref.time);
    }
    folds[o] = fold;
    if (want_dev[o] != 0 && fold.count >= 2) {
      tsdb::simd::DeviationFold d;
      d.mean = fold.sum / static_cast<double>(fold.count);
      for (std::size_t i = first; i < last; ++i) {
        const tsdb::ViewRow& ref = refs[i];
        const tsdb::SeriesView& view = views[ref.view];
        const std::size_t field = field_of[ref.view][sel];
        if (field >= view.field_count()) continue;
        if (!view.has_value(field, ref.loc)) continue;
        d.add_one(view.value_at(field, ref.loc));
      }
      dev[o] = d.acc;
    }
  });
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t o = owner_pos[s];
    if (selectors[s].aggregate == Aggregate::kStddev) {
      row.push_back(stddev_value(folds[o], dev[o]));
    } else {
      row.push_back(fold_value(selectors[s].aggregate, folds[o]));
    }
  }
}

// Distinct fields among the selectors (the unit of field-level
// parallelism for the order-sensitive aggregates).
std::size_t distinct_fields(const std::vector<Selector>& selectors) {
  std::vector<std::size_t> owner_pos(selectors.size());
  std::vector<std::size_t> owners;
  dedup_owners(selectors, owner_pos, owners);
  return owners.size();
}

}  // namespace

Expected<tsdb::QueryResult> execute_columnar(
    const Plan& plan, std::span<const tsdb::SeriesView> views) {
  return execute_columnar(plan, views, ExecOptions{});
}

Expected<tsdb::QueryResult> execute_columnar(
    const Plan& plan, std::span<const tsdb::SeriesView> views,
    const ExecOptions& opts) {
  const Query& q = plan.query;
  const std::vector<Selector> selectors = resolve_selectors(q, views);

  tsdb::QueryResult result;
  result.columns.emplace_back("time");
  for (const auto& sel : selectors) result.columns.push_back(sel.label());

  const bool any_aggregate = std::any_of(
      selectors.begin(), selectors.end(),
      [](const Selector& s) { return s.aggregate != Aggregate::kNone; });
  if (q.group_interval > 0 && !any_aggregate) {
    return Status::parse_error("GROUP BY time() requires aggregate selectors");
  }
  if ((q.group_interval > 0 || any_aggregate)) {
    for (const auto& sel : selectors) {
      if (sel.aggregate == Aggregate::kNone) {
        return Status::parse_error(
            "cannot mix raw fields with aggregates in one query");
      }
    }
  }

  // Per-view, per-selector field indices, resolved once.
  std::vector<std::vector<std::size_t>> field_of(views.size());
  for (std::size_t vi = 0; vi < views.size(); ++vi) {
    field_of[vi].reserve(selectors.size());
    for (const auto& sel : selectors) {
      field_of[vi].push_back(views[vi].field_index(sel.field));
    }
  }

  util::TaskPool& pool = exec_pool(opts);

  if (views.size() == 1 && views[0].contiguous()) {
    // Fast path: one matching series, fully compacted.  Rows are already
    // in (time, seq) order; aggregates stream the columns through the
    // vectorized fold kernels (packed runs decode block-by-block into
    // stack buffers, never materializing full columns).
    const tsdb::SeriesView& view = views[0];
    const std::size_t rows = view.rows();
    if (q.group_interval > 0) {
      // Bucket boundaries up front (partition_point jumps over each
      // bucket's sorted run), then one task per bucket — the serial path
      // evaluates buckets independently, so partitioning them across
      // workers cannot change a bit.
      const auto times = view.times();
      std::vector<std::size_t> starts;
      std::size_t i = 0;
      while (i < rows) {
        starts.push_back(i);
        const TimeNs bucket = bucket_start(times[i], q.group_interval);
        i = static_cast<std::size_t>(
            std::partition_point(times.begin() + static_cast<std::ptrdiff_t>(i),
                                 times.end(),
                                 [&](TimeNs t) {
                                   return bucket_start(t, q.group_interval) ==
                                          bucket;
                                 }) -
            times.begin());
      }
      result.rows.resize(starts.size());
      const auto eval_bucket = [&](std::size_t k) {
        const std::size_t a = starts[k];
        const std::size_t b = k + 1 < starts.size() ? starts[k + 1] : rows;
        std::vector<double> row;
        row.reserve(selectors.size() + 1);
        row.push_back(
            static_cast<double>(bucket_start(times[a], q.group_interval)));
        fold_selectors_view(view, field_of[0], selectors, a, b, row);
        result.rows[k] = std::move(row);
      };
      if (pool.size() > 1 && starts.size() > 1 &&
          rows >= opts.parallel_min_rows) {
        pool.parallel_for(starts.size(), eval_bucket);
      } else {
        for (std::size_t k = 0; k < starts.size(); ++k) eval_bucket(k);
      }
      return result;
    }
    if (any_aggregate) {
      if (partials_exact(selectors)) {
        exec_exact_single(view, field_of[0], selectors, opts, pool, result);
        return result;
      }
      std::vector<double> row;
      row.reserve(selectors.size() + 1);
      row.push_back(rows == 0 ? 0.0
                              : static_cast<double>(view.times()[rows - 1]));
      if (pool.size() > 1 && distinct_fields(selectors) > 1 &&
          rows >= opts.parallel_min_rows) {
        fold_selectors_view_parallel(view, field_of[0], selectors, 0, rows,
                                     pool, row);
      } else {
        fold_selectors_view(view, field_of[0], selectors, 0, rows, row);
      }
      result.rows.push_back(std::move(row));
      return result;
    }
    const auto times = view.times();
    result.rows.resize(rows);
    const auto fill_row = [&](std::size_t r) {
      std::vector<double> row;
      row.reserve(selectors.size() + 1);
      row.push_back(static_cast<double>(times[r]));
      const auto loc = view.loc_at(r);
      for (std::size_t s = 0; s < selectors.size(); ++s) {
        const std::size_t field = field_of[0][s];
        row.push_back(field >= view.field_count() ||
                              !view.has_value(field, loc)
                          ? std::nan("")
                          : view.value_at(field, loc));
      }
      result.rows[r] = std::move(row);
    };
    if (pool.size() > 1 && rows >= opts.parallel_min_rows) {
      // Chunked so workers claim row ranges, not single rows.
      const std::size_t chunks = std::min(rows, pool.size() * 4);
      pool.parallel_for(chunks, [&](std::size_t c) {
        const std::size_t a = rows * c / chunks;
        const std::size_t b = rows * (c + 1) / chunks;
        for (std::size_t r = a; r < b; ++r) fill_row(r);
      });
    } else {
      for (std::size_t r = 0; r < rows; ++r) fill_row(r);
    }
    return result;
  }

  // General path: several matching series (or one with live runs).  The
  // partial-exact aggregates skip the merged row list entirely — each
  // series folds into per-bucket partials in its own order and each
  // bucket's partials merge under the (time, seq) keys.  Everything else
  // merges into the seed row store's (time, seq) point order before
  // evaluation.
  if (any_aggregate && partials_exact(selectors)) {
    exec_exact_buckets(views, field_of, selectors, q.group_interval, pool,
                       result);
    return result;
  }

  const std::vector<tsdb::ViewRow> refs = tsdb::merged_view_rows(views);

  if (q.group_interval > 0) {
    std::vector<std::size_t> starts;
    std::size_t i = 0;
    while (i < refs.size()) {
      starts.push_back(i);
      const TimeNs bucket = bucket_start(refs[i].time, q.group_interval);
      i = static_cast<std::size_t>(
          std::partition_point(refs.begin() + static_cast<std::ptrdiff_t>(i),
                               refs.end(),
                               [&](const tsdb::ViewRow& r) {
                                 return bucket_start(r.time,
                                                     q.group_interval) ==
                                        bucket;
                               }) -
          refs.begin());
    }
    result.rows.resize(starts.size());
    const auto eval_bucket = [&](std::size_t k) {
      const std::size_t a = starts[k];
      const std::size_t b = k + 1 < starts.size() ? starts[k + 1] : refs.size();
      std::vector<double> row;
      row.reserve(selectors.size() + 1);
      row.push_back(
          static_cast<double>(bucket_start(refs[a].time, q.group_interval)));
      fold_selectors_refs(views, field_of, selectors, refs, a, b, row);
      result.rows[k] = std::move(row);
    };
    if (pool.size() > 1 && starts.size() > 1 &&
        refs.size() >= opts.parallel_min_rows) {
      pool.parallel_for(starts.size(), eval_bucket);
    } else {
      for (std::size_t k = 0; k < starts.size(); ++k) eval_bucket(k);
    }
    return result;
  }
  if (any_aggregate) {
    std::vector<double> row;
    row.reserve(selectors.size() + 1);
    row.push_back(refs.empty() ? 0.0
                               : static_cast<double>(refs.back().time));
    if (pool.size() > 1 && distinct_fields(selectors) > 1 &&
        refs.size() >= opts.parallel_min_rows) {
      fold_selectors_refs_parallel(views, field_of, selectors, refs, 0,
                                   refs.size(), pool, row);
    } else {
      fold_selectors_refs(views, field_of, selectors, refs, 0, refs.size(),
                          row);
    }
    result.rows.push_back(std::move(row));
    return result;
  }
  result.rows.resize(refs.size());
  const auto fill_ref_row = [&](std::size_t r) {
    const tsdb::ViewRow& ref = refs[r];
    const tsdb::SeriesView& view = views[ref.view];
    std::vector<double> row;
    row.reserve(selectors.size() + 1);
    row.push_back(static_cast<double>(ref.time));
    for (std::size_t s = 0; s < selectors.size(); ++s) {
      const std::size_t field = field_of[ref.view][s];
      if (field >= view.field_count() || !view.has_value(field, ref.loc)) {
        row.push_back(std::nan(""));
        continue;
      }
      row.push_back(view.value_at(field, ref.loc));
    }
    result.rows[r] = std::move(row);
  };
  if (pool.size() > 1 && refs.size() >= opts.parallel_min_rows) {
    const std::size_t chunks = std::min(refs.size(), pool.size() * 4);
    pool.parallel_for(chunks, [&](std::size_t c) {
      const std::size_t a = refs.size() * c / chunks;
      const std::size_t b = refs.size() * (c + 1) / chunks;
      for (std::size_t r = a; r < b; ++r) fill_ref_row(r);
    });
  } else {
    for (std::size_t r = 0; r < refs.size(); ++r) fill_ref_row(r);
  }
  return result;
}

Expected<tsdb::QueryResult> run(const tsdb::TimeSeriesDb& db,
                                const Query& q) {
  return run(db, q, ExecOptions{});
}

Expected<tsdb::QueryResult> run(const tsdb::TimeSeriesDb& db, const Query& q,
                                const ExecOptions& opts) {
  if (!db.has_measurement(q.measurement)) {
    return Status::not_found("measurement not found: " + q.measurement);
  }
  const Plan plan = make_plan(q);
  // Evaluate inside the scan callback: aggregates fold directly over the
  // series views, no Point materialization.  A measurement dropped between
  // the check above and the scan behaves like the seed (empty result).
  Expected<tsdb::QueryResult> out = tsdb::QueryResult{};
  db.scan(q.measurement, q.time_min, q.time_max, q.tag_filters,
          [&](std::span<const tsdb::SeriesView> views) {
            out = execute_columnar(plan, views, opts);
          });
  return out;
}

Expected<tsdb::QueryResult> run(const tsdb::TimeSeriesDb& db,
                                std::string_view text) {
  auto parsed = Query::parse(text);
  if (!parsed) return parsed.status();
  return run(db, parsed.value());
}

}  // namespace pmove::query
