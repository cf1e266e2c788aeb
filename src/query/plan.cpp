#include "query/plan.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>

#include "query/exact_sum.hpp"
#include "util/task_pool.hpp"

namespace pmove::query {

namespace {

// The sum-family rule, shared by both evaluators (docs/STORAGE.md §1):
// sum is the exact sum rounded once; mean divides it by the count in one
// IEEE division; stddev is 0 below two cells, else sqrt(round(D) /
// (count - 1)), D the exact sum of fl(fl(v - mean)^2) over the cells.
double mean_of(const ExactSum& sum, std::size_t count) {
  return sum.value() / static_cast<double>(count);
}

double stddev_of(const ExactSum& deviations, std::size_t count) {
  if (count < 2) return 0.0;
  return std::sqrt(deviations.value() / static_cast<double>(count - 1));
}

}  // namespace

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
  ExactSum sum;
  sum.add(values.data(), values.size());
  if (agg == Aggregate::kSum) return sum.value();
  const double mean = mean_of(sum, values.size());
  if (agg == Aggregate::kMean) return mean;
  if (agg == Aggregate::kStddev) {
    ExactSum deviations;
    if (values.size() >= 2) {
      deviations.add_squared_deviations(values.data(), values.size(), mean);
    }
    return stddev_of(deviations, values.size());
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

// ---------------------------------------------------------------------------
// Aggregates as mergeable partials.
//
// Every aggregate query, grouped or not, over one series or many, folds
// each unit of rows — a series, or a row-range morsel of a long contiguous
// one — into one partial per (field, GROUP BY bucket), and merges each
// bucket's partials.  The answer is bit-for-bit independent of thread
// count, morsel boundaries and series placement:
//   * count and the extremes' values are order-free, and sum/mean/stddev
//     sum exactly (ExactSum) and round once;
//   * first/last, and a min or max that zeros of both signs reach, follow
//     the merged (time, seq) row order: partials compare (time, seq) keys
//     when they tie.
// Workers never call SeriesView::seq_at (its lazy decode is the one
// non-const view access); seq tie-breaks resolve on the calling thread.

util::TaskPool& exec_pool(const ExecOptions& opts) {
  return opts.pool != nullptr ? *opts.pool : util::TaskPool::shared();
}

// selector → position in `owners` of the first selector naming the same
// field: selectors on one field share one partial.
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

bool needs_sum(Aggregate agg) {
  return agg == Aggregate::kSum || agg == Aggregate::kMean ||
         agg == Aggregate::kStddev;
}

// One field's partial over some cells: the present-cell count, the
// non-NaN count, the first and last cells with their times, NaN-skipping
// real min/max, and the exact sum (left empty unless a selector on the
// field needs it).  exact_value reads the row evaluator's answers off it
// (aggregate() over the same cells in (time, seq) order):
//   * min/max: min_element/max_element seed from the first cell, and
//     `v < min` never replaces a NaN — so NaN poisons min/max iff the
//     first present value is NaN; otherwise they are the non-NaN extremes
//     with first-of-equals ties (strict <).
//   * first = the minimal-(time, seq) present cell; last = the first
//     present cell carrying the maximal time.
struct ExactPartial {
  std::size_t count = 0;  ///< present cells
  std::size_t nn = 0;     ///< non-NaN present cells
  double first = 0.0;
  double last = 0.0;
  double rmin = 0.0;  ///< min over non-NaN cells (first-of-equals)
  double rmax = 0.0;
  TimeNs first_time = 0;
  TimeNs last_time = 0;
  ExactSum sum;

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
};

// Value of `agg` over the cells `p` folded; `deviations` is the stddev
// pass's sum over the same cells, read by kStddev only.
double exact_value(Aggregate agg, const ExactPartial& p,
                   const ExactSum& deviations) {
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
    case Aggregate::kSum:
      return p.sum.value();
    case Aggregate::kMean:
      return mean_of(p.sum, p.count);
    case Aggregate::kStddev:
      return stddev_of(deviations, p.count);
    default:
      return std::nan("");
  }
}

// Folds logical rows [a, b) of a contiguous view into an ExactPartial,
// streaming the column in blocks (packed runs decode block by block into
// stack buffers, never materializing full columns).
ExactPartial fold_range_exact(const tsdb::SeriesView& view, std::size_t field,
                              std::size_t a, std::size_t b, bool with_sum) {
  ExactPartial p;
  if (field >= view.field_count()) return p;
  view.for_each_value_block(
      field, a, b, [&](const double* v, const TimeNs* t, std::size_t n) {
        for (std::size_t j = 0; j < n; ++j) p.add_cell(v[j], t[j]);
        if (with_sum) p.sum.add(v, n);
      });
  return p;
}

// The cells of a series partial that cross-series ties are broken on: the
// first and last present cells, and the cells that set rmin and rmax.
enum Cell : std::size_t { kFirstCell, kLastCell, kMinCell, kMaxCell };

// One unit's partial over one bucket's rows, plus what a cross-partial tie
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
  void add_walked(tsdb::SeriesView::Loc loc, double v, TimeNs t,
                  bool with_sum) {
    if (p.count == 0) locs[kFirstCell] = loc;
    if (p.count == 0 || t > p.last_time) locs[kLastCell] = loc;
    if (v == v) {
      if (p.nn == 0 || v < p.rmin) locs[kMinCell] = loc;
      if (p.nn == 0 || p.rmax < v) locs[kMaxCell] = loc;
    }
    p.add_cell(v, t);
    if (with_sum) p.sum.add(v);
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

// Merges one bucket's partials in the merged (time, seq) row order's
// semantics.  count, the sums and the extremes' values are order-free.
// first/last are keyed by (time, seq) across partials, and so is a min or
// max that several partials reach with zeros of both signs — the only
// equal values whose bits differ — since the row fold keeps the earliest
// of equals.  Seqs are read only for the partials that tie.
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
    out.sum.merge(p.sum);
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
    // The row fold's last is the FIRST cell at the maximal time
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

// One unit of the fold: logical rows [a, b) of one view.  A view with live
// runs is one unit; a contiguous view of at least parallel_min_rows rows
// splits into row-range morsels (at most four per worker), so one long
// series still folds on every worker.
struct FoldUnit {
  std::size_t view = 0;
  std::size_t a = 0;
  std::size_t b = 0;
};

std::vector<FoldUnit> fold_units(std::span<const tsdb::SeriesView> views,
                                 const ExecOptions& opts,
                                 std::size_t workers) {
  const std::size_t morsel = std::max<std::size_t>(1, opts.morsel_rows);
  std::vector<FoldUnit> units;
  units.reserve(views.size());
  for (std::size_t v = 0; v < views.size(); ++v) {
    const std::size_t rows = views[v].rows();
    if (rows == 0) continue;
    std::size_t pieces = 1;
    if (views[v].contiguous() && rows >= opts.parallel_min_rows) {
      pieces = std::clamp<std::size_t>((rows + morsel - 1) / morsel, 1,
                                       workers * 4);
    }
    for (std::size_t c = 0; c < pieces; ++c) {
      units.push_back({v, rows * c / pieces, rows * (c + 1) / pieces});
    }
  }
  return units;
}

// One bucket of one unit: its start (0 when ungrouped) and the time of its
// last row, which stamps an ungrouped answer.
struct BucketSlot {
  TimeNs key = 0;
  TimeNs last_time = 0;
};

// Most buckets unit `u` of `view` can fill: one when ungrouped, else every
// bucket from its first row's to its last row's, and never more than its
// rows.
std::size_t bucket_bound(const tsdb::SeriesView& view, const FoldUnit& u,
                         TimeNs interval) {
  if (interval <= 0) return 1;
  const bool morsel = view.contiguous();
  const TimeNs first = morsel ? view.times()[u.a]
                              : tsdb::SeriesView::RowCursor(view).time();
  const TimeNs last = morsel ? view.times()[u.b - 1] : view.last_row_time();
  // Unsigned: two int64 bucket starts can lie more than INT64_MAX apart.
  const std::uint64_t steps =
      (static_cast<std::uint64_t>(bucket_start(last, interval)) -
       static_cast<std::uint64_t>(bucket_start(first, interval))) /
      static_cast<std::uint64_t>(interval);
  return static_cast<std::size_t>(
             std::min<std::uint64_t>(u.b - u.a - 1, steps)) +
         1;
}

// Folds unit `u` of `view` into per-bucket partials, buckets ascending:
// each used bucket fills one slot and `fields.size()` partials, one per
// field; `sums[f]` says whether field f's partials carry the exact sum.
// Returns the buckets used (at most bucket_bound).  Contiguous views find
// each bucket's rows by partition_point and stream them in blocks; views
// with live runs walk their rows once for every field.
std::size_t fold_unit_buckets(const tsdb::SeriesView& view, const FoldUnit& u,
                              std::span<const std::size_t> fields,
                              std::span<const char> sums, TimeNs interval,
                              BucketSlot* slots, SeriesPartial* parts) {
  const std::size_t nf = fields.size();
  const auto bucket_of = [interval](TimeNs t) {
    return interval > 0 ? bucket_start(t, interval) : TimeNs{0};
  };
  std::size_t used = 0;
  if (view.contiguous()) {
    const auto times = view.times();
    const auto end = times.begin() + static_cast<std::ptrdiff_t>(u.b);
    for (std::size_t i = u.a; i < u.b; ++used) {
      const TimeNs key = bucket_of(times[i]);
      const auto j = static_cast<std::size_t>(
          std::partition_point(
              times.begin() + static_cast<std::ptrdiff_t>(i), end,
              [&](TimeNs t) { return bucket_of(t) == key; }) -
          times.begin());
      slots[used] = {key, times[j - 1]};
      for (std::size_t f = 0; f < nf; ++f) {
        SeriesPartial& sp = parts[used * nf + f];
        sp.view = &view;
        sp.field = fields[f];
        sp.a = i;
        sp.b = j;
        sp.p = fold_range_exact(view, fields[f], i, j, sums[f] != 0);
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
      bucket[f].add_walked(loc, view.value_at(field, loc), t, sums[f] != 0);
    }
  });
  return used;
}

// The stddev pass over one unit's `used` slots, folded by
// fold_unit_buckets: adds fl(fl(v - m)^2) of each slot's cells of every
// field f with devs_wanted[f] into devs, m being means[] of that slot and
// field — the mean of the whole bucket the slot belongs to.
void fold_unit_deviations(const tsdb::SeriesView& view, TimeNs interval,
                          std::span<const char> devs_wanted,
                          std::size_t used, const BucketSlot* slots,
                          const SeriesPartial* parts, const double* means,
                          ExactSum* devs) {
  const std::size_t nf = devs_wanted.size();
  if (view.contiguous()) {
    for (std::size_t k = 0; k < used * nf; ++k) {
      const SeriesPartial& sp = parts[k];
      if (devs_wanted[k % nf] == 0 || sp.field >= view.field_count()) continue;
      view.for_each_value_block(
          sp.field, sp.a, sp.b,
          [&](const double* v, const TimeNs*, std::size_t n) {
            devs[k].add_squared_deviations(v, n, means[k]);
          });
    }
    return;
  }
  std::size_t k = 0;  // slot of the current row, plus one
  view.for_each_row([&](tsdb::SeriesView::Loc loc, TimeNs t) {
    const TimeNs key = interval > 0 ? bucket_start(t, interval) : TimeNs{0};
    if (k == 0 || key != slots[k - 1].key) ++k;
    for (std::size_t f = 0; f < nf; ++f) {
      const SeriesPartial& sp = parts[(k - 1) * nf + f];
      if (devs_wanted[f] == 0 || sp.field >= view.field_count() ||
          !view.has_value(sp.field, loc)) {
        continue;
      }
      const double v = view.value_at(sp.field, loc);
      devs[(k - 1) * nf + f].add_squared_deviations(&v, 1,
                                                    means[(k - 1) * nf + f]);
    }
  });
}

// Every aggregate over the views, per GROUP BY time() bucket — ungrouped
// is the one-bucket case, stamped like the row evaluator with the last
// matched time.  One task per unit folds its rows into per-bucket
// partials; then each bucket's partials merge on this thread, where a
// view's lazy seq column may decode.  With a stddev selector, a second
// pass over the same units sums each cell's squared deviation from its
// bucket's mean.  Rows are the row evaluator's: one per bucket holding
// any matched row, ascending, stamped with the bucket start.
void exec_buckets(std::span<const tsdb::SeriesView> views,
                  const std::vector<std::vector<std::size_t>>& field_of,
                  const std::vector<Selector>& selectors, TimeNs interval,
                  const ExecOptions& opts, util::TaskPool& pool,
                  tsdb::QueryResult& result) {
  std::vector<std::size_t> owner_pos(selectors.size());
  std::vector<std::size_t> owners;
  dedup_owners(selectors, owner_pos, owners);
  const std::size_t no = owners.size();
  std::vector<char> sums(no, 0);
  std::vector<char> devs_wanted(no, 0);
  for (std::size_t s = 0; s < selectors.size(); ++s) {
    if (needs_sum(selectors[s].aggregate)) sums[owner_pos[s]] = 1;
    if (selectors[s].aggregate == Aggregate::kStddev) {
      devs_wanted[owner_pos[s]] = 1;
    }
  }
  const bool any_dev =
      std::find(devs_wanted.begin(), devs_wanted.end(), 1) !=
      devs_wanted.end();

  const std::vector<FoldUnit> units = fold_units(views, opts, pool.size());
  const std::size_t nu = units.size();
  std::vector<std::size_t> fields(nu * no);
  std::vector<std::size_t> offset(nu + 1, 0);
  for (std::size_t u = 0; u < nu; ++u) {
    for (std::size_t o = 0; o < no; ++o) {
      fields[u * no + o] = field_of[units[u].view][owners[o]];
    }
    offset[u + 1] =
        offset[u] + bucket_bound(views[units[u].view], units[u], interval);
  }
  std::vector<BucketSlot> slots(offset[nu]);
  std::vector<SeriesPartial> parts(offset[nu] * no);
  std::vector<std::size_t> used(nu);
  pool.parallel_for(nu, [&](std::size_t u) {
    used[u] = fold_unit_buckets(
        views[units[u].view], units[u],
        std::span<const std::size_t>(fields.data() + u * no, no), sums,
        interval, slots.data() + offset[u], parts.data() + offset[u] * no);
  });

  // Every used slot in (bucket, unit) order; one bucket is already in it.
  std::vector<std::size_t> order;
  order.reserve(offset[nu]);
  for (std::size_t u = 0; u < nu; ++u) {
    for (std::size_t k = 0; k < used[u]; ++k) order.push_back(offset[u] + k);
  }
  if (interval > 0) {
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return slots[x].key != slots[y].key ? slots[x].key < slots[y].key
                                          : x < y;
    });
  }
  // Each bucket is a run [begin, end) of `order`.
  struct Bucket {
    TimeNs stamp = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<Bucket> buckets;
  for (std::size_t g = 0, h = 0; g < order.size(); g = h) {
    const TimeNs key = slots[order[g]].key;
    TimeNs last = slots[order[g]].last_time;
    for (h = g; h < order.size() && slots[order[h]].key == key; ++h) {
      last = std::max(last, slots[order[h]].last_time);
    }
    buckets.push_back({interval > 0 ? key : last, g, h});
  }
  // Ungrouped always answers one row: stamp 0 and NaNs when nothing matched.
  if (interval <= 0 && buckets.empty()) buckets.push_back({});

  const std::size_t nb = buckets.size();
  std::vector<ExactPartial> merged(nb * no);
  std::vector<const SeriesPartial*> column;
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t o = 0; o < no; ++o) {
      column.clear();
      for (std::size_t e = buckets[b].begin; e < buckets[b].end; ++e) {
        column.push_back(&parts[order[e] * no + o]);
      }
      merged[b * no + o] = merge_series_partials(column);
    }
  }

  std::vector<ExactSum> deviations(any_dev ? nb * no : 0);
  if (any_dev) {
    std::vector<double> means(offset[nu] * no, 0.0);
    for (std::size_t b = 0; b < nb; ++b) {
      for (std::size_t o = 0; o < no; ++o) {
        const ExactPartial& m = merged[b * no + o];
        if (devs_wanted[o] == 0 || m.count < 2) continue;
        const double mean = mean_of(m.sum, m.count);
        for (std::size_t e = buckets[b].begin; e < buckets[b].end; ++e) {
          means[order[e] * no + o] = mean;
        }
      }
    }
    std::vector<ExactSum> devs(offset[nu] * no);
    pool.parallel_for(nu, [&](std::size_t u) {
      fold_unit_deviations(views[units[u].view], interval, devs_wanted,
                           used[u], slots.data() + offset[u],
                           parts.data() + offset[u] * no,
                           means.data() + offset[u] * no,
                           devs.data() + offset[u] * no);
    });
    for (std::size_t b = 0; b < nb; ++b) {
      for (std::size_t o = 0; o < no; ++o) {
        if (devs_wanted[o] == 0) continue;
        for (std::size_t e = buckets[b].begin; e < buckets[b].end; ++e) {
          deviations[b * no + o].merge(devs[order[e] * no + o]);
        }
      }
    }
  }

  const ExactSum none;
  result.rows.reserve(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    std::vector<double> row;
    row.reserve(selectors.size() + 1);
    row.push_back(static_cast<double>(buckets[b].stamp));
    for (std::size_t s = 0; s < selectors.size(); ++s) {
      const std::size_t o = owner_pos[s];
      row.push_back(exact_value(selectors[s].aggregate, merged[b * no + o],
                                any_dev ? deviations[b * no + o] : none));
    }
    result.rows.push_back(std::move(row));
  }
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

  if (any_aggregate) {
    exec_buckets(views, field_of, selectors, q.group_interval, opts, pool,
                 result);
    return result;
  }

  // Raw rows, in the merged (time, seq) row order.
  if (views.size() == 1 && views[0].contiguous()) {
    // One matching series, fully compacted: its rows are already in
    // order, so they copy straight out of the column spans.
    const tsdb::SeriesView& view = views[0];
    const std::size_t rows = view.rows();
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

  const std::vector<tsdb::ViewRow> refs = tsdb::merged_view_rows(views);
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
