// The A/B runner that times the benches' paired measurements — the
// storage scans, the query cells against their 1-thread side, the
// per-write gate and the fleet gathers — and the parity compare of the
// storage and query harnesses.
//
// Two sides of a comparison timed in separate best-of-N blocks drift apart
// with the machine: a slowdown during one block moves the ratio, and a
// ratio gate then fails a correct build.  run_ab() times the sides in
// strictly alternating rounds instead.  Each round runs A untimed, A
// timed, B untimed, B timed.  The untimed run refills the caches the other
// side's run evicted (the row store's scan copies every Point and evicts
// the columnar working set), so each timed run starts warm.  Each side
// keeps its fastest timed run; the caller forms the ratio.
#pragma once

#include <functional>

#include "tsdb/db.hpp"
#include "util/clock.hpp"

namespace pmove::bench {

/// Fastest timed run of each side, in seconds.
struct AbTimes {
  double a_s = 0.0;
  double b_s = 0.0;
};

/// Times `a` and `b` over `rounds` alternating rounds (at least one) on
/// `clock`; tests pass a VirtualClock.
AbTimes run_ab(int rounds, const std::function<void()>& a,
               const std::function<void()>& b,
               const Clock& clock = WallClock());

/// Two query results are equal value for value (NaN equals NaN), with the
/// same columns and row count: the storage and query harnesses' parity.
bool same_result(const tsdb::QueryResult& a, const tsdb::QueryResult& b);

}  // namespace pmove::bench
