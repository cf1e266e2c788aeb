#include "support/runner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pmove::bench {

AbTimes run_ab(int rounds, const std::function<void()>& a,
               const std::function<void()>& b, const Clock& clock) {
  AbTimes best{std::numeric_limits<double>::infinity(),
               std::numeric_limits<double>::infinity()};
  const auto warm_then_time = [&clock](const std::function<void()>& side,
                                       double& fastest) {
    side();
    const TimeNs start = clock.now();
    side();
    fastest = std::min(fastest, to_seconds(clock.now() - start));
  };
  for (int round = 0; round < std::max(rounds, 1); ++round) {
    warm_then_time(a, best.a_s);
    warm_then_time(b, best.b_s);
  }
  return best;
}

bool same_result(const tsdb::QueryResult& a, const tsdb::QueryResult& b) {
  if (a.columns != b.columns || a.rows.size() != b.rows.size()) return false;
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (std::size_t c = 0; c < a.rows[r].size(); ++c) {
      const double x = a.rows[r][c];
      const double y = b.rows[r][c];
      if (x != y && !(std::isnan(x) && std::isnan(y))) return false;
    }
  }
  return true;
}

}  // namespace pmove::bench
