#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>

namespace e2e {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double field_value(std::uint64_t seed, std::uint64_t series,
                   std::uint64_t field, std::int64_t tick) {
  const std::uint64_t key = mix(mix(seed ^ (series * 0x100000001b3ULL)) ^
                                (field * 0x9e3779b1ULL));
  const std::uint64_t base = key & ((std::uint64_t{1} << 38) - 1);
  const std::uint64_t jitter =
      mix(key ^ static_cast<std::uint64_t>(tick)) & ((1u << 20) - 1);
  return static_cast<double>(base + jitter);
}

std::string host_name(std::uint64_t seed, int h) {
  static const char kDigits[] = "0123456789abcdef";
  std::uint64_t bits = mix(seed * 1000003 + static_cast<std::uint64_t>(h));
  const std::size_t length = 5 + bits % 7;
  std::string name = "h";
  for (std::size_t i = 0; i < length; ++i) {
    bits = mix(bits);
    name += kDigits[bits & 15];
  }
  return name;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

int Tracer::begin(std::string_view name, std::int64_t unit) {
  if (!on()) return -1;
  Span span;
  span.name = std::string(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.unit = unit;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  spans_.back().start = now_ns();
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

Samples Tracer::durations(std::string_view name, double scale) const {
  Samples out;
  for (const Span& s : spans_) {
    if (s.name == name) out.add(static_cast<double>(s.end - s.start) / scale);
  }
  return out;
}

std::vector<std::pair<std::string, double>> Tracer::self_ms() const {
  // Children of one parent never overlap (one generator thread), so the
  // covered part of a span is the sum of its direct children.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    by_name[s.name] += static_cast<double>(s.end - s.start - child_ns[i]) / 1e6;
  }
  return {by_name.begin(), by_name.end()};
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "id,parent,unit,name,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.parent << ',' << s.unit << ',' << s.name << ','
        << s.start << ',' << s.end << '\n';
  }
  return static_cast<bool>(out);
}

bool Ledger::op(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (errors_.size() < 8) errors_.emplace_back(what);
  }
  return ok;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void reset_dir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
}

void remove_dir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void add_p50(Report& report, const std::string& name, const Samples& samples,
             const char* unit) {
  report.per_layer.push_back({name, samples.p50(), unit});
}

void BucketRef::add(std::int64_t time_ns, std::size_t column, double value) {
  auto& accs = buckets_[time_ns / interval_ * interval_];
  accs.resize(aggregates_.size());
  Acc& acc = accs[column];
  acc.sum += static_cast<std::uint64_t>(value);
  acc.max = acc.count == 0 ? value : std::max(acc.max, value);
  ++acc.count;
}

std::vector<std::vector<double>> BucketRef::rows() const {
  std::vector<std::vector<double>> out;
  for (const auto& [bucket, accs] : buckets_) {
    std::vector<double> row{static_cast<double>(bucket)};
    for (std::size_t i = 0; i < aggregates_.size(); ++i) {
      const Acc& acc = accs[i];
      const std::string& agg = aggregates_[i];
      if (agg == "sum") {
        row.push_back(static_cast<double>(acc.sum));
      } else if (agg == "max") {
        row.push_back(acc.max);
      } else if (agg == "count") {
        row.push_back(static_cast<double>(acc.count));
      } else {  // mean: one rounding of the exact sum
        row.push_back(static_cast<double>(acc.sum) /
                      static_cast<double>(acc.count));
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

void add_traced_end_to_end(Report& report) {
  for (const Metric& m : report.end_to_end) {
    report.per_layer.push_back({"traced." + m.name, m.value, m.unit});
  }
}

}  // namespace e2e
