// Shared pieces of the end-to-end benchmark: the command line, the
// deterministic value generator, timing samples, the in-memory span tracer,
// operation accounting, and the report every workload fills in.
//
// Everything here is benchmark code: it only calls the program's public
// interfaces and never changes what they do.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Working directory for the WAL and the span dump (inside the checkout).
  std::string work_dir;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64 finalizer.
std::uint64_t mix(std::uint64_t x);

/// The value of `field` of series `series` at tick `tick`: an integer below
/// 2^39 (a per-series base plus 20 bits of jitter), so count, min, max, sum
/// and mean have exact reference answers in any fold order.
double field_value(std::uint64_t seed, std::uint64_t series,
                   std::uint64_t field, std::int64_t tick);

/// Name of host `h`: seed-derived, 6 to 12 characters long, as real host
/// names differ in length.
std::string host_name(std::uint64_t seed, int h);

/// Timing samples of one kind; quantiles interpolate linearly between
/// order statistics.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double p50() const { return quantile(0.5); }
  [[nodiscard]] double p90() const { return quantile(0.9); }

 private:
  std::vector<double> values_;
};

/// In-memory spans around calls into the program: name, start, end, parent
/// span and the tick or refresh they belong to.  Off, every call is a
/// no-op; on, spans are kept until write() dumps them.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  [[nodiscard]] bool on() const { return on_ && recording_; }
  void set_recording(bool recording) { recording_ = recording; }

  int begin(std::string_view name, std::int64_t unit);
  void end(int id);

  /// RAII span; a no-op when tracing is off.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, std::int64_t unit)
        : tracer_(tracer), id_(tracer.begin(name, unit)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Durations (in `scale` units of a nanosecond, e.g. 1e3 for us) of every
  /// span named `name`.
  [[nodiscard]] Samples durations(std::string_view name, double scale) const;
  /// Self time per span name (duration minus the time covered by direct
  /// children), summed, in milliseconds.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_ms() const;

  /// Writes one CSV line per span: id,parent,unit,name,start_ns,end_ns.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
    std::int64_t unit = 0;
  };

  bool on_;
  bool recording_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Runs `fn` inside a span named `name` and returns how many nanoseconds
/// it took; the clock runs whether or not tracing is on.
template <typename F>
std::int64_t timed(Tracer& tracer, std::string_view name, std::int64_t unit,
                   F&& fn) {
  Tracer::Scope span(tracer, name, unit);
  const std::int64_t start = now_ns();
  fn();
  return now_ns() - start;
}

/// Attempted and failed operations; keeps the first few failure messages.
class Ledger {
 public:
  /// Counts one operation; returns `ok`.
  bool op(bool ok, std::string_view what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main().
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  ///< filled only by traced runs
  /// Input shape and behaviour counters: printed by every run, never gated.
  std::vector<std::pair<std::string, double>> shape;
  std::vector<std::pair<std::string, double>> counters;
  /// Traced runs: summed self time per span name, in milliseconds.
  std::vector<std::pair<std::string, double>> self_ms;
  Ledger ledger;
};

/// Exact reference of a GROUP BY time() answer.  Column i of the answer is
/// aggregate i ("sum", "max", "count" or "mean") over the values fed to
/// add(time, i, value); buckets hold integer sums, so every aggregate is
/// exact whatever order the program folds in.
class BucketRef {
 public:
  BucketRef(std::int64_t interval_ns, std::vector<std::string> aggregates)
      : interval_(interval_ns), aggregates_(std::move(aggregates)) {}
  void add(std::int64_t time_ns, std::size_t column, double value);
  /// Rows as the evaluator returns them: bucket start, then one value per
  /// column; empty buckets are omitted.
  [[nodiscard]] std::vector<std::vector<double>> rows() const;

 private:
  struct Acc {
    std::uint64_t sum = 0;
    double max = 0.0;
    std::uint64_t count = 0;
  };
  std::int64_t interval_;
  std::vector<std::string> aggregates_;
  std::map<std::int64_t, std::vector<Acc>> buckets_;
};

/// Copies the untraced metric set into `report.per_layer` as "traced.<name>",
/// so a traced run shows its own end-to-end numbers (tracing overhead is the
/// difference to an untraced run).
void add_traced_end_to_end(Report& report);

/// Peak resident set size of this process in MB (VmHWM).
double peak_rss_mb();

/// Removes `path` recursively and recreates it empty.
void reset_dir(const std::string& path);
void remove_dir(const std::string& path);

/// Adds a timing metric to `report.per_layer` as the p50 of `samples`
/// (0 when there are none).
void add_p50(Report& report, const std::string& name, const Samples& samples,
             const char* unit);

Report run_node(const Options& options);
Report run_jobs(const Options& options);
Report run_fleet(const Options& options);

}  // namespace e2e
