#include "support/report.hpp"

#include <cstdio>
#include <string>
#include <thread>
#include <utility>

namespace pmove::bench {

namespace {

/// The source tree's commit, suffixed "-dirty" when it has local changes,
/// so a baseline says exactly which code produced it.
std::string source_commit() {
  std::string out;
  if (std::FILE* pipe = ::popen("git -C \"" BENCH_SOURCE_DIR
                                "\" describe --always --dirty --abbrev=12 "
                                "--exclude='*' 2>/dev/null",
                                "r")) {
    char buffer[128];
    while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
      out += buffer;
    }
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

const char* direction(Better better) {
  return better == Better::kHigher ? "higher" : "lower";
}

}  // namespace

Report::Report(std::string bench, json::Object config) {
  head_.set("bench", std::move(bench));
  head_.set("commit", source_commit());
  head_.set("build_type", BENCH_BUILD_TYPE);
  head_.set("hardware_threads",
            static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  head_.set("config", std::move(config));
}

void Report::metric(std::string name, double value, std::string unit,
                    Better better) {
  metrics_.push_back(json::Object{{"name", std::move(name)},
                                  {"value", value},
                                  {"unit", std::move(unit)},
                                  {"better", direction(better)}});
}

bool Report::gate(std::string name, double value, double bound,
                  Better better) {
  const bool pass =
      better == Better::kHigher ? value >= bound : value <= bound;
  if (!pass) {
    std::fprintf(stderr, "GATE FAIL: %s = %.3f, bound %s %.3f\n",
                 name.c_str(), value,
                 better == Better::kHigher ? ">=" : "<=", bound);
  }
  passed_ = passed_ && pass;
  gates_.push_back(json::Object{{"name", std::move(name)},
                                {"value", value},
                                {"bound", bound},
                                {"pass", pass}});
  return pass;
}

bool Report::gate(std::string name, bool pass) {
  return gate(std::move(name), pass ? 1.0 : 0.0, 1.0, Better::kHigher);
}

json::Value Report::document() const {
  json::Object doc = head_;
  doc.set("metrics", metrics_);
  doc.set("gates", gates_);
  return doc;
}

bool Report::write(const std::string& path) const {
  const std::string text = document().dump_pretty() + "\n";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), out) ==
                  text.size();
  if (std::fclose(out) != 0 || !ok) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace pmove::bench
