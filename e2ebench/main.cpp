// End-to-end benchmark of the P-MoVE pipeline.
//
//   e2ebench --workload node|jobs|fleet --seed N --seconds S --trace 0|1
//            --work-dir DIR
//
// Prints the input shape and behaviour counters as JSON lines, then, as the
// last line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics traced.  See README.md.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "harness.hpp"

namespace {

void print_object(const char* key,
                  const std::vector<std::pair<std::string, double>>& items) {
  std::printf("{\"%s\": {", key);
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ", items[i].first.c_str(),
                items[i].second);
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload node|jobs|fleet --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      options.trace = std::string_view(value) == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage();
    }
  }
  if (options.work_dir.empty() || options.seconds < 1) return usage();

  e2e::Report report;
  if (options.workload == "node") {
    report = e2e::run_node(options);
  } else if (options.workload == "jobs") {
    report = e2e::run_jobs(options);
  } else if (options.workload == "fleet") {
    report = e2e::run_fleet(options);
  } else {
    return usage();
  }

  print_object("shape", report.shape);
  print_object("counters", report.counters);
  if (options.trace) print_object("self_ms", report.self_ms);
  for (const std::string& error : report.ledger.errors()) {
    std::fprintf(stderr, "failed: %s\n", error.c_str());
  }

  const auto& metrics = options.trace ? report.per_layer : report.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.ledger.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.ledger.attempted()),
              static_cast<unsigned long long>(report.ledger.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
