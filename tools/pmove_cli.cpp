// pmove — command-line front end to the P-MoVE library.
//
// Subcommands mirror the daemon workflows so the whole pipeline is
// drivable from a shell:
//
//   pmove probe <preset>                     emit the probe-report JSON
//   pmove tree <preset>                      render the component hierarchy
//   pmove kb <preset>                        KB summary + example interface
//   pmove events <pmu>                       generic-event mappings (Table I)
//   pmove get <pmu> <generic>                pmu_utils.get(...)
//   pmove scenario-a <preset> [hz] [metrics] [secs]
//   pmove scenario-b <preset> <kernel> [hz]  profile a likwid-style kernel
//   pmove carm <preset> [isa] [threads]      render the roofline
//   pmove bench <preset> <stream|hpcg|carm>  record a BenchmarkInterface
//   pmove triples <preset> <s> <p> <o>       linked-data query ("?" = any)
//   pmove anomaly <preset> [z]               monitor, inject, detect, trace
//   pmove cluster <preset> [preset...]       cluster session + job
//   pmove record <preset> <kernel> <dir>     profile + save the session
//   pmove replay <dir> <host>                reopen a recorded session
//   pmove ingest-bench [n] [shards] [batch]  per-point DB vs ingest engine
//   pmove query-bench [panels] [refr] [n] [w]  read-path head-to-head
//   pmove fleet [--wire] [nodes] [series] [points]  execution-tier demo + chaos
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "analysis/anomaly.hpp"
#include "analysis/rootcause.hpp"
#include "carm/microbench.hpp"
#include "cluster/cluster.hpp"
#include "core/daemon.hpp"
#include "dashboard/views.hpp"
#include "fault/fault.hpp"
#include "fleet/fleet.hpp"
#include "ingest/engine.hpp"
#include "kb/linked_query.hpp"
#include "kernels/kernels.hpp"
#include "metrics/names.hpp"
#include "metrics/registry.hpp"
#include "query/engine.hpp"
#include "query/parallel_bench.hpp"
#include "query/storage_bench.hpp"
#include "topology/prober.hpp"

using namespace pmove;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: pmove <command> [args]\n"
      "  probe <preset>                      probe-report JSON\n"
      "  tree <preset>                       component hierarchy\n"
      "  kb <preset>                         KB summary\n"
      "  events <pmu>                        generic event mappings\n"
      "  get <pmu> <generic>                 one mapping (pmu_utils.get)\n"
      "  scenario-a <preset> [hz] [met] [s]  SW-telemetry session\n"
      "  scenario-b <preset> <kernel> [hz]   profile a kernel\n"
      "  carm <preset> [isa] [threads]       roofline plot\n"
      "  bench <preset> <stream|hpcg|carm>   benchmark campaign\n"
      "  triples <preset> <s> <p> <o>        linked-data query\n"
      "  anomaly <preset> [z]                detect + root-cause demo\n"
      "  cluster <preset> [preset...]        cluster session + job\n"
      "  record <preset> <kernel> <dir>      profile + save session\n"
      "  replay <dir> <host>                 reopen a recorded session\n"
      "  health <preset> [hz] [met] [s]      session + component health "
      "table\n"
      "  metrics <preset> [hz] [met] [s]     session + self-telemetry "
      "registry\n"
      "  ingest-bench [n] [shards] [batch] [producers] [--fault <spec>]\n"
      "                                      per-point DB vs ingest engine\n"
      "  query-bench [panels] [refr] [n] [w] string vs typed vs cached reads\n"
      "  query-bench --threads N [--series N] [--points N]\n"
      "                                      parallel evaluator sweep vs\n"
      "                                      1-thread parity baseline\n"
      "  storage-bench [--packed] [n] [tagsets] [fields]\n"
      "                                      columnar engine vs seed row "
      "store\n"
      "                                      (--packed: + compression "
      "phase)\n"
      "  fleet [--wire] [nodes] [series] [points]\n"
      "                                      execution-tier demo: sharded\n"
      "                                      writes, scatter/gather, chaos\n"
      "                                      (--wire: loopback TCP sockets)\n"
      "presets: skx icl csl zen3   kernels: sum stream triad peakflops"
      " ddot daxpy\n"
      "env: PMOVE_FAULT=\"point=mode:arg[;point2=...]\" arms fault "
      "injection\n");
  return 2;
}

Expected<topology::MachineSpec> preset_arg(int argc, char** argv, int index) {
  if (index >= argc) {
    return Status::invalid_argument("missing <preset> argument");
  }
  return topology::machine_preset(argv[index]);
}

int cmd_probe(int argc, char** argv) {
  auto spec = preset_arg(argc, argv, 2);
  if (!spec) return usage();
  std::printf("%s\n", topology::probe_report(*spec).dump_pretty().c_str());
  return 0;
}

int cmd_tree(int argc, char** argv) {
  auto spec = preset_arg(argc, argv, 2);
  if (!spec) return usage();
  auto tree = topology::build_component_tree(*spec);
  std::printf("%s", topology::render_tree(*tree).c_str());
  return 0;
}

int cmd_kb(int argc, char** argv) {
  auto spec = preset_arg(argc, argv, 2);
  if (!spec) return usage();
  auto kb = kb::KnowledgeBase::build(*spec);
  std::printf("system: %s\ninterfaces: %zu\n", kb.system_dtmi().c_str(),
              kb.interfaces().size());
  const auto* cpu0 = kb.root().find_by_name("cpu0");
  auto dtmi = kb.dtmi_for(*cpu0);
  std::printf("HW telemetry on cpu0: %zu entries\n",
              kb.telemetry_of(*dtmi, "HWTelemetry").size());
  std::printf("example interface (%s):\n%s\n", dtmi->c_str(),
              kb.interface(*dtmi)->dump_pretty().c_str());
  return 0;
}

int cmd_events(int argc, char** argv) {
  if (argc < 3) return usage();
  auto layer = abstraction::AbstractionLayer::with_builtin_configs();
  auto generics = layer.generic_events(argv[2]);
  if (generics.empty()) {
    std::fprintf(stderr, "unknown PMU '%s' (try: skx csl icl zen3)\n",
                 argv[2]);
    return 1;
  }
  for (const auto& generic : generics) {
    auto formula = layer.get(argv[2], generic);
    std::printf("%-26s %s\n", generic.c_str(),
                formula->unsupported() ? "Not Supported"
                                       : formula->to_string().c_str());
  }
  return 0;
}

int cmd_get(int argc, char** argv) {
  if (argc < 4) return usage();
  auto layer = abstraction::AbstractionLayer::with_builtin_configs();
  auto formula = layer.get(argv[2], argv[3]);
  if (!formula) {
    std::fprintf(stderr, "%s\n", formula.status().to_string().c_str());
    return 1;
  }
  std::printf("[\n");
  for (const auto& token : formula->tokens()) {
    std::printf("  \"%s\",\n", token.c_str());
  }
  std::printf("]\n");
  return 0;
}

int cmd_scenario_a(int argc, char** argv) {
  auto spec = preset_arg(argc, argv, 2);
  if (!spec) return usage();
  const double hz = argc > 3 ? std::atof(argv[3]) : 8.0;
  const int metrics = argc > 4 ? std::atoi(argv[4]) : 4;
  const double seconds = argc > 5 ? std::atof(argv[5]) : 10.0;
  core::Daemon daemon(core::DaemonConfig::from_env());
  if (auto s = daemon.attach_target(*spec); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }
  auto result = daemon.run_scenario_a(hz, metrics, seconds);
  if (!result) {
    std::fprintf(stderr, "%s\n", result.status().to_string().c_str());
    return 1;
  }
  std::printf("expected %lld, inserted %lld, zeros %lld (%%L %.1f, L+Z%% "
              "%.1f, tput %.1f/s)\n",
              static_cast<long long>(result->stats.expected),
              static_cast<long long>(result->stats.inserted),
              static_cast<long long>(result->stats.zeros),
              result->stats.loss_pct(),
              result->stats.loss_plus_zero_pct(),
              result->stats.throughput);
  dashboard::Dashboard trimmed = result->dashboard;
  if (trimmed.panels.size() > 3) trimmed.panels.resize(3);
  std::printf("%s", render_dashboard(trimmed, daemon.query_engine()).c_str());
  return 0;
}

int cmd_scenario_b(int argc, char** argv) {
  auto spec = preset_arg(argc, argv, 2);
  if (!spec || argc < 4) return usage();
  auto kind = kernels::kernel_from_name(argv[3]);
  if (!kind) {
    std::fprintf(stderr, "%s\n", kind.status().to_string().c_str());
    return 1;
  }
  const double hz = argc > 4 ? std::atof(argv[4]) : 40.0;
  core::Daemon daemon(core::DaemonConfig::from_env());
  if (auto s = daemon.attach_target(*spec); !s.is_ok()) return 1;
  core::ScenarioBRequest request;
  request.command = std::string("pmove scenario-b ") + argv[3];
  request.events = {"FLOPS_SCALAR_DP", "TOTAL_MEMORY_OPERATIONS",
                    "RAPL_ENERGY_PKG"};
  request.frequency_hz = hz;
  const auto& machine = daemon.knowledge_base().machine();
  auto obs = daemon.run_scenario_b(
      request, [&machine, &kind](workload::LiveCounters& live) {
        kernels::KernelSpec spec;
        spec.kind = *kind;
        spec.n = 1u << 17;
        spec.iterations = 400;
        return kernels::run_kernel(spec, machine, &live).seconds;
      });
  if (!obs) {
    std::fprintf(stderr, "%s\n", obs.status().to_string().c_str());
    return 1;
  }
  std::printf("observation %s\nreport: %s\nqueries:\n", obs->tag.c_str(),
              obs->report.dump_pretty().c_str());
  for (const auto& query : obs->generate_typed_queries()) {
    const std::size_t rows =
        daemon.query_engine()
            .run(query)
            .map([](const tsdb::QueryResult& r) { return r.rows.size(); })
            .value_or(0);
    std::printf("  %s  (%zu rows)\n", query.to_string().c_str(), rows);
  }
  return 0;
}

int cmd_carm(int argc, char** argv) {
  auto spec = preset_arg(argc, argv, 2);
  if (!spec) return usage();
  topology::Isa isa = topology::Isa::kScalar;
  if (argc > 3) {
    const std::string name = argv[3];
    for (topology::Isa candidate :
         {topology::Isa::kScalar, topology::Isa::kSse, topology::Isa::kAvx2,
          topology::Isa::kAvx512}) {
      if (topology::to_string(candidate) == name) isa = candidate;
    }
  }
  const int threads = argc > 4 ? std::atoi(argv[4]) : 1;
  carm::MicrobenchOptions options;
  options.isa = isa;
  options.threads = threads;
  auto model = carm::run_carm_machine_mode(*spec, options);
  if (!model) {
    std::fprintf(stderr, "%s\n", model.status().to_string().c_str());
    return 1;
  }
  std::printf("%s", render_carm_ascii(*model, {}).c_str());
  return 0;
}

int cmd_bench(int argc, char** argv) {
  auto spec = preset_arg(argc, argv, 2);
  if (!spec || argc < 4) return usage();
  core::Daemon daemon(core::DaemonConfig::from_env());
  if (auto s = daemon.attach_target(*spec); !s.is_ok()) return 1;
  auto recorded = daemon.run_benchmark(argv[3]);
  if (!recorded) {
    std::fprintf(stderr, "%s\n", recorded.status().to_string().c_str());
    return 1;
  }
  std::printf("recorded %d BenchmarkInterface entr%s:\n", *recorded,
              *recorded == 1 ? "y" : "ies");
  const auto& bench = daemon.knowledge_base().benchmarks().back();
  for (const auto& result : bench.results) {
    std::printf("  %-16s %12.3f %s\n", result.name.c_str(), result.value,
                result.unit.c_str());
  }
  return 0;
}

int cmd_triples(int argc, char** argv) {
  auto spec = preset_arg(argc, argv, 2);
  if (!spec || argc < 6) return usage();
  auto kb = kb::KnowledgeBase::build(*spec);
  auto store = kb::TripleStore::from_kb(kb);
  auto matches = store.match(argv[3], argv[4], argv[5]);
  std::printf("%zu of %zu triples match\n", matches.size(), store.size());
  const std::size_t limit = 40;
  for (std::size_t i = 0; i < matches.size() && i < limit; ++i) {
    std::printf("  (%s, %s, %s)\n", matches[i].subject.c_str(),
                matches[i].predicate.c_str(), matches[i].object.c_str());
  }
  if (matches.size() > limit) {
    std::printf("  ... %zu more\n", matches.size() - limit);
  }
  return 0;
}

int cmd_anomaly(int argc, char** argv) {
  auto spec = preset_arg(argc, argv, 2);
  if (!spec) return usage();
  analysis::AnomalyConfig config;
  config.window = 12;
  if (argc > 3) config.z_threshold = std::atof(argv[3]);
  core::Daemon daemon(core::DaemonConfig::from_env());
  if (auto s = daemon.attach_target(*spec); !s.is_ok()) return 1;
  if (!daemon.run_scenario_a(8.0, 4, 5.0).has_value()) return 1;
  // Inject a dip into cpu0's idle series so there is something to find.
  for (int i = 0; i < 50; ++i) {
    tsdb::Point point;
    point.measurement = "kernel_percpu_cpu_idle";
    point.time = from_seconds(0.5 * i + 100.0);
    point.fields["_cpu0"] = i == 40 ? 5.0 : 800.0 + (i % 4);
    (void)daemon.timeseries().write(std::move(point));
  }
  auto anomalies = analysis::detect_anomalies(
      daemon.timeseries(), "kernel_percpu_cpu_idle", "_cpu0", "", config);
  if (!anomalies) {
    std::fprintf(stderr, "%s\n", anomalies.status().to_string().c_str());
    return 1;
  }
  for (const auto& anomaly : *anomalies) {
    std::printf("ANOMALY t=%.1fs value=%.1f z=%.1f\n",
                to_seconds(anomaly.time), anomaly.value, anomaly.score);
  }
  const auto* cpu0 = daemon.knowledge_base().root().find_by_name("cpu0");
  auto report = analysis::analyze_root_cause(
      daemon.knowledge_base(), daemon.timeseries(),
      daemon.knowledge_base().dtmi_for(*cpu0).value(), "", config);
  if (report.has_value()) std::printf("\n%s", report->render().c_str());
  return 0;
}

int cmd_cluster(int argc, char** argv) {
  if (argc < 3) return usage();
  cluster::ClusterDaemon cluster;
  for (int i = 2; i < argc; ++i) {
    if (auto s = cluster.add_node(argv[i]); !s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
  }
  auto stats = cluster.run_scenario_a(8.0, 4, 5.0);
  if (!stats) return 1;
  for (const auto& [node, s] : *stats) {
    std::printf("%-8s inserted %lld / %lld (L+Z%% %.1f)\n", node.c_str(),
                static_cast<long long>(s.inserted),
                static_cast<long long>(s.expected),
                s.loss_plus_zero_pct());
  }
  cluster::JobRequest request;
  request.command = "pmove cluster demo job";
  auto job = cluster.submit_job(
      request, [](core::Daemon& daemon, workload::LiveCounters& live) {
        kernels::KernelSpec spec;
        spec.kind = kernels::KernelKind::kTriad;
        spec.n = 1u << 15;
        spec.iterations = 100;
        return kernels::run_kernel(spec, daemon.knowledge_base().machine(),
                                   &live)
            .seconds;
      });
  if (!job) {
    std::fprintf(stderr, "%s\n", job.status().to_string().c_str());
    return 1;
  }
  std::printf("job %s: %zu nodes, %zu observation tags, %.1f ms\n",
              job->job_id.c_str(), job->nodes.size(),
              job->observation_tags.size(),
              to_seconds(job->end - job->start) * 1e3);
  std::printf("fabric samples: %zu\n",
              cluster.fabric_telemetry().point_count("network_link_bytes"));
  return 0;
}

int cmd_record(int argc, char** argv) {
  auto spec = preset_arg(argc, argv, 2);
  if (!spec || argc < 5) return usage();
  auto kind = kernels::kernel_from_name(argv[3]);
  if (!kind) {
    std::fprintf(stderr, "%s\n", kind.status().to_string().c_str());
    return 1;
  }
  core::Daemon daemon(core::DaemonConfig::from_env());
  if (auto s = daemon.attach_target(*spec); !s.is_ok()) return 1;
  core::ScenarioBRequest request;
  request.command = std::string("pmove record ") + argv[3];
  request.events = {"FLOPS_SCALAR_DP", "TOTAL_MEMORY_OPERATIONS"};
  request.frequency_hz = 40.0;
  const auto& machine = daemon.knowledge_base().machine();
  auto obs = daemon.run_scenario_b(
      request, [&machine, &kind](workload::LiveCounters& live) {
        kernels::KernelSpec spec;
        spec.kind = *kind;
        spec.n = 1u << 17;
        spec.iterations = 400;
        return kernels::run_kernel(spec, machine, &live).seconds;
      });
  if (!obs) {
    std::fprintf(stderr, "%s\n", obs.status().to_string().c_str());
    return 1;
  }
  if (auto s = daemon.save_session(argv[4]); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }
  std::printf("recorded observation %s into %s\n", obs->tag.c_str(),
              argv[4]);
  return 0;
}

int cmd_replay(int argc, char** argv) {
  if (argc < 4) return usage();
  core::Daemon daemon(core::DaemonConfig::from_env());
  if (auto s = daemon.load_session(argv[2], argv[3]); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }
  const auto& kb = daemon.knowledge_base();
  std::printf("recorded session for %s: %zu interfaces, %zu observations, "
              "%zu time-series points\n",
              kb.hostname().c_str(), kb.interfaces().size(),
              kb.observations().size(), daemon.timeseries().point_count());
  for (const auto& obs : kb.observations()) {
    std::printf("\nobservation %s (%s):\n", obs.tag.c_str(),
                obs.command.c_str());
    for (const auto& query : obs.generate_typed_queries()) {
      const std::size_t rows =
          daemon.query_engine()
              .run(query)
              .map([](const tsdb::QueryResult& r) { return r.rows.size(); })
              .value_or(0);
      std::printf("  %s  (%zu rows)\n", query.to_string().c_str(), rows);
    }
  }
  return 0;
}

// Scenario A under a health lens: run a short session (with the ingest tier
// in front of the TSDB), tick the supervisor once, and render the component
// health table.  PMOVE_FAULT makes this the chaos-drill entry point:
//
//   PMOVE_FAULT="tsdb.write_batch=fail:3" pmove health skx
int cmd_health(int argc, char** argv) {
  auto spec = preset_arg(argc, argv, 2);
  if (!spec) return usage();
  const double hz = argc > 3 ? std::atof(argv[3]) : 8.0;
  const int metrics = argc > 4 ? std::atoi(argv[4]) : 4;
  const double seconds = argc > 5 ? std::atof(argv[5]) : 5.0;
  core::DaemonConfig config = core::DaemonConfig::from_env();
  core::Daemon daemon(std::move(config));
  if (auto s = daemon.attach_target(*spec); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }
  if (auto s = daemon.enable_ingest(); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }
  auto result = daemon.run_scenario_a(hz, metrics, seconds);
  if (!result) {
    std::fprintf(stderr, "%s\n", result.status().to_string().c_str());
    return 1;
  }
  std::printf("session: expected %lld, inserted %lld (%%L %.1f)\n",
              static_cast<long long>(result->stats.expected),
              static_cast<long long>(result->stats.inserted),
              result->stats.loss_pct());
  const auto* engine = daemon.ingest();
  const auto stats = engine->stats();
  std::printf("ingest: %llu sink failures, %llu wal failures, %llu parked, "
              "%llu replayed, %llu abandoned\n",
              static_cast<unsigned long long>(stats.sink_failures),
              static_cast<unsigned long long>(stats.wal_failures),
              static_cast<unsigned long long>(stats.parked_points),
              static_cast<unsigned long long>(stats.replayed_points),
              static_cast<unsigned long long>(stats.abandoned_points));
  // One supervisor tick, late enough that freshly failed components (1s
  // initial restart backoff, wall clock) are due.
  const auto tick = daemon.supervise(WallClock().now() + 2 * kNsPerSec);
  if (tick.attempted > 0) {
    std::printf("supervisor: attempted %d restarts, recovered %d\n",
                tick.attempted, tick.recovered);
  }
  std::printf("\n%s", daemon.health().render().c_str());
  if (fault::armed()) {
    std::printf("\nfault points:\n");
    for (const auto& point : fault::stats()) {
      std::printf("  %-20s %-26s triggers %8llu  fires %8llu\n",
                  point.name.c_str(), point.spec.to_string().c_str(),
                  static_cast<unsigned long long>(point.triggers),
                  static_cast<unsigned long long>(point.fires));
    }
  }
  return 0;
}

// Like `pmove health`, but through the metrics registry: run a short
// session, then dump every (measurement, instance, field) counter the
// instrumented tiers reported, plus the auto-generated "P-MoVE internals"
// dashboard rendered from the exported pmove_* series.  The same chaos
// drills apply:
//
//   PMOVE_FAULT="tsdb.write_batch=fail:3" pmove metrics skx
int cmd_metrics(int argc, char** argv) {
  auto spec = preset_arg(argc, argv, 2);
  if (!spec) return usage();
  const double hz = argc > 3 ? std::atof(argv[3]) : 8.0;
  const int metric_count = argc > 4 ? std::atoi(argv[4]) : 4;
  const double seconds = argc > 5 ? std::atof(argv[5]) : 5.0;
  core::Daemon daemon(core::DaemonConfig::from_env());
  if (auto s = daemon.attach_target(*spec); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }
  if (auto s = daemon.enable_ingest(); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }
  auto result = daemon.run_scenario_a(hz, metric_count, seconds);
  if (!result) {
    std::fprintf(stderr, "%s\n", result.status().to_string().c_str());
    return 1;
  }
  std::printf("%s", metrics::Registry::global().render().c_str());
  auto internals = dashboard::ViewBuilder(&daemon.knowledge_base())
                       .internals_view();
  if (internals) {
    std::printf("\n%s",
                dashboard::render_dashboard(*internals, daemon.timeseries())
                    .c_str());
  } else {
    std::fprintf(stderr, "internals view unavailable: %s\n",
                 internals.status().to_string().c_str());
  }
  return 0;
}

// Head-to-head of the seed write path (one TimeSeriesDb::write per point)
// against the ingest engine (sharded queues + write_batch), over the same
// synthetic point stream.
// Builds one producer's worth of sampler-shaped points.  Each producer owns a
// disjoint set of hosts so the two runs ingest identical series sets.
std::vector<tsdb::Point> ingest_bench_stream(std::size_t producer,
                                             std::size_t count) {
  std::vector<tsdb::Point> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tsdb::Point point;
    point.measurement = "hw_UNHALTED_CORE_CYCLES";
    point.tags["host"] = "node" + std::to_string(producer * 16 + i % 16);
    point.time = static_cast<TimeNs>(i) * 1'000'000;
    for (int f = 0; f < 4; ++f) {
      point.fields["_cpu" + std::to_string(f)] =
          static_cast<double>((i * 37 + static_cast<std::size_t>(f)) % 9973);
    }
    stream.push_back(std::move(point));
  }
  return stream;
}

int cmd_ingest_bench(int argc, char** argv) {
  // --fault <spec> arms fault injection for the engine phase only (the
  // per-point baseline has no resilience tier to exercise): injected sink
  // errors show up as throughput degradation, never as lost points — the
  // point-count equality check below still has to hold.
  std::string fault_spec;
  std::vector<char*> args(argv, argv + argc);
  for (std::size_t i = 2; i < args.size();) {
    if (std::strcmp(args[i], "--fault") == 0 && i + 1 < args.size()) {
      fault_spec = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else {
      ++i;
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  // Default kept modest: the seed per-point path degrades quadratically on
  // the interleaved timestamps concurrent producers generate, so large point
  // counts mostly measure that pathology for minutes.
  const std::size_t total = argc > 2
                                ? static_cast<std::size_t>(std::atoll(argv[2]))
                                : 50'000;
  if (total == 0) {
    std::fprintf(stderr,
                 "ingest-bench: <points> must be a positive number, got "
                 "'%s'\n",
                 argv[2]);
    return 2;
  }
  const int shards = argc > 3
                         ? std::max(1, std::atoi(argv[3]))
                         : static_cast<int>(std::min(
                               8u, std::max(2u,
                                            std::thread::hardware_concurrency() /
                                                2)));
  const std::size_t batch_size =
      argc > 4 ? static_cast<std::size_t>(std::atoll(argv[4])) : 512;
  const std::size_t producers =
      argc > 5 ? std::max<std::size_t>(1, static_cast<std::size_t>(
                                              std::atoll(argv[5])))
               : static_cast<std::size_t>(shards);
  const std::size_t per_producer = total / producers;

  using Clock = std::chrono::steady_clock;

  // Baseline: the seed write path.  Concurrent samplers all call
  // TimeSeriesDb::write once per point against the single shared instance.
  tsdb::TimeSeriesDb baseline_db;
  double base_s = 0.0;
  {
    std::vector<std::vector<tsdb::Point>> streams;
    for (std::size_t p = 0; p < producers; ++p) {
      streams.push_back(ingest_bench_stream(p, per_producer));
    }
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&baseline_db, &stream = streams[p]] {
        for (tsdb::Point& point : stream) {
          (void)baseline_db.write(std::move(point));
        }
      });
    }
    for (auto& t : threads) t.join();
    base_s = std::chrono::duration<double>(Clock::now() - start).count();
  }

  // Engine: the same producers hand batches to the sharded ingest tier.
  if (!fault_spec.empty()) {
    if (Status s = fault::arm_from_spec(fault_spec); !s.is_ok()) {
      std::fprintf(stderr, "--fault rejected: %s\n", s.to_string().c_str());
      return 2;
    }
  }
  ingest::IngestOptions options;
  options.shard_count = shards;
  options.queue_capacity = 256;
  options.policy = ingest::BackpressurePolicy::kBlock;
  // Short cooldown so an injected outage costs milliseconds of parking,
  // not the default 250 ms per breaker trip.
  options.sink_breaker.open_cooldown_ns = 20'000'000;
  ingest::IngestEngine engine(options);
  if (auto s = engine.open(); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }
  double engine_s = 0.0;
  {
    std::vector<std::vector<tsdb::Point>> streams;
    for (std::size_t p = 0; p < producers; ++p) {
      streams.push_back(ingest_bench_stream(p, per_producer));
    }
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&engine, &stream = streams[p], batch_size] {
        for (std::size_t begin = 0; begin < stream.size();
             begin += batch_size) {
          const std::size_t end = std::min(stream.size(), begin + batch_size);
          std::vector<tsdb::Point> batch(
              std::make_move_iterator(stream.begin() +
                                      static_cast<std::ptrdiff_t>(begin)),
              std::make_move_iterator(stream.begin() +
                                      static_cast<std::ptrdiff_t>(end)));
          (void)engine.submit(std::move(batch));
        }
      });
    }
    for (auto& t : threads) t.join();
    (void)engine.flush();
    engine_s = std::chrono::duration<double>(Clock::now() - start).count();
  }

  if (engine.point_count() != baseline_db.point_count()) {
    std::fprintf(stderr, "point count mismatch: engine %zu vs baseline %zu\n",
                 engine.point_count(), baseline_db.point_count());
    return 1;
  }

  const double written = static_cast<double>(per_producer * producers);
  const double base_tput = written / base_s;
  const double engine_tput = written / engine_s;
  std::printf("points: %zu   shards: %d   batch: %zu   producers: %zu\n",
              per_producer * producers, shards, batch_size, producers);
  std::printf("%-34s %10.2fs %12.0f points/s\n",
              "per-point TimeSeriesDb::write", base_s, base_tput);
  std::printf("%-34s %10.2fs %12.0f points/s\n", "ingest engine (batched)",
              engine_s, engine_tput);
  std::printf("speedup: %.1fx\n", engine_tput / base_tput);
  const auto stats = engine.stats();
  std::printf("engine: %llu batches, max queue depth %zu, %llu blocked\n",
              static_cast<unsigned long long>(stats.submitted_batches),
              stats.max_queue_depth,
              static_cast<unsigned long long>(stats.blocked_submits));
  if (!fault_spec.empty()) {
    std::printf("faults: %llu sink failures -> %llu points parked, "
                "%llu replayed, 0 lost\n",
                static_cast<unsigned long long>(stats.sink_failures),
                static_cast<unsigned long long>(stats.parked_points),
                static_cast<unsigned long long>(stats.replayed_points));
    for (const auto& point : fault::stats()) {
      std::printf("  %-20s %-26s fired %llu of %llu triggers\n",
                  point.name.c_str(), point.spec.to_string().c_str(),
                  static_cast<unsigned long long>(point.fires),
                  static_cast<unsigned long long>(point.triggers));
    }
    fault::disarm_all();
  }
  engine.close();
  return 0;
}

// Parallel-execution spot check: the interactive face of
// bench/ablation_query (same harness, no JSON artifact), narrowed to one
// (threads, series) cell plus its single-thread parity baseline.
int cmd_query_bench_parallel(int argc, char** argv) {
  query::QueryBenchConfig config;
  std::size_t threads = 0;
  std::size_t series = 0;
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      threads = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--series") == 0) {
      series = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--points") == 0) {
      config.total_points = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    }
  }
  if (threads == 0 && series == 0) return usage();
  if (series != 0) config.series_counts = {series};
  if (threads <= 1) {
    config.threads = {1};
  } else {
    config.threads = {1, threads};  // 1 stays in: the parity baseline
  }
  const auto result = query::run_query_bench(config);
  query::print_report(result);
  return result.all_ok() ? 0 : 1;
}

// Head-to-head of the read paths over dashboard-shaped queries: the seed
// string path (reparse + rescan every refresh), the typed path (prebuilt
// Query, rescan every refresh), and the query engine (prebuilt Query +
// epoch-keyed result cache).  Background producers batch-write into their
// own measurements the whole time, so every path also contends with live
// ingestion through the DB's shared_mutex — the recorded-observation
// dashboard shape, where refreshed panels aren't the series being written.
// With --threads/--series it instead runs the parallel-evaluator sweep
// (cmd_query_bench_parallel above).
int cmd_query_bench(int argc, char** argv) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 ||
        std::strcmp(argv[i], "--series") == 0) {
      return cmd_query_bench_parallel(argc, argv);
    }
  }
  const std::size_t panels =
      argc > 2 ? std::max<std::size_t>(
                     1, static_cast<std::size_t>(std::atoll(argv[2])))
               : 16;
  const std::size_t refreshes =
      argc > 3 ? std::max<std::size_t>(
                     1, static_cast<std::size_t>(std::atoll(argv[3])))
               : 100;
  const std::size_t total_points =
      argc > 4 ? std::max<std::size_t>(
                     panels, static_cast<std::size_t>(std::atoll(argv[4])))
               : 100'000;
  const std::size_t producers =
      argc > 5 ? static_cast<std::size_t>(std::atoll(argv[5])) : 2;
  const std::size_t per_panel = total_points / panels;

  tsdb::TimeSeriesDb db;
  for (std::size_t p = 0; p < panels; ++p) {
    std::vector<tsdb::Point> batch;
    batch.reserve(per_panel);
    for (std::size_t i = 0; i < per_panel; ++i) {
      tsdb::Point point;
      point.measurement = "hw_PANEL_EVENT_" + std::to_string(p);
      point.tags["tag"] = "bench";
      point.time = static_cast<TimeNs>(i) * 50'000'000;  // 20 Hz sampling
      for (int f = 0; f < 4; ++f) {
        point.fields["_cpu" + std::to_string(f)] =
            static_cast<double>((i * 31 + static_cast<std::size_t>(f)) % 997);
      }
      batch.push_back(std::move(point));
    }
    if (auto s = db.write_batch(std::move(batch)); !s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
  }

  // The queries a KB-generated dashboard refreshes: raw Listing-3 panels
  // (SELECT * ... WHERE tag=...) alternating with Grafana-style downsample
  // panels (mean over GROUP BY time(1s) windows).
  std::vector<std::string> texts;
  std::vector<query::Query> queries;
  for (std::size_t p = 0; p < panels; ++p) {
    query::QueryBuilder builder("hw_PANEL_EVENT_" + std::to_string(p));
    if (p % 2 == 0) {
      builder.select_all();
    } else {
      for (int f = 0; f < 4; ++f) {
        builder.select(query::Aggregate::kMean, "_cpu" + std::to_string(f));
      }
      builder.group_by_time(kNsPerSec);
    }
    builder.where_tag("tag", "bench");
    query::Query q = std::move(builder).build();
    texts.push_back(q.to_string());
    queries.push_back(std::move(q));
  }

  // Each path refreshes every panel `refreshes` times while producers
  // batch-write into their own measurements (refreshed panels stay
  // cache-valid while writers contend for the lock — the recorded-
  // observation dashboard shape).  Producers start fresh and their series
  // are dropped per section, so all three paths run against identical DB
  // state despite running back to back.
  using Clock = std::chrono::steady_clock;
  std::uint64_t produced_total = 0;
  const auto run_section = [&](auto&& run_one) {
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> produced{0};
    std::vector<std::thread> writers;
    for (std::size_t p = 0; p < producers; ++p) {
      writers.emplace_back([&db, &stop, &produced, p] {
        std::size_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          std::vector<tsdb::Point> batch;
          batch.reserve(256);
          for (std::size_t j = 0; j < 256; ++j, ++i) {
            tsdb::Point point;
            point.measurement = "sw_live_ingest_" + std::to_string(p);
            point.time = static_cast<TimeNs>(i) * 1'000'000;
            point.fields["value"] = static_cast<double>(i % 1013);
            batch.push_back(std::move(point));
          }
          (void)db.write_batch(std::move(batch));
          produced.fetch_add(256, std::memory_order_relaxed);
          // Sampler-shaped cadence: batches arrive periodically, they
          // don't spin on the write lock.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    std::size_t rows = 0;
    const auto start = Clock::now();
    for (std::size_t r = 0; r < refreshes; ++r) {
      for (std::size_t p = 0; p < panels; ++p) rows += run_one(p);
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    stop.store(true);
    for (auto& t : writers) t.join();
    produced_total += produced.load();
    for (std::size_t p = 0; p < producers; ++p) {
      (void)db.drop_measurement("sw_live_ingest_" + std::to_string(p));
    }
    return std::make_pair(seconds, rows);
  };

  const auto [string_s, string_rows] = run_section([&](std::size_t p) {
    return query::run(db, texts[p])
        .map([](const tsdb::QueryResult& r) { return r.rows.size(); })
        .value_or(0);
  });
  const auto [typed_s, typed_rows] = run_section([&](std::size_t p) {
    return query::run(db, queries[p])
        .map([](const tsdb::QueryResult& r) { return r.rows.size(); })
        .value_or(0);
  });
  query::QueryEngine engine(db);
  const auto [cached_s, cached_rows] = run_section([&](std::size_t p) {
    return engine.run(queries[p])
        .map([](const tsdb::QueryResult& r) { return r.rows.size(); })
        .value_or(0);
  });

  if (string_rows != typed_rows || typed_rows != cached_rows) {
    std::fprintf(stderr, "row mismatch: string %zu typed %zu cached %zu\n",
                 string_rows, typed_rows, cached_rows);
    return 1;
  }

  const double executed = static_cast<double>(panels * refreshes);
  const auto report = [executed](const char* label, double seconds) {
    std::printf("%-34s %9.3fs %12.0f queries/s\n", label, seconds,
                executed / seconds);
  };
  std::printf("panels: %zu   refreshes: %zu   points/panel: %zu   "
              "producers: %zu\n",
              panels, refreshes, per_panel, producers);
  report("string path (reparse + rescan)", string_s);
  report("typed Query (rescan)", typed_s);
  report("query engine (result cache)", cached_s);
  std::printf("typed vs string (cache-cold): %.2fx\n", string_s / typed_s);
  std::printf("engine vs string (cache-warm): %.1fx\n", string_s / cached_s);
  const auto stats = engine.stats();
  std::printf("engine: %llu queries, %llu hits, %llu misses; "
              "%llu points ingested concurrently\n",
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              static_cast<unsigned long long>(produced_total));
  return 0;
}

// Columnar engine vs the seed row store on one multi-tag-set workload:
// the interactive face of bench/ablation_storage (same harness, no JSON
// artifact) for spot-checking the storage numbers on a new machine.
int cmd_storage_bench(int argc, char** argv) {
  query::StorageBenchConfig config;
  int arg = 2;
  if (arg < argc && std::strcmp(argv[arg], "--packed") == 0) {
    config.packed_phase = true;
    ++arg;
  }
  if (arg < argc) {
    config.points = static_cast<std::size_t>(std::atoll(argv[arg++]));
  }
  if (arg < argc) {
    config.tagsets = static_cast<std::size_t>(std::atoll(argv[arg++]));
  }
  if (arg < argc) {
    config.fields = static_cast<std::size_t>(std::atoll(argv[arg++]));
  }
  if (config.points == 0 || config.tagsets == 0 || config.fields == 0) {
    return usage();
  }
  const auto result = query::run_storage_bench(config);
  query::print_report(result);
  if (result.packed_ran && !result.packed_parity_ok) return 1;
  return result.parity_ok ? 0 : 1;
}

// Fleet execution tier end to end: N nodes behind the consistent-hash
// router, synthetic series sharded across them, an exact gather and a
// pushdown gather, then chaos — kill one node, show the degraded result
// with nodes_missing, let gossip age the silence into fleet-wide
// suspicion, and revive the victim to show recovery.  With --wire every
// node sits behind its own loopback TCP server and all traffic crosses
// real sockets.  PMOVE_FLEET_* knobs set the defaults.
int cmd_fleet(int argc, char** argv) {
  auto options = fleet::FleetOptions::from_env();
  int arg = 2;
  if (arg < argc && std::strcmp(argv[arg], "--wire") == 0) {
    options.wire.enabled = true;
    ++arg;
  }
  int node_count = options.default_nodes;
  std::size_t series = 64;
  std::size_t per_series = 40;
  if (arg < argc) node_count = std::atoi(argv[arg++]);
  if (arg < argc) series = static_cast<std::size_t>(std::atoll(argv[arg++]));
  if (arg < argc) {
    per_series = static_cast<std::size_t>(std::atoll(argv[arg++]));
  }
  if (node_count < 1 || series == 0 || per_series == 0) return usage();

  fleet::Fleet f(options);
  for (int i = 0; i < node_count; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "node-%02d", i + 1);
    if (Status s = f.add_node(name); !s.is_ok()) {
      std::fprintf(stderr, "add_node: %s\n", s.to_string().c_str());
      return 1;
    }
  }
  if (f.wire_enabled()) {
    std::printf("wire: loopback TCP transport\n");
    for (const auto& name : f.nodes()) {
      auto server = f.server(name);
      if (server) {
        std::printf("  %-10s %s:%d\n", name.c_str(),
                    (*server)->host().c_str(), (*server)->port());
      }
    }
  }

  std::vector<tsdb::Point> batch;
  batch.reserve(series * per_series);
  for (std::size_t t = 0; t < per_series; ++t) {
    for (std::size_t s = 0; s < series; ++s) {
      tsdb::Point point;
      point.measurement = "fleet_demo";
      char id[24];
      std::snprintf(id, sizeof(id), "s-%04zu", s);
      point.tags["series"] = id;
      point.time = static_cast<TimeNs>(t + 1) * 1'000'000;
      point.fields["value"] =
          static_cast<double>(s) + static_cast<double>(t) * 0.01;
      batch.push_back(std::move(point));
    }
  }
  if (Status s = f.write_batch(std::move(batch)); !s.is_ok()) {
    std::fprintf(stderr, "write_batch: %s\n", s.to_string().c_str());
    return 1;
  }
  if (Status s = f.flush(); !s.is_ok()) {
    std::fprintf(stderr, "flush: %s\n", s.to_string().c_str());
    return 1;
  }

  std::printf("fleet: %d nodes, %zu series x %zu points, %zu stored\n",
              node_count, series, per_series, f.point_count());
  for (const auto& name : f.nodes()) {
    auto node = f.node(name);
    if (node) std::printf("  %-10s %8zu points\n", name.c_str(),
                          (*node)->point_count());
  }

  TimeNs now = from_seconds(1.0);
  for (int round = 0; round < 3; ++round) {
    now += from_seconds(1.0);
    f.tick(now);
  }

  const auto show = [](const char* label,
                       const Expected<fleet::FleetQueryResult>& r) {
    if (!r) {
      std::printf("%-18s error: %s\n", label, r.status().to_string().c_str());
      return;
    }
    std::printf("%-18s", label);
    const auto& qr = r->result;
    for (std::size_t c = 1; c < qr.columns.size(); ++c) {
      std::printf(" %s=%.4f", qr.columns[c].c_str(),
                  qr.rows.empty() ? 0.0 : qr.rows.front()[c]);
    }
    std::printf("  [%zu rows, %zu/%zu nodes%s]", qr.rows.size(),
                r->nodes_with_data, r->nodes_queried,
                r->pushdown ? ", pushdown" : "");
    if (r->degraded()) {
      std::printf("  MISSING:");
      for (const auto& n : r->nodes_missing) std::printf(" %s", n.c_str());
    }
    std::printf("\n");
  };

  show("exact gather", f.query("SELECT mean(\"value\"), stddev(\"value\") "
                               "FROM \"fleet_demo\""));
  show("pushdown gather",
       f.query("SELECT min(\"value\"), max(\"value\"), count(\"value\") "
               "FROM \"fleet_demo\""));

  // Chaos: the first node goes dark (with --wire its socket server is
  // actually stopped).  Queries keep answering — degraded, and saying so —
  // and gossip ages the silence into suspicion.
  const std::string victim = f.nodes().front();
  if (Status s = f.kill_node(victim); !s.is_ok()) {
    std::fprintf(stderr, "kill_node: %s\n", s.to_string().c_str());
    return 1;
  }
  std::printf("\nchaos: %s down\n", victim.c_str());
  show("degraded gather",
       f.query("SELECT count(\"value\") FROM \"fleet_demo\""));

  now += from_seconds(to_seconds(f.gossip().suspect_after_ns()) + 1.0);
  f.tick(now);
  std::printf("\n%s", f.render_health(now).c_str());

  // Recovery: the victim rejoins (with --wire: fresh port, transport
  // redials) and the gather covers the full fleet again.
  if (Status s = f.revive_node(victim); !s.is_ok()) {
    std::fprintf(stderr, "revive_node: %s\n", s.to_string().c_str());
    return 1;
  }
  std::printf("\nrecovery: %s back\n", victim.c_str());
  show("recovered gather",
       f.query("SELECT count(\"value\") FROM \"fleet_demo\""));

  if (f.wire_enabled()) {
    auto& reg = metrics::Registry::global();
    std::printf(
        "\nwire: %llu frames sent, %llu received, %llu reconnects, "
        "%llu timeouts\n",
        static_cast<unsigned long long>(
            reg.counter(metrics::kMeasurementWire, "transport", "frames_sent")
                .value()),
        static_cast<unsigned long long>(
            reg.counter(metrics::kMeasurementWire, "transport", "frames_recv")
                .value()),
        static_cast<unsigned long long>(
            reg.counter(metrics::kMeasurementWire, "transport", "reconnects")
                .value()),
        static_cast<unsigned long long>(
            reg.counter(metrics::kMeasurementWire, "transport", "timeouts")
                .value()));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "probe") return cmd_probe(argc, argv);
  if (command == "tree") return cmd_tree(argc, argv);
  if (command == "kb") return cmd_kb(argc, argv);
  if (command == "events") return cmd_events(argc, argv);
  if (command == "get") return cmd_get(argc, argv);
  if (command == "scenario-a") return cmd_scenario_a(argc, argv);
  if (command == "scenario-b") return cmd_scenario_b(argc, argv);
  if (command == "carm") return cmd_carm(argc, argv);
  if (command == "bench") return cmd_bench(argc, argv);
  if (command == "triples") return cmd_triples(argc, argv);
  if (command == "anomaly") return cmd_anomaly(argc, argv);
  if (command == "cluster") return cmd_cluster(argc, argv);
  if (command == "record") return cmd_record(argc, argv);
  if (command == "replay") return cmd_replay(argc, argv);
  if (command == "health") return cmd_health(argc, argv);
  if (command == "metrics") return cmd_metrics(argc, argv);
  if (command == "ingest-bench") return cmd_ingest_bench(argc, argv);
  if (command == "query-bench") return cmd_query_bench(argc, argv);
  if (command == "storage-bench") return cmd_storage_bench(argc, argv);
  if (command == "fleet") return cmd_fleet(argc, argv);
  return usage();
}
