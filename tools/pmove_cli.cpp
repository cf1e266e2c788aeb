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
//   pmove fleet [--wire] [nodes] [series] [points]  execution-tier demo + chaos
#include <cstdio>
#include <cstring>
#include <string>
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
  if (command == "fleet") return cmd_fleet(argc, argv);
  return usage();
}
