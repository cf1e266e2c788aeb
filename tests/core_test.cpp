#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/daemon.hpp"
#include "core/pinning.hpp"
#include "dashboard/views.hpp"
#include "ingest/wal.hpp"
#include "kernels/kernels.hpp"
#include "query/plan.hpp"

namespace pmove::core {
namespace {

// ---------------------------------------------------------------- pinning

class PinningTest : public ::testing::Test {
 protected:
  topology::MachineSpec skx_ = topology::machine_preset("skx").value();
};

TEST_F(PinningTest, BalancedSpreadsAcrossSockets) {
  auto cpus = pin_cpus(skx_, PinStrategy::kBalanced, 4);
  ASSERT_TRUE(cpus.has_value());
  // Round-robin over sockets: core 0 (s0), core 22 (s1), core 1, core 23.
  EXPECT_EQ(*cpus, (std::vector<int>{0, 22, 1, 23}));
}

TEST_F(PinningTest, CompactFillsFirstSocket) {
  auto cpus = pin_cpus(skx_, PinStrategy::kCompact, 4);
  ASSERT_TRUE(cpus.has_value());
  EXPECT_EQ(*cpus, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(PinningTest, CompactUsesSmtBeforeSecondSocket) {
  auto cpus = pin_cpus(skx_, PinStrategy::kCompact, 24);
  ASSERT_TRUE(cpus.has_value());
  EXPECT_EQ(cpus->at(21), 21);   // last physical core of socket 0
  EXPECT_EQ(cpus->at(22), 44);   // SMT sibling of core 0
  EXPECT_EQ(cpus->at(23), 45);
}

TEST_F(PinningTest, BalancedUsesAllPhysicalCoresBeforeSmt) {
  auto cpus = pin_cpus(skx_, PinStrategy::kBalanced, 46);
  ASSERT_TRUE(cpus.has_value());
  // First 44 entries are physical cores (< 44), then SMT siblings.
  for (int i = 0; i < 44; ++i) EXPECT_LT(cpus->at(i), 44);
  EXPECT_GE(cpus->at(44), 44);
}

TEST_F(PinningTest, NumaVariantsEqualSocketVariantsOnOneNumaPerSocket) {
  // skx preset has one NUMA node per socket.
  EXPECT_EQ(*pin_cpus(skx_, PinStrategy::kBalanced, 8),
            *pin_cpus(skx_, PinStrategy::kNumaBalanced, 8));
  EXPECT_EQ(*pin_cpus(skx_, PinStrategy::kCompact, 8),
            *pin_cpus(skx_, PinStrategy::kNumaCompact, 8));
}

TEST_F(PinningTest, AllCpusUniqueAtFullSubscription) {
  for (auto strategy : {PinStrategy::kBalanced, PinStrategy::kCompact}) {
    auto cpus = pin_cpus(skx_, strategy, 88);
    ASSERT_TRUE(cpus.has_value());
    std::set<int> unique(cpus->begin(), cpus->end());
    EXPECT_EQ(unique.size(), 88u);
    EXPECT_EQ(*unique.begin(), 0);
    EXPECT_EQ(*unique.rbegin(), 87);
  }
}

TEST_F(PinningTest, Validation) {
  EXPECT_FALSE(pin_cpus(skx_, PinStrategy::kBalanced, 0).has_value());
  EXPECT_FALSE(pin_cpus(skx_, PinStrategy::kBalanced, 89).has_value());
}

TEST(PinStrategyTest, Names) {
  EXPECT_EQ(to_string(PinStrategy::kNumaBalanced), "numa balanced");
  EXPECT_EQ(*pin_strategy_from_name("balanced"), PinStrategy::kBalanced);
  EXPECT_EQ(*pin_strategy_from_name("numa_compact"),
            PinStrategy::kNumaCompact);
  EXPECT_FALSE(pin_strategy_from_name("scatter").has_value());
}

// ----------------------------------------------------------------- daemon

TEST(DaemonConfigTest, EnvOverrides) {
  auto config = DaemonConfig::from_env(
      {{"PMOVE_INFLUX_HOST", "10.0.0.1:8086"},
       {"PMOVE_GRAFANA_TOKEN", "tok"}});
  EXPECT_EQ(config.influx_host, "10.0.0.1:8086");
  EXPECT_EQ(config.grafana_token, "tok");
  EXPECT_EQ(config.mongo_host, "127.0.0.1:27017");  // default kept
}

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(daemon_.attach_target("icl").is_ok());
  }
  Daemon daemon_;
};

TEST_F(DaemonTest, AttachBuildsAndStoresKb) {
  EXPECT_TRUE(daemon_.attached());
  EXPECT_EQ(daemon_.knowledge_base().hostname(), "icl");
  // Step 3: KB landed in the document store.
  EXPECT_GT(daemon_.documents().count("kb"), 0u);
  EXPECT_EQ(daemon_.documents().count("kb_meta"), 1u);
}

TEST_F(DaemonTest, AttachUnknownPresetFails) {
  Daemon fresh;
  EXPECT_FALSE(fresh.attach_target("cray").is_ok());
  EXPECT_FALSE(fresh.attached());
}

TEST_F(DaemonTest, ResolveGenericEvents) {
  auto events = daemon_.resolve_events({"TOTAL_MEMORY_OPERATIONS"}, true);
  ASSERT_TRUE(events.has_value());
  EXPECT_EQ(*events,
            (std::vector<std::string>{"MEM_INST_RETIRED:ALL_LOADS",
                                      "MEM_INST_RETIRED:ALL_STORES"}));
  // Raw names pass through untouched.
  auto raw = daemon_.resolve_events({"ANYTHING"}, false);
  EXPECT_EQ(raw->front(), "ANYTHING");
  // Unsupported generics are skipped, not fatal — unless nothing remains.
  auto none = daemon_.resolve_events({}, true);
  EXPECT_FALSE(none.has_value());
}

TEST_F(DaemonTest, ScenarioAProducesStatsAndDashboard) {
  auto result = daemon_.run_scenario_a(8.0, 4, 5.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->stats.expected, 0);
  EXPECT_GT(result->stats.inserted, 0);
  EXPECT_FALSE(result->dashboard.panels.empty());
  EXPECT_GT(daemon_.timeseries().point_count(), 0u);
  EXPECT_FALSE(daemon_.run_scenario_a(0, 4, 5).has_value());
}

TEST_F(DaemonTest, InternalsObservationAndDashboard) {
  // Attach registered the "pmove-internals" self-telemetry observation.
  auto obs = daemon_.knowledge_base().find_observation("pmove-internals");
  ASSERT_TRUE(obs.has_value()) << obs.status().to_string();
  EXPECT_FALSE(obs->metrics.empty());
  // The internals dashboard auto-generates from that KB entry: one panel
  // per pmove_* measurement.
  dashboard::ViewBuilder builder(&daemon_.knowledge_base());
  auto internals = builder.internals_view();
  ASSERT_TRUE(internals.has_value()) << internals.status().to_string();
  EXPECT_EQ(internals->title, "P-MoVE internals");
  EXPECT_EQ(internals->panels.size(), obs->metrics.size());
  // publish_internals() lands registry snapshots in the TSDB as pmove_*
  // measurements (the daemon's own DocumentStore registered pmove_docdb
  // handles at construction, so that group always exists).
  ASSERT_TRUE(daemon_.publish_internals(from_seconds(1.0)).is_ok());
  auto result = query::run(daemon_.timeseries(),
                           "SELECT \"inserts\" FROM \"pmove_docdb\"");
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  EXPECT_FALSE(result->rows.empty());
}

TEST_F(DaemonTest, ScenarioBProfilesWorkloadEndToEnd) {
  ScenarioBRequest request;
  request.command = "./triad 65536";
  request.events = {"FLOPS_SCALAR_DP", "TOTAL_MEMORY_OPERATIONS"};
  request.frequency_hz = 50.0;
  request.threads = 1;
  const auto& machine = daemon_.knowledge_base().machine();
  auto obs = daemon_.run_scenario_b(
      request, [&machine](workload::LiveCounters& live) {
        kernels::KernelSpec spec;
        spec.kind = kernels::KernelKind::kTriad;
        spec.n = 1u << 15;
        spec.iterations = 30;
        return kernels::run_kernel(spec, machine, &live).seconds;
      });
  ASSERT_TRUE(obs.has_value()) << obs.status().to_string();
  EXPECT_FALSE(obs->tag.empty());
  EXPECT_EQ(obs->host, "icl");
  EXPECT_EQ(obs->affinity, "balanced");
  EXPECT_EQ(obs->cpus, std::vector<int>{0});
  EXPECT_GT(obs->end, obs->start);
  // The report was generated on the fly (Listing 2).
  EXPECT_TRUE(obs->report.find("wall_seconds") != nullptr);
  EXPECT_GT(obs->report.find("samples")->as_int(), 0);
  // Observation appended to the KB and stored, alongside the standing
  // "pmove-internals" self-telemetry observation registered at attach.
  EXPECT_EQ(daemon_.knowledge_base().observations().size(), 2u);
  EXPECT_EQ(daemon_.documents().count("observations"), 2u);
  // Generated queries replay data from the TSDB (Listing 3).
  auto queries = obs->generate_queries();
  ASSERT_FALSE(queries.empty());
  int with_rows = 0;
  for (const auto& query : queries) {
    auto result = pmove::query::run(daemon_.timeseries(), query);
    if (result.has_value() && !result->rows.empty()) ++with_rows;
  }
  EXPECT_GT(with_rows, 0);
}


TEST_F(DaemonTest, ScenarioBInstantiatesProcessInterface) {
  ScenarioBRequest request;
  request.command = "./triad 4096";
  request.events = {"FLOPS_SCALAR_DP"};
  request.frequency_hz = 100.0;
  const auto& machine = daemon_.knowledge_base().machine();
  auto obs = daemon_.run_scenario_b(
      request, [&machine](workload::LiveCounters& live) {
        kernels::KernelSpec spec;
        spec.kind = kernels::KernelKind::kSum;
        spec.n = 1u << 12;
        spec.iterations = 5;
        return kernels::run_kernel(spec, machine, &live).seconds;
      });
  ASSERT_TRUE(obs.has_value());
  // The run registered a fresh ProcessInterface and linked it in the report.
  ASSERT_EQ(daemon_.knowledge_base().processes().size(), 1u);
  const auto& process = daemon_.knowledge_base().processes().front();
  EXPECT_EQ(process.spec.command, "./triad 4096");
  EXPECT_EQ(process.spec.name, "./triad");
  const json::Value* linked = obs->report.find("process");
  ASSERT_NE(linked, nullptr);
  EXPECT_EQ(linked->as_string(), process.dtmi);
}

TEST_F(DaemonTest, RunBenchmarkStreamAndHpcg) {
  auto stream = daemon_.run_benchmark("stream");
  ASSERT_TRUE(stream.has_value()) << stream.status().to_string();
  EXPECT_EQ(*stream, 1);
  auto hpcg = daemon_.run_benchmark("HPCG");
  ASSERT_TRUE(hpcg.has_value());
  auto carm = daemon_.run_benchmark("CARM");
  ASSERT_TRUE(carm.has_value());
  EXPECT_GT(*carm, 4);  // several ISA x thread combinations
  // All entries landed in the KB and the store.
  auto stream_entry = daemon_.knowledge_base().find_benchmark("STREAM");
  ASSERT_TRUE(stream_entry.has_value());
  EXPECT_EQ(stream_entry->results.size(), 4u);
  EXPECT_GT(stream_entry->results[0].value, 0.0);
  auto hpcg_entry = daemon_.knowledge_base().find_benchmark("HPCG");
  ASSERT_TRUE(hpcg_entry.has_value());
  EXPECT_GT(daemon_.documents().count("benchmarks"),
            static_cast<std::size_t>(*carm));
  EXPECT_FALSE(daemon_.run_benchmark("LINPACK").has_value());
}

TEST_F(DaemonTest, DashboardSaveLoadRoundTrip) {
  dashboard::Dashboard dash;
  dash.id = 9;
  dash.title = "my edited dashboard";
  dashboard::Panel panel;
  panel.id = 1;
  dashboard::Target target;
  target.measurement = "m";
  target.params = "_cpu0";
  panel.targets.push_back(target);
  dash.panels.push_back(panel);
  ASSERT_TRUE(daemon_.save_dashboard("edited", dash).is_ok());
  auto loaded = daemon_.load_dashboard("edited");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->title, "my edited dashboard");
  EXPECT_EQ(loaded->panels.size(), 1u);
  EXPECT_EQ(daemon_.saved_dashboards(),
            std::vector<std::string>{"edited"});
  EXPECT_FALSE(daemon_.load_dashboard("ghost").has_value());
  // Saving again under the same name replaces (user edits persist).
  dash.title = "v2";
  ASSERT_TRUE(daemon_.save_dashboard("edited", dash).is_ok());
  EXPECT_EQ(daemon_.load_dashboard("edited")->title, "v2");
  EXPECT_EQ(daemon_.saved_dashboards().size(), 1u);
}

TEST(DaemonRetentionTest, DropsOldPoints) {
  DaemonConfig config;
  config.retention_ns = from_seconds(2.0);
  Daemon daemon(config);
  ASSERT_TRUE(daemon.attach_target("icl").is_ok());
  ASSERT_TRUE(daemon.run_scenario_a(8.0, 2, 5.0).has_value());
  const std::size_t before = daemon.timeseries().point_count();
  ASSERT_GT(before, 0u);
  // Enforce at t = 10s: only the last 2 seconds survive.
  const std::size_t dropped = daemon.enforce_retention(from_seconds(10.0));
  EXPECT_GT(dropped, 0u);
  EXPECT_LT(daemon.timeseries().point_count(), before);
}

TEST(DaemonUnattachedTest, OperationsFailGracefully) {
  Daemon daemon;
  EXPECT_FALSE(daemon.run_scenario_a(1, 1, 1).has_value());
  EXPECT_FALSE(daemon.sync_kb().is_ok());
  ScenarioBRequest request;
  request.events = {"FLOPS_SCALAR_DP"};
  auto result = daemon.run_scenario_b(
      request, [](workload::LiveCounters&) { return 0.0; });
  EXPECT_FALSE(result.has_value());
}

TEST(DaemonZen3Test, Avx512GenericSkippedOnAmd) {
  Daemon daemon;
  ASSERT_TRUE(daemon.attach_target("zen3").is_ok());
  auto events = daemon.resolve_events(
      {"FLOPS_AVX512_DP", "FLOPS_SCALAR_DP"}, true);
  ASSERT_TRUE(events.has_value());
  // AVX-512 is unsupported on zen3 — only the scalar mapping remains.
  EXPECT_EQ(*events, std::vector<std::string>{"RETIRED_SSE_AVX_FLOPS:ANY"});
  // Only unsupported events -> error.
  EXPECT_FALSE(daemon.resolve_events({"FLOPS_AVX512_DP"}, true).has_value());
}

// --------------------------------------------------------- self-telemetry

tsdb::Point make_point(const std::string& measurement, const std::string& host,
                       TimeNs t, double value) {
  tsdb::Point p;
  p.measurement = measurement;
  p.tags["host"] = host;
  p.time = t;
  p.fields["value"] = value;
  return p;
}

/// The latest row of `SELECT <fields> FROM <measurement> WHERE
/// instance=<instance>` over `db`, as (field -> value); fields the result
/// lacks are left out.
std::map<std::string, double> exported_row(
    const tsdb::TimeSeriesDb& db, const std::string& measurement,
    const std::string& instance, const std::vector<std::string>& fields) {
  std::string text = "SELECT ";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    text += (i == 0 ? "\"" : ", \"") + fields[i] + "\"";
  }
  text += " FROM \"" + measurement + "\" WHERE instance=\"" + instance + "\"";
  auto result = query::run(db, text);
  EXPECT_TRUE(result.has_value()) << result.status().to_string();
  std::map<std::string, double> row;
  if (!result.has_value() || result->rows.empty()) return row;
  // Rows come back in time order, so the latest export is the last row.
  const std::vector<double>& last = result->rows.back();
  for (const std::string& field : fields) {
    const std::size_t column = result->column_index(field);
    if (column < last.size()) row[field] = last[column];
  }
  return row;
}

TEST(DaemonTelemetryTest, EachDaemonExportsItsOwnStore) {
  Daemon a;
  Daemon b;
  ASSERT_TRUE(a.timeseries()
                  .write_batch({make_point("m", "h0", 1, 1.0),
                                make_point("m", "h1", 2, 2.0),
                                make_point("m", "h2", 3, 3.0)})
                  .is_ok());
  std::vector<tsdb::Point> five;
  for (int i = 0; i < 5; ++i) {
    five.push_back(make_point("m", "h" + std::to_string(i), i, 1.0));
  }
  ASSERT_TRUE(b.timeseries().write_batch(std::move(five)).is_ok());

  const tsdb::TsdbStats before = a.timeseries().stats();
  ASSERT_EQ(before.points, 3u);
  ASSERT_EQ(before.series, 3u);
  ASSERT_TRUE(a.publish_internals(from_seconds(1.0)).is_ok());
  const auto row = exported_row(a.timeseries(), "pmove_tsdb", "db",
                                {"points", "series"});
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row.at("points"), static_cast<double>(before.points));
  EXPECT_EQ(row.at("series"), static_cast<double>(before.series));
}

TEST(DaemonTelemetryTest, RecoveredPointsAreExportedAsInserted) {
  // The log is written through the bare Wal, not an IngestEngine, so no
  // live delivery anywhere in the process accounts for these points: the
  // only way they reach inserted_points is the replay itself.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("pmove_core_wal_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  constexpr int kRecords = 7;
  {
    ingest::Wal wal;
    ASSERT_TRUE(wal.open({.dir = dir}).is_ok());
    for (int i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(
          wal.append(make_point("m", "h0", i + 1, 1.0 * i).to_line())
              .has_value());
    }
    wal.close();
  }
  DaemonConfig config;
  config.ingest.wal_dir = dir;
  config.ingest.shard_count = 2;
  Daemon daemon(config);
  ASSERT_TRUE(daemon.enable_ingest().is_ok());
  const ingest::IngestStats stats = daemon.ingest()->stats();
  EXPECT_EQ(stats.recovered_points, static_cast<std::uint64_t>(kRecords));
  EXPECT_EQ(stats.inserted_points, static_cast<std::uint64_t>(kRecords));

  ASSERT_TRUE(daemon.publish_internals(from_seconds(1.0)).is_ok());
  const auto row = exported_row(daemon.timeseries(), "pmove_ingest", "engine",
                                {"inserted_points", "recovered_points"});
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row.at("inserted_points"),
            static_cast<double>(stats.inserted_points));
  EXPECT_EQ(row.at("recovered_points"),
            static_cast<double>(stats.recovered_points));
  daemon.ingest()->close();
  std::filesystem::remove_all(dir);
}

TEST(DaemonTelemetryTest, PublishWhileIngestSubmits) {
  DaemonConfig config;
  config.ingest.shard_count = 2;
  Daemon daemon(config);
  ASSERT_TRUE(daemon.enable_ingest().is_ok());
  constexpr int kPerBatch = 8;
  std::atomic<bool> stop{false};
  std::atomic<int> batches{0};
  std::thread producer([&daemon, &stop, &batches] {
    while (!stop.load()) {
      const int b = batches.load();
      std::vector<tsdb::Point> batch;
      for (int i = 0; i < kPerBatch; ++i) {
        batch.push_back(make_point("m", "h" + std::to_string(i),
                                   b * kPerBatch + i, 1.0 * b));
      }
      EXPECT_TRUE(daemon.ingest()->submit(std::move(batch)).is_ok());
      batches.store(b + 1);
    }
  });
  // Every export overlaps submits, the shard workers' writes into the
  // store and the producer's counter bumps.
  while (batches.load() == 0) std::this_thread::yield();
  for (int i = 1; i <= 20; ++i) {
    EXPECT_TRUE(daemon.publish_internals(from_seconds(i)).is_ok());
  }
  stop.store(true);
  producer.join();
  ASSERT_TRUE(daemon.ingest()->flush().is_ok());
  ASSERT_TRUE(daemon.publish_internals(from_seconds(21.0)).is_ok());
  const auto row = exported_row(daemon.timeseries(), "pmove_ingest", "engine",
                                {"submitted_points", "inserted_points"});
  ASSERT_EQ(row.size(), 2u);
  const double submitted = batches.load() * kPerBatch;
  EXPECT_EQ(row.at("submitted_points"), submitted);
  EXPECT_EQ(row.at("inserted_points"), submitted);
}

}  // namespace
}  // namespace pmove::core
