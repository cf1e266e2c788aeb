// Ablation: what PCP's no-buffer design costs.
//
// Table III's losses exist because a report arriving at a busy pipeline is
// dropped.  This ablation re-runs the Table III sessions with a bounded
// report queue of capacity 0 (paper behaviour), 1, 4 and 16, quantifying
// how much loss a small buffer would recover — and then with the ingest
// tier's block and spill backpressure modes, where every session routes its
// points through a real IngestEngine and loss goes to zero by construction.
#include <cstdio>
#include <string>

#include "ingest/engine.hpp"
#include "sampler/session.hpp"
#include "topology/machine.hpp"

using namespace pmove;

int main() {
  std::printf("ABLATION: bounded buffering vs PCP's no-buffer pipeline\n");
  std::printf("(10 s sessions, 6 metrics; %%L = lost, L+Z%% adds zero "
              "batches)\n\n");
  std::printf("%-5s %-5s %-12s %8s %8s %10s %10s\n", "host", "freq", "mode",
              "%L", "L+Z%", "Tput", "DBpoints");
  for (const char* host : {"skx", "icl"}) {
    auto machine = topology::machine_preset(host).value();
    for (double freq : {8.0, 32.0}) {
      // Paper behaviour plus the ablation's small bounded buffers: reports
      // beyond the queue are still dropped.
      for (int capacity : {0, 1, 4, 16}) {
        sampler::SessionConfig config;
        config.frequency_hz = freq;
        config.metric_count = 6;
        config.duration_s = 10.0;
        config.transport.buffer_capacity = capacity;
        auto stats = sampler::run_sampling_session(machine, config, nullptr);
        const std::string label = "drop/" + std::to_string(capacity);
        std::printf("%-5s %-5.0f %-12s %8.1f %8.1f %10.1f %10s\n", host,
                    freq, label.c_str(), stats.loss_pct(),
                    stats.loss_plus_zero_pct(), stats.throughput, "-");
      }
      // The ingest tier's zero-loss policies, with points really flowing
      // through the sharded engine into its store.
      for (sampler::BackpressureMode mode :
           {sampler::BackpressureMode::kBlock,
            sampler::BackpressureMode::kSpill}) {
        sampler::SessionConfig config;
        config.frequency_hz = freq;
        config.metric_count = 6;
        config.duration_s = 10.0;
        config.transport.mode = mode;
        ingest::IngestEngine engine(ingest::IngestOptions{});
        if (auto s = engine.open(); !s.is_ok()) {
          std::fprintf(stderr, "%s\n", s.to_string().c_str());
          return 1;
        }
        auto stats = sampler::run_sampling_session(machine, config, &engine);
        (void)engine.flush();
        std::printf("%-5s %-5.0f %-12s %8.1f %8.1f %10.1f %10zu\n", host,
                    freq, std::string(sampler::to_string(mode)).c_str(),
                    stats.loss_pct(), stats.loss_plus_zero_pct(),
                    stats.throughput, engine.point_count());
        engine.close();
      }
      std::printf("\n");
    }
  }
  std::printf(
      "Takeaway: a queue of a few reports recovers most pipeline-busy\n"
      "losses on the large-domain host, and the ingest tier's block/spill\n"
      "modes eliminate them outright — but no transport policy can recover\n"
      "zero batches; those are a counter-refresh artifact.\n");
  return 0;
}
