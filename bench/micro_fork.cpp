// Micro-benchmarks of machine forking (google-benchmark).
//
// BM_MachineFork is machines forked per second from the shared pristine
// baseline (O(metadata); no page data). BM_SessionFanout measures the
// end-to-end unit campaign drivers replicate: a ScenarioSession build plus
// one attempt.
#include <benchmark/benchmark.h>

#include "bench_json_reporter.hpp"
#include "core/scenario.hpp"
#include "sim/snapshot.hpp"

namespace {

using namespace crs;

void BM_MachineFork(benchmark::State& state) {
  const auto base = sim::shared_baseline(sim::MachineConfig{});
  for (auto _ : state) {
    sim::Machine machine(*base);
    benchmark::DoNotOptimize(machine.memory().promoted_pages());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MachineFork)->Unit(benchmark::kMicrosecond);

core::ScenarioConfig fanout_config() {
  core::ScenarioConfig config;
  config.host = "basicmath";
  config.host_scale = 60;  // short attempts: replication-dominated
  config.secret = "CRS!";
  config.rop_injected = true;
  config.perturb = true;
  config.seed = 42;
  return config;
}

/// The unit campaign drivers replicate per worker: build a ScenarioSession
/// (machine + kernel + memoized binaries) and run one attempt.
void BM_SessionFanout(benchmark::State& state) {
  const core::ScenarioConfig config = fanout_config();
  core::warm_scenario_memo(config);  // isolate replication from first-build
  std::uint64_t seed = config.seed;
  for (auto _ : state) {
    core::ScenarioSession session(config);
    const auto run = session.run_attempt(seed++);
    benchmark::DoNotOptimize(run.attack_launched);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionFanout)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return crs::bench::run_micro_benchmarks(argc, argv);
}
