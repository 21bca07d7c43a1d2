// Session reuse: the differential contract.
//
// A ScenarioSession pays setup once and reverts its machine after every
// attempt. The whole design hangs on one promise — a reverted session's
// attempt is bit-identical to a fresh session's (and therefore to
// run_scenario and the golden traces). These tests pin that promise for
// scenario traces, perturbation changes, campaign results across thread
// counts, the metrics a session publishes, revert itself and the memo
// caches.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/corpus.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "obs/metrics.hpp"
#include "sim/snapshot.hpp"
#include "support/memo.hpp"
#include "support/parallel.hpp"

namespace crs {
namespace {

core::ScenarioConfig small_scenario() {
  core::ScenarioConfig config;
  config.host = "basicmath";
  config.host_scale = 300;
  config.secret = "SNAP-SECRET";
  config.rop_injected = true;
  config.perturb = true;
  config.seed = 99;
  return config;
}

/// Everything observable about a run, serialised for exact comparison.
std::string run_fingerprint(const core::ScenarioRun& run) {
  std::ostringstream os;
  os << core::windows_to_csv(run.profile.windows);
  os << "attack_csv:" << core::windows_to_csv(run.attack_windows);
  os << "host_csv:" << core::windows_to_csv(run.host_windows);
  os << "launched:" << run.attack_launched
     << " recovered:" << run.secret_recovered << " secret:" << run.recovered
     << " host_ipc:" << run.host_ipc << " cycles:" << run.profile.cycles
     << " instructions:" << run.profile.instructions
     << " mitigation_events:" << run.mitigation.total_events();
  return os.str();
}

TEST(ScenarioSession, RevertedAttemptMatchesFreshSession) {
  const core::ScenarioConfig config = small_scenario();

  core::ScenarioSession session(config);
  (void)session.run_attempt(config.seed);       // dirty the machine
  (void)session.run_attempt(config.seed + 7);   // revert + dirty again
  const std::string reverted =
      run_fingerprint(session.run_attempt(config.seed + 3));

  core::ScenarioSession fresh(config);
  const std::string first =
      run_fingerprint(fresh.run_attempt(config.seed + 3));

  EXPECT_EQ(reverted, first);
  EXPECT_EQ(session.attempts(), 3u);
}

TEST(ScenarioSession, RevertedStandaloneAttackMatchesFresh) {
  core::ScenarioConfig config = small_scenario();
  config.rop_injected = false;
  config.perturb = false;

  core::ScenarioSession session(config);
  (void)session.run_attempt(config.seed);
  const std::string reverted =
      run_fingerprint(session.run_attempt(config.seed + 1));

  core::ScenarioSession fresh(config);
  const std::string first =
      run_fingerprint(fresh.run_attempt(config.seed + 1));
  EXPECT_EQ(reverted, first);
}

TEST(ScenarioSession, DynamicPerturbParamsRebuildOnlyAttackBinary) {
  const core::ScenarioConfig config = small_scenario();

  perturb::PerturbParams mutated = config.perturb_params;
  mutated.delay += 250;
  mutated.loop_count += 3;

  core::ScenarioSession session(config);
  (void)session.run_attempt(config.seed);
  const std::string mutated_in_session =
      run_fingerprint(session.run_attempt(config.seed + 5, mutated));
  // Switching back must also reproduce the original-params run exactly.
  const std::string back =
      run_fingerprint(session.run_attempt(config.seed + 6));

  core::ScenarioConfig mcfg = config;
  mcfg.perturb_params = mutated;
  core::ScenarioSession fresh_mutated(mcfg);
  EXPECT_EQ(mutated_in_session,
            run_fingerprint(fresh_mutated.run_attempt(config.seed + 5)));

  core::ScenarioSession fresh_back(config);
  EXPECT_EQ(back, run_fingerprint(fresh_back.run_attempt(config.seed + 6)));
}

/// Campaign results (records + published metrics) must be identical for any
/// worker count.
TEST(CampaignDeterminism, ThreadCountInvariant) {
  core::CorpusConfig cc;
  cc.windows_per_class = 24;
  cc.seed = 5;
  const ml::Dataset benign = core::build_benign_corpus(cc);
  const ml::Dataset attack = core::build_attack_corpus(cc);

  core::CampaignConfig config;
  config.attempts = 4;
  config.seed = 11;
  config.scenario = small_scenario();

  const auto fingerprint = [&](unsigned threads) {
    set_thread_override(threads);
    obs::MetricsRegistry::instance().reset_values();
    const core::CampaignResult result =
        core::run_campaign(config, benign, attack);
    std::ostringstream os;
    for (const auto& a : result.attempts) {
      os << a.attempt << ':' << a.detection_rate << ':' << a.sim_cycles << ':'
         << a.secret_recovered << ':' << a.host_ipc << ':'
         << a.attack_window_count << '\n';
    }
    os << obs::MetricsRegistry::instance().csv();
    set_thread_override(0);
    return os.str();
  };

  const std::string one = fingerprint(1);
  EXPECT_EQ(one, fingerprint(2));
  EXPECT_EQ(one, fingerprint(8));
}

/// Every attempt folds its machine's counters into `sim.session.*`: the
/// registry ends up holding the session cache, predictor and PMU traffic.
TEST(CampaignDeterminism, SessionsPublishSimMetrics) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  core::CorpusConfig cc;
  cc.windows_per_class = 24;
  cc.seed = 5;
  core::CampaignConfig config;
  config.attempts = 2;
  config.seed = 12;
  config.scenario = small_scenario();

  auto& reg = obs::MetricsRegistry::instance();
  reg.reset_values();
  (void)core::run_campaign(config, core::build_benign_corpus(cc),
                           core::build_attack_corpus(cc));
  const std::string csv = reg.csv();
  for (const char* name :
       {"sim.session.cache.l1d.hits", "sim.session.predictor.pht.updates",
        "sim.session.pmu.instructions", "sim.session.cpu.retired"}) {
    EXPECT_NE(csv.find(name), std::string::npos) << name;
  }
  EXPECT_GT(reg.counter("sim.session.cpu.retired").value(), 0u);
}

TEST(MemoCacheTest, HitsAndMisses) {
  MemoCache<int> cache;
  int builds = 0;
  const auto build = [&] { return ++builds; };
  EXPECT_EQ(*cache.get_or_build(1, build), 1);
  EXPECT_EQ(*cache.get_or_build(1, build), 1);  // cached
  EXPECT_EQ(*cache.get_or_build(2, build), 2);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(MachineRevert, RevertBumpsVersionsAndRewritesBytes) {
  sim::Machine machine;
  auto& mem = machine.memory();
  mem.set_permissions(0, 2 * sim::Memory::kPageSize, sim::kPermRW);
  mem.write_u64(8, 0x1111);
  mem.write_u64(sim::Memory::kPageSize + 8, 0x2222);
  const std::uint32_t dirty_version = mem.page_version(0);

  machine.cpu().reset(0, 0x8000);
  machine.pmu().add(sim::Event::kInstructions, 5);

  EXPECT_EQ(machine.revert(), 2u);
  EXPECT_EQ(mem.read_u64(8), 0u);
  EXPECT_EQ(mem.permissions_at(0), sim::kPermNone);
  EXPECT_EQ(machine.pmu().count(sim::Event::kInstructions), 0u);
  EXPECT_TRUE(machine.cpu().halted());
  // The invariant the decode cache depends on: versions only ever advance.
  EXPECT_GT(mem.page_version(0), dirty_version);

  // Untouched attempt: nothing to revert (dirty tracking re-baselined).
  EXPECT_EQ(machine.revert(), 0u);
}

TEST(MemoCacheTest, MemoStatsExposeScenarioCaches) {
  const auto before = core::scenario_memo_stats();
  core::ScenarioConfig config = small_scenario();
  config.seed = 0xBEEF;  // unique per-test key so misses are guaranteed
  core::warm_scenario_memo(config);
  core::ScenarioSession session(config);  // hits the warmed caches
  const auto after = core::scenario_memo_stats();
  EXPECT_GT(after.workload_misses, before.workload_misses);
  EXPECT_GT(after.plan_misses, before.plan_misses);
  EXPECT_GT(after.workload_hits, before.workload_hits);
  EXPECT_GT(after.plan_hits, before.plan_hits);
  EXPECT_GT(after.attack_hits + after.attack_misses,
            before.attack_hits + before.attack_misses);
}

}  // namespace
}  // namespace crs
