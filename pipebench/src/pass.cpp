// One pass of a pipeline-benchmark workload, run in a fresh process.
//
//   pipebench_pass --config <file> --out <prefix> [--trace] [--check-program]
//
// The config file (generated by pipebench/run.py from the run's seed) holds
// one `key value...` line per setting. The pass runs the workload it names,
// times every unit of work from outside the program's calls, checks the
// outputs, and writes:
//
//   <prefix>.json        units, operation counts, checks, per-layer stats
//   <prefix>.csv         the workload's outputs (compared byte for byte
//                        between passes and between traced/untraced runs)
//   <prefix>.spans.csv   every recorded span (traced passes only)
//
// Workloads:
//   online_evasion  Fig. 6: online kIncremental HID per zoo classifier vs
//                   (a) standalone Spectre and (b) dynamic CR-Spectre.
//   offline_sweep   Fig. 5 widened: one detector per classifier, trained
//                   once, scores every standalone variant and static
//                   CR-Spectre under mitigation presets.
//   corpus_train    §III-A: benign + attack corpora, then the zoo's fits.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "attack/spectre.hpp"
#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "core/campaign.hpp"
#include "core/corpus.hpp"
#include "core/scenario.hpp"
#include "hid/detector.hpp"
#include "hid/features.hpp"
#include "ml/dataset.hpp"
#include "ml/mlp.hpp"
#include "mitigate/config.hpp"
#include "obs/metrics.hpp"
#include "rop/plan.hpp"
#include "sim/snapshot.hpp"
#include "support/error.hpp"
#include "support/memo.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "trace.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace crs;
using pipebench::Tracer;
using Span = pipebench::Tracer::Span;

// ---------------------------------------------------------------- config

class Config {
 public:
  explicit Config(const std::string& path) {
    std::ifstream in(path);
    CRS_ENSURE(in.good(), "cannot read config " + path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string key;
      ls >> key;
      std::vector<std::string> values;
      for (std::string v; ls >> v;) values.push_back(v);
      kv_[key] = values;
    }
  }

  const std::vector<std::string>& list(const std::string& key) const {
    const auto it = kv_.find(key);
    CRS_ENSURE(it != kv_.end() && !it->second.empty(),
               "config is missing '" + key + "'");
    return it->second;
  }
  bool has(const std::string& key) const { return kv_.count(key) != 0; }
  const std::string& str(const std::string& key) const {
    return list(key).front();
  }
  std::uint64_t u64(const std::string& key) const {
    return std::stoull(str(key));
  }

 private:
  std::map<std::string, std::vector<std::string>> kv_;
};

// ------------------------------------------------------------ pass state

double unix_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

long current_peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

struct Pass {
  explicit Pass(const Config& c, bool traced) : cfg(c), tr(traced) {}

  const Config& cfg;
  Tracer tr;
  std::vector<pipebench::Unit> units;
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;          // one entry per failed op
  std::map<std::string, bool> checks;         // workload-level checks
  std::map<std::string, double> values;       // figures behind the checks
  std::ostringstream csv;                     // byte-compared outputs
  double setup_end_unix = 0.0;
  /// Peak RSS of the timed work, when untimed checks follow it.
  long peak_rss_kb = 0;
  /// Run the untimed equivalence check against the program's own loop
  /// (`--check-program`; run.py asks for it in one pass of a run).
  bool check_program = false;
  /// Workloads without a separate set-up phase end it with their first unit.
  bool setup_after_first_unit = false;
  bool corpus_ops = false;
  /// Operations whose description contains this fail regardless of their
  /// checks (config key `force_fail`; the benchmark's tests use it).
  std::string force_fail;

  /// Times `body` as one unit, minus any shadow calls made inside it.
  void unit(const std::string& name, const std::string& phase,
            const std::function<void()>& body) {
    const double shadow_before = tr.shadow_seconds();
    const auto t0 = pipebench::Clock::now();
    {
      Span s(tr, "bench.unit");
      body();
    }
    const double secs =
        std::chrono::duration<double>(pipebench::Clock::now() - t0).count() -
        (tr.shadow_seconds() - shadow_before);
    units.push_back({name, phase, secs});
    if (setup_after_first_unit && setup_end_unix == 0.0) {
      setup_end_unix = unix_now();
    }
  }

  /// One operation: counted as attempted, and as failed when `ok` is false.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!force_fail.empty() && what.find(force_fail) != std::string::npos) {
      ok = false;
    }
    if (!ok) failures.push_back(what);
  }

  /// A profiling run of the training corpora: an operation on
  /// corpus_train, part of set-up (a workload-level check) elsewhere.
  void corpus_op(bool ok, const std::string& what) {
    if (corpus_ops) {
      op(ok, what);
    } else {
      const auto it = checks.find("corpus_runs_ok");
      checks["corpus_runs_ok"] = ok && (it == checks.end() || it->second);
    }
  }

  void check(const std::string& name, bool ok) { checks[name] = ok; }
};

// ---------------------------------------------------- per-layer counting

void count_profile(Pass& p, const hid::ProfileResult& prof) {
  p.tr.count("sim.cycles", static_cast<double>(prof.cycles));
  p.tr.count("sim.instructions", static_cast<double>(prof.instructions));
  p.tr.count("hid.windows", static_cast<double>(prof.windows.size()));
  // Cache and predictor events from the noiseless per-window deltas.
  static const std::pair<const char*, sim::Event> kEvents[] = {
      {"sim.l1d_misses", sim::Event::kL1dMisses},
      {"sim.l2_misses", sim::Event::kL2Misses},
      {"sim.branch_mispredicts", sim::Event::kBranchMispredicts},
      {"sim.spec_instructions", sim::Event::kSpecInstructions},
      {"sim.clflushes", sim::Event::kClflushes},
  };
  if (!p.tr.enabled()) return;
  for (const auto& [name, ev] : kEvents) {
    double total = 0.0;
    for (const auto& w : prof.windows) {
      total += static_cast<double>(w.true_delta[static_cast<std::size_t>(ev)]);
    }
    p.tr.count(name, total);
  }
}

/// Traced passes only: the noiseless per-window instruction deltas of one
/// profiling run must add up to the run's retired-instruction total.
bool window_sum_matches(const Pass& p, const hid::ProfileResult& prof) {
  if (!p.tr.enabled()) return true;
  std::uint64_t sum = 0;
  for (const auto& w : prof.windows) {
    sum += w.true_delta[static_cast<std::size_t>(sim::Event::kInstructions)];
  }
  return sum == prof.instructions;
}

// ------------------------------------------------- scenario sessions

/// The shadow calls a traced pass makes to time layers the program runs
/// inside ScenarioSession. Which builds happened is read from the memo
/// miss counters and the cow switch, so the counts are the program's own.
struct ShadowBuilds {
  std::map<std::string, std::shared_ptr<const sim::Program>> hosts;
  /// Machine configs whose baseline the program has built in this pass.
  std::set<std::uint64_t> baselines;

  const sim::Program& host(Pass& p, const core::ScenarioConfig& cfg,
                           bool timed) {
    // Mirrors the session's host options: scale drawn from Rng(seed).
    Rng rng(cfg.seed);
    workloads::WorkloadOptions wopt;
    wopt.scale = cfg.host_scale +
                 rng.next_below(std::max<std::uint64_t>(cfg.host_scale / 8, 1));
    wopt.canary = cfg.canary || cfg.harden.canary;
    wopt.secret = cfg.secret;
    const std::string key = cfg.host + "/" + std::to_string(wopt.scale);
    auto& slot = hosts[key];
    if (timed) {
      Span s(p.tr, "workloads.build");
      slot = std::make_shared<const sim::Program>(
          workloads::build_workload(cfg.host, wopt));
    } else if (!slot) {
      // The program reused its build; the replay needs the host untimed.
      slot = std::make_shared<const sim::Program>(
          workloads::build_workload(cfg.host, wopt));
    }
    return *slot;
  }

  void attack(Pass& p, const core::ScenarioConfig& cfg,
              const perturb::PerturbParams& params) {
    std::uint64_t secret_address = 0;
    if (cfg.rop_injected) {
      secret_address = host(p, cfg, false).symbol("host_secret");
    }
    core::ScenarioConfig with = cfg;
    with.perturb_params = params;
    const attack::AttackConfig acfg =
        core::make_attack_config(with, secret_address);
    Span s(p.tr, "casm.assemble");
    casm::AssembleOptions opt;
    opt.name = acfg.name;
    opt.link_base = acfg.link_base;
    const sim::Program prog = casm::assemble(
        attack::generate_attack_source(acfg) + casm::runtime_library(), opt);
    (void)prog;
  }

  /// Replays, outside the unit's time, the builds a session construction
  /// or attempt made according to the memo counters.
  void replay(Pass& p, const core::ScenarioConfig& cfg,
              const perturb::PerturbParams& params,
              const core::ScenarioMemoStats& before, bool session_built) {
    if (!p.tr.enabled()) return;
    const core::ScenarioMemoStats after = core::scenario_memo_stats();
    Span shadow(p.tr, "bench.shadow", true);
    if (after.workload_misses > before.workload_misses) host(p, cfg, true);
    if (after.plan_misses > before.plan_misses) {
      rop::ReconSpec spec;
      spec.path = "/bin/host";
      spec.benign_args = {cfg.host, "recon-benign-input"};
      const sim::Program& h = host(p, cfg, false);
      Span s(p.tr, "rop.plan");
      (void)rop::plan_injection(h, spec, "/bin/cr_spectre");
    }
    const std::uint64_t attack_builds =
        after.attack_misses - before.attack_misses;
    for (std::uint64_t i = 0; i < attack_builds; ++i) attack(p, cfg, params);
    p.tr.count("casm.assemble_count", static_cast<double>(attack_builds));
    if (session_built) {
      sim::MachineConfig mcfg;
      sim::KernelConfig kcfg;
      cfg.mitigations.apply(mcfg, kcfg);
      // With cow on, a session forks the process-wide baseline of its
      // machine config, which the program builds in full only for the
      // config's first session; with cow off, every session builds.
      const bool cow = cow_enabled();
      if (!cow || baselines.insert(sim::hash_machine_config(mcfg)).second) {
        Span s(p.tr, "sim.machine_build");
        sim::Machine m(mcfg);
      }
      if (cow) {
        const auto base = sim::shared_baseline(mcfg);
        Span s(p.tr, "sim.fork");
        sim::Machine m(*base);
      }
    }
  }
};

std::unique_ptr<core::ScenarioSession> build_session(
    Pass& p, ShadowBuilds& shadow, const core::ScenarioConfig& cfg) {
  const core::ScenarioMemoStats before = core::scenario_memo_stats();
  std::unique_ptr<core::ScenarioSession> session;
  {
    Span s(p.tr, "core.session_build");
    session = std::make_unique<core::ScenarioSession>(cfg);
  }
  shadow.replay(p, cfg, cfg.perturb_params, before, true);
  return session;
}

core::ScenarioRun run_attempt(Pass& p, ShadowBuilds& shadow,
                              core::ScenarioSession& session,
                              std::uint64_t seed,
                              const perturb::PerturbParams& params) {
  const core::ScenarioMemoStats before = core::scenario_memo_stats();
  core::ScenarioRun run;
  {
    Span s(p.tr, "core.run_attempt");
    run = session.run_attempt(seed, params);
  }
  count_profile(p, run.profile);
  shadow.replay(p, session.config(), params, before, false);
  return run;
}

// ------------------------------------------------------------- corpora

core::CorpusConfig corpus_config(const Config& cfg) {
  core::CorpusConfig cc;
  cc.windows_per_class = cfg.u64("windows_per_class");
  cc.host_scale = cfg.u64("host_scale");
  cc.seed = cfg.u64("corpus_seed");
  return cc;
}

void append_rows(ml::Dataset& out, const std::vector<std::vector<double>>& rows,
                 int label, std::size_t target) {
  for (const auto& row : rows) {
    if (out.size() >= target) return;
    out.append(row, label);
  }
}

std::vector<std::vector<double>> feature_rows(
    Pass& p, const std::vector<hid::WindowSample>& windows) {
  Span s(p.tr, "hid.features");
  std::vector<std::vector<double>> rows;
  rows.reserve(windows.size());
  for (const auto& w : windows) rows.push_back(hid::feature_vector(w.delta));
  return rows;
}

/// core::build_benign_corpus with one unit per profiling run: the same
/// spec draws in the same order, so the corpus is the program's own.
ml::Dataset benign_corpus(Pass& p, const core::CorpusConfig& cc) {
  std::vector<std::string> apps;
  for (const auto& w : workloads::host_catalog()) apps.push_back(w.name);
  for (const auto& w : workloads::benign_pool_catalog()) apps.push_back(w.name);
  Rng rng(cc.seed);
  ml::Dataset out;
  std::size_t app_index = 0;
  for (int run = 0; out.size() < cc.windows_per_class; ++run) {
    CRS_ENSURE(run < 10'000, "benign corpus failed to accumulate");
    const std::string app = apps[app_index];
    app_index = (app_index + 1) % apps.size();
    workloads::WorkloadOptions wopt;
    wopt.scale = cc.host_scale +
                 rng.next_below(std::max<std::uint64_t>(cc.host_scale / 4, 1));
    hid::ProfilerConfig prof_cfg = cc.profiler;
    prof_cfg.window_cycles += rng.next_below(
        std::max<std::uint64_t>(prof_cfg.window_cycles / 10, 1));
    prof_cfg.noise_seed = rng.next_u64();
    const std::uint64_t kernel_seed = rng.next_u64();
    const std::string arg = "benign-" + std::to_string(rng.next_below(1000));

    p.unit("corpus.benign." + std::to_string(run), "corpus", [&] {
      std::unique_ptr<sim::Machine> machine;
      {
        Span s(p.tr, "sim.machine_build");
        machine = std::make_unique<sim::Machine>();
      }
      sim::KernelConfig kcfg;
      kcfg.seed = kernel_seed;
      sim::Kernel kernel(*machine, kcfg);
      {
        Span s(p.tr, "workloads.build");
        kernel.register_binary("/bin/app",
                               workloads::build_workload(app, wopt));
      }
      hid::ProfileResult prof;
      {
        Span s(p.tr, "hid.profile_run");
        prof = hid::profile_run_strings(kernel, "/bin/app", {app, arg},
                                        prof_cfg);
      }
      count_profile(p, prof);
      // Cache and predictor counters of the machines the benchmark owns go
      // through the program's metrics registry, read back after the pass.
      if (p.tr.enabled()) machine->publish_metrics("sim.benign");
      p.corpus_op(prof.stop == sim::StopReason::kHalted &&
                      !prof.windows.empty() && window_sum_matches(p, prof),
                  "benign run " + std::to_string(run) + " (" + app + ")");
      const auto rows = feature_rows(p, prof.windows);
      append_rows(out, rows, 0, cc.windows_per_class);
      p.csv << "benign," << run << ',' << app << ',' << prof.windows.size()
            << ',' << prof.instructions << ',' << prof.cycles << '\n';
    });
  }
  return out;
}

/// core::build_attack_corpus with one unit per standalone Spectre run.
ml::Dataset attack_corpus(Pass& p, ShadowBuilds& shadow,
                          const core::CorpusConfig& cc) {
  Rng rng(cc.seed ^ 0xA77ACCull);
  ml::Dataset out;
  std::size_t variant_index = 0;
  for (int run = 0; out.size() < cc.windows_per_class; ++run) {
    CRS_ENSURE(run < 10'000, "attack corpus failed to accumulate");
    core::ScenarioConfig scenario;
    scenario.secret = cc.secret;
    scenario.variant = cc.variants[variant_index];
    variant_index = (variant_index + 1) % cc.variants.size();
    scenario.rop_injected = false;
    scenario.perturb = false;
    scenario.seed = rng.next_u64();
    scenario.profiler = cc.profiler;

    p.unit("corpus.attack." + std::to_string(run), "corpus", [&] {
      auto session = build_session(p, shadow, scenario);
      const auto r = run_attempt(p, shadow, *session, scenario.seed,
                                 scenario.perturb_params);
      p.corpus_op(r.secret_recovered && r.recovered == cc.secret &&
                      window_sum_matches(p, r.profile),
                  "attack run " + std::to_string(run) + " (" +
                      attack::variant_name(scenario.variant) + ")");
      const auto rows = feature_rows(p, r.attack_windows);
      append_rows(out, rows, 1, cc.windows_per_class);
      p.csv << "attack," << run << ','
            << attack::variant_name(scenario.variant) << ','
            << r.attack_windows.size() << ',' << r.profile.instructions << ','
            << r.profile.cycles << '\n';
    });
  }
  return out;
}

bool corpus_ok(const ml::Dataset& d, std::size_t n, int label) {
  if (d.size() != n || d.x.rows() != n) return false;
  return std::all_of(d.y.begin(), d.y.end(), [&](int y) { return y == label; });
}

/// Builds both corpora as timed units; checks their size and labels.
ml::Dataset training_corpus(Pass& p, ShadowBuilds& shadow,
                            const core::CorpusConfig& cc) {
  ml::Dataset benign = benign_corpus(p, cc);
  const ml::Dataset attack = attack_corpus(p, shadow, cc);
  p.check("corpus_sizes_and_labels",
          corpus_ok(benign, cc.windows_per_class, 0) &&
              corpus_ok(attack, cc.windows_per_class, 1));
  p.values["corpus_windows"] =
      static_cast<double>(benign.size() + attack.size());
  p.csv << "corpus_digest," << fmt(std::accumulate(
                                   benign.x.data().begin(),
                                   benign.x.data().end(), 0.0))
        << ',' << fmt(std::accumulate(attack.x.data().begin(),
                                      attack.x.data().end(), 0.0))
        << '\n';
  benign.append_all(attack);
  return benign;
}

hid::DetectorConfig detector_config(const std::string& kind) {
  hid::DetectorConfig dc;
  dc.classifier = kind;
  dc.features = hid::paper_feature_indices();
  dc.online_mode = hid::OnlineMode::kIncremental;
  return dc;
}

std::unique_ptr<hid::HidDetector> fit_detector(Pass& p, const std::string& unit,
                                               const std::string& kind,
                                               const ml::Dataset& data) {
  auto det = std::make_unique<hid::HidDetector>(detector_config(kind));
  p.unit(unit, "fit", [&] {
    Span s(p.tr, "ml.fit." + kind);
    det->fit(data);
  });
  return det;
}

double detect(Pass& p, const hid::HidDetector& det,
              const std::vector<hid::WindowSample>& windows) {
  Span s(p.tr, "hid.detect");
  return det.detection_rate(windows);
}

// ------------------------------------------------------- online_evasion

/// Traced passes only: a replica of HidDetector's incremental update path
/// (frozen feature selection and scaler, replay sample, partial_fit) so
/// the classifier's partial_fit can be timed on its own. Its detection
/// rates are compared with the detector's as a check of the replica.
class IncrementalMirror {
 public:
  IncrementalMirror(const std::string& kind, const ml::Dataset& initial)
      : training_(initial),
        selected_(hid::paper_feature_indices()),
        model_(ml::make_classifier(kind, hid::DetectorConfig{}.seed)) {
    const ml::Dataset projected = ml::select_features(training_, selected_);
    scaler_.fit(projected.x);
    model_->fit(scaler_.transform(projected.x), projected.y);
  }

  void update(Pass& p, const ml::Dataset& fresh) {
    const std::size_t history = training_.size();
    training_.append_all(fresh);
    ml::Dataset batch = fresh;
    const std::size_t replay = std::min(history, 2 * batch.size());
    for (std::size_t k = 0; k < replay; ++k) {
      const std::size_t i = replay_rng_.next_below(history);
      batch.append(training_.x.row(i), training_.y[i]);
    }
    const ml::Dataset projected = ml::select_features(batch, selected_);
    const ml::Matrix scaled = scaler_.transform(projected.x);
    Span s(p.tr, "ml.partial_fit");
    model_->partial_fit(scaled, projected.y);
  }

  double detection_rate(const std::vector<hid::WindowSample>& windows) const {
    if (windows.empty()) return 0.0;
    std::size_t hits = 0;
    for (const auto& w : windows) {
      const auto row = hid::feature_vector(w.delta);
      std::vector<double> projected(selected_.size());
      for (std::size_t j = 0; j < selected_.size(); ++j) {
        projected[j] = row[selected_[j]];
      }
      hits += model_->predict(scaler_.transform(projected)) == 1 ? 1 : 0;
    }
    return static_cast<double>(hits) / static_cast<double>(windows.size());
  }

 private:
  ml::Dataset training_;
  std::vector<std::size_t> selected_;
  ml::StandardScaler scaler_;
  std::unique_ptr<ml::Classifier> model_;
  Rng replay_rng_{0x5EED1234};
};

struct Campaign {
  std::string name;
  std::string kind;
  bool cr_spectre = false;
  core::ScenarioConfig scenario;
  std::unique_ptr<hid::HidDetector> detector;
  std::unique_ptr<core::ScenarioSession> session;
  std::unique_ptr<IncrementalMirror> mirror;
  std::vector<double> rates;
  std::vector<bool> mutated;
  perturb::PerturbParams last_params;
  bool mutation_rule = true;  ///< Algorithm 2 held on every attempt
  bool mirror_agrees = true;  ///< traced: the replica detected the same
};

/// Detection rate at or above which an attempt counts as detected.
constexpr double kDetectThreshold = 0.80;

/// One campaign's set-up: its detector fit and its session, as units.
Campaign make_campaign(Pass& p, ShadowBuilds& shadow,
                       const ml::Dataset& initial, const std::string& kind,
                       bool cr, std::uint64_t seed) {
  Campaign c;
  c.kind = kind;
  c.cr_spectre = cr;
  c.name = std::string(cr ? "b" : "a") + "." + kind;
  c.scenario.rop_injected = cr;
  c.scenario.perturb = cr;
  c.scenario.perturb_params.delay = 2000;
  c.scenario.perturb_params.loop_count = 16;
  c.scenario.seed = seed;
  c.detector = fit_detector(p, "fit." + c.name, kind, initial);
  if (p.tr.enabled()) {
    Span s(p.tr, "bench.shadow", true);
    c.mirror = std::make_unique<IncrementalMirror>(kind, initial);
  }
  p.unit("session." + c.name, "session",
         [&] { c.session = build_session(p, shadow, c.scenario); });
  return c;
}

/// The campaign's attempts, one unit each: core::run_campaign's online loop
/// (run, detect, augment_and_refit, and on CR-Spectre Algorithm 2's
/// mutation after a detected attempt). `attempt_base` moves the attempt
/// seeds; 0 gives run_campaign's own.
void run_campaign_attempts(Pass& p, ShadowBuilds& shadow, Campaign& c,
                           int attempts, std::uint64_t attempt_base) {
  perturb::VariantMutator mutator(c.scenario.perturb_params,
                                  c.scenario.seed ^ 0x77);
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    p.unit("attempt." + c.name + "." + std::to_string(attempt), "attempt",
           [&] {
      const std::uint64_t attempt_seed =
          (attempt_base + c.scenario.seed) * 7919 +
          static_cast<std::uint64_t>(attempt);
      const perturb::PerturbParams params = mutator.current();
      const core::ScenarioRun run =
          run_attempt(p, shadow, *c.session, attempt_seed, params);
      const double rate = detect(p, *c.detector, run.attack_windows);
      if (c.mirror) {
        Span s(p.tr, "bench.shadow", true);
        c.mirror_agrees &=
            c.mirror->detection_rate(run.attack_windows) == rate;
      }
      if (!run.attack_windows.empty()) {
        ml::Dataset fresh;
        {
          Span s(p.tr, "hid.features");
          fresh = hid::windows_to_dataset(run.attack_windows, 1);
          fresh.append_all(hid::windows_to_dataset(run.host_windows, 0));
        }
        {
          Span s(p.tr, "hid.refit");
          c.detector->augment_and_refit(fresh);
        }
        if (c.mirror) {
          Span s(p.tr, "bench.shadow", true);
          c.mirror->update(p, fresh);
        }
      }
      // Algorithm 2: the attacker moves to a new variant exactly after a
      // detected attempt, so an attempt runs another variant than the one
      // before it exactly when that one was detected.
      const bool rule_ok = c.mutated.empty() ||
                           (params != c.last_params) == c.mutated.back();
      c.mutation_rule &= rule_ok;
      bool mutated = false;
      if (c.cr_spectre && rate >= kDetectThreshold) {
        Span s(p.tr, "perturb.mutate");
        mutator.next();
        mutated = true;
        p.tr.count("perturb.mutations", 1);
      }
      p.op(run.secret_recovered && rule_ok,
           "attempt " + c.name + "#" + std::to_string(attempt));
      c.rates.push_back(rate);
      c.mutated.push_back(mutated);
      c.last_params = params;
      p.csv << c.name << ',' << attempt << ',' << fmt(rate) << ','
            << run.secret_recovered << ',' << mutated << ','
            << params.describe() << ',' << run.attack_windows.size() << ','
            << run.profile.cycles << '\n';
    });
  }
  p.tr.count("hid.incremental_updates",
             static_cast<double>(c.detector->stats().incremental_updates));
}

/// Campaign seed of the zoo's `index`-th classifier on a panel (Fig. 6's).
std::uint64_t campaign_seed(const Config& cfg, bool cr, std::size_t index) {
  return cfg.u64(cr ? "online_seed_b" : "online_seed_a") + index;
}

/// Classifier of the program-equivalence check: the cheapest to fit.
const char* const kProgramCheckClassifier = "LR";

/// The attempt loop is the benchmark's copy of core::run_campaign's online
/// loop, so that each attempt can be timed on its own. Untimed, this runs
/// the copy again on a scratch pass with run_campaign's attempt seeds, one
/// campaign per panel, and checks each attempt against the program's.
void check_program_campaigns(Pass& p, const ml::Dataset& initial,
                             int attempts) {
  Pass scratch(p.cfg, false);
  ShadowBuilds shadow;
  bool same = true;
  for (const bool cr : {false, true}) {
    Campaign c = make_campaign(scratch, shadow, initial,
                               kProgramCheckClassifier, cr,
                               campaign_seed(p.cfg, cr, 0));
    run_campaign_attempts(scratch, shadow, c, attempts, 0);
    core::CampaignConfig cfg;
    cfg.scenario = c.scenario;
    cfg.detector = detector_config(c.kind);
    cfg.online_hid = true;
    cfg.dynamic_perturbation = cr;
    cfg.attempts = attempts;
    cfg.seed = c.scenario.seed;
    const auto r = core::run_campaign(cfg, initial, ml::Dataset{});
    same &= r.attempts.size() == c.rates.size();
    for (std::size_t k = 0; same && k < r.attempts.size(); ++k) {
      same &= r.attempts[k].detection_rate == c.rates[k] &&
              r.attempts[k].mutated_after == c.mutated[k];
    }
  }
  p.check("campaigns_equal_program_campaigns", same);
}

void run_online_evasion(Pass& p) {
  const core::CorpusConfig cc = corpus_config(p.cfg);
  ShadowBuilds shadow;
  const ml::Dataset initial = training_corpus(p, shadow, cc);
  const auto zoo = p.cfg.list("classifiers");
  const int attempts = static_cast<int>(p.cfg.u64("online_attempts"));
  // The campaigns (host scale, mutation draws) are fixed; the run's seed
  // moves each attempt's jitter: window phase, PMU noise and kernel RNG.
  const std::uint64_t attempt_base = p.cfg.u64("attempt_seed");

  // Setup: one detector fit and one session per (panel, classifier).
  std::vector<Campaign> campaigns;
  for (const bool cr : {false, true}) {
    for (std::size_t zi = 0; zi < zoo.size(); ++zi) {
      campaigns.push_back(make_campaign(p, shadow, initial, zoo[zi], cr,
                                        campaign_seed(p.cfg, cr, zi)));
    }
  }
  p.setup_end_unix = unix_now();

  for (Campaign& c : campaigns) {
    run_campaign_attempts(p, shadow, c, attempts, attempt_base);
  }

  // Fig. 6(a): the online HID keeps standalone Spectre detection high.
  double min_mean_a = 1.0;
  // Fig. 6(b): detection dips to the evasion threshold and recovers later.
  bool dip_then_recover = false;
  double lowest_b = 1.0;
  bool mutation_rule = true;
  bool mirror_agrees = true;
  for (const Campaign& c : campaigns) {
    mutation_rule &= c.mutation_rule;
    mirror_agrees &= c.mirror_agrees;
    const double mean =
        std::accumulate(c.rates.begin(), c.rates.end(), 0.0) /
        static_cast<double>(c.rates.size());
    if (!c.cr_spectre) {
      min_mean_a = std::min(min_mean_a, mean);
      continue;
    }
    bool dipped = false;
    for (const double r : c.rates) {
      lowest_b = std::min(lowest_b, r);
      if (dipped && r >= 0.80) dip_then_recover = true;
      if (r <= 0.55) dipped = true;
    }
  }
  p.values["fig6a_min_mean"] = min_mean_a;
  p.values["fig6b_lowest"] = lowest_b;
  p.check("fig6a_standalone_mean_above_0.85", min_mean_a > 0.85);
  p.check("fig6b_dip_then_recovery", dip_then_recover);
  p.check("algorithm2_mutation_rule", mutation_rule);
  if (p.tr.enabled()) p.check("traced_mirror_matches_detector", mirror_agrees);
  if (p.check_program) {
    // The timed work is over: the check's own memory stays out of the
    // pass's peak.
    p.peak_rss_kb = current_peak_rss_kb();
    check_program_campaigns(p, initial, attempts);
  }
}

// -------------------------------------------------------- offline_sweep

attack::SpectreVariant variant_named(const std::string& name) {
  for (const auto v : attack::all_variants()) {
    if (attack::variant_name(v) == name) return v;
  }
  throw Error("unknown Spectre variant '" + name + "'");
}

void run_offline_sweep(Pass& p) {
  const core::CorpusConfig cc = corpus_config(p.cfg);
  ShadowBuilds shadow;
  const ml::Dataset initial = training_corpus(p, shadow, cc);
  const auto zoo = p.cfg.list("classifiers");
  const int attempts = static_cast<int>(p.cfg.u64("offline_attempts"));
  // Session configs are fixed; the run's seed moves the attempts' jitter.
  const std::uint64_t seed = p.cfg.u64("offline_seed");
  const std::uint64_t attempt_base = p.cfg.u64("attempt_seed");

  std::vector<std::unique_ptr<hid::HidDetector>> detectors;
  for (const auto& kind : zoo) {
    detectors.push_back(fit_detector(p, "fit." + kind, kind, initial));
  }

  struct Cell {
    std::string name;
    std::string preset;
    bool cr_spectre = false;
    attack::SpectreVariant variant = attack::SpectreVariant::kPht;
    core::ScenarioConfig scenario;
    std::unique_ptr<core::ScenarioSession> session;
  };
  std::vector<Cell> cells;
  std::uint64_t cell_seed = seed;
  for (const auto& preset : p.cfg.list("offline_presets")) {
    std::vector<std::string> kinds = p.cfg.list("offline_variants");
    kinds.push_back("crspectre");
    for (const auto& kind : kinds) {
      Cell c;
      c.preset = preset;
      c.name = preset + "." + kind;
      c.cr_spectre = kind == "crspectre";
      c.scenario.mitigations = mitigate::preset(preset);
      c.scenario.seed = cell_seed++;
      if (c.cr_spectre) {
        // Fig. 5(b)'s single static variant.
        c.scenario.rop_injected = true;
        c.scenario.perturb = true;
        c.scenario.perturb_params.delay = 500;
        c.scenario.perturb_params.loop_count = 16;
        c.scenario.perturb_params.style = perturb::MimicStyle::kBranchy;
      } else {
        c.scenario.rop_injected = false;
        c.scenario.variant = variant_named(kind);
      }
      c.variant = c.scenario.variant;
      p.unit("session." + c.name, "session",
             [&] { c.session = build_session(p, shadow, c.scenario); });
      cells.push_back(std::move(c));
    }
  }
  p.setup_end_unix = unix_now();

  // Per classifier: sums of standalone and CR-Spectre rates, preset none.
  std::vector<double> standalone(zoo.size(), 0.0), cr(zoo.size(), 0.0);
  std::size_t n_standalone = 0, n_cr = 0;
  bool pht_fenced_leak = false;
  for (Cell& c : cells) {
    const bool undefended = c.preset == "none";
    const bool fenced_pht =
        !undefended && c.variant == attack::SpectreVariant::kPht;
    for (int attempt = 1; attempt <= attempts; ++attempt) {
      p.unit("attempt." + c.name + "." + std::to_string(attempt), "attempt",
             [&] {
        const std::uint64_t attempt_seed =
            (attempt_base + c.scenario.seed) * 7919 +
            static_cast<std::uint64_t>(attempt);
        const core::ScenarioRun run = run_attempt(
            p, shadow, *c.session, attempt_seed, c.scenario.perturb_params);
        p.csv << c.name << ',' << attempt << ',' << run.secret_recovered;
        for (std::size_t k = 0; k < detectors.size(); ++k) {
          const double rate = detect(p, *detectors[k], run.attack_windows);
          p.csv << ',' << fmt(rate);
          if (undefended) (c.cr_spectre ? cr : standalone)[k] += rate;
        }
        if (undefended) ++(c.cr_spectre ? n_cr : n_standalone);
        for (const auto& f : mitigate::summary_fields()) {
          p.tr.count("mitigate." + std::string(f.name),
                     static_cast<double>(run.mitigation.*(f.member)));
        }
        bool ok = true;
        if (undefended) ok = run.secret_recovered;
        if (fenced_pht && run.secret_recovered) {
          ok = false;
          pht_fenced_leak = true;
        }
        p.op(ok, "attempt " + c.name + "#" + std::to_string(attempt));
        p.csv << ',' << run.attack_windows.size() << ',' << run.profile.cycles
              << '\n';
      });
    }
  }
  double min_standalone = 1.0, max_cr = 0.0;
  for (std::size_t k = 0; k < zoo.size(); ++k) {
    min_standalone = std::min(
        min_standalone, standalone[k] / static_cast<double>(n_standalone));
    max_cr = std::max(max_cr, cr[k] / static_cast<double>(n_cr));
  }
  p.values["fig5a_min_mean"] = min_standalone;
  p.values["fig5b_max_mean"] = max_cr;
  p.check("fig5a_standalone_detection_at_least_0.80", min_standalone >= 0.80);
  p.check("fig5b_crspectre_mean_at_most_0.55", max_cr <= 0.55);
  p.check("fence_preset_blocks_pht", !pht_fenced_leak);
}

// --------------------------------------------------------- corpus_train

/// Held-out accuracy every fitted classifier must reach.
constexpr double kAccuracyFloor = 0.90;

void run_corpus_train(Pass& p) {
  const core::CorpusConfig cc = corpus_config(p.cfg);
  ShadowBuilds shadow;
  // Set-up is the cold work before the first steady unit: process start,
  // and the first profiling run's machine and workload builds.
  p.setup_after_first_unit = true;
  p.corpus_ops = true;
  const ml::Dataset corpus = training_corpus(p, shadow, cc);
  // The per-run units replay the program's corpus construction; outside
  // the timed units, check that they built exactly the program's corpora.
  // Untraced passes only: the extra profiling runs would show in the
  // traced pass's registry counters.
  if (!p.tr.enabled()) {
    ml::Dataset program = core::build_benign_corpus(cc);
    program.append_all(core::build_attack_corpus(cc));
    p.check("corpora_equal_program_corpora",
            corpus.y == program.y &&
                std::equal(corpus.x.data().begin(), corpus.x.data().end(),
                           program.x.data().begin(), program.x.data().end()));
  }

  // Timed: each classifier's full-batch fit on the whole corpus, on the
  // paper's features, standardised. Untimed: the same fit on the
  // benchmark's own 70% split of the corpus, scored on the held-out 30%.
  const ml::Dataset all =
      ml::select_features(corpus, hid::paper_feature_indices());
  ml::StandardScaler all_scaler;
  all_scaler.fit(all.x);
  const ml::Matrix all_x = all_scaler.transform(all.x);
  Rng split_rng(p.cfg.u64("split_seed"));
  const ml::SplitResult split = ml::train_test_split(all, 0.7, split_rng);
  ml::StandardScaler scaler;
  scaler.fit(split.train.x);
  const ml::Matrix train_x = scaler.transform(split.train.x);
  const ml::Matrix test_x = scaler.transform(split.test.x);
  const std::uint64_t model_seed = hid::DetectorConfig{}.seed;
  for (const auto& kind : p.cfg.list("classifiers")) {
    p.unit("fit." + kind, "fit", [&] {
      auto model = ml::make_classifier(kind, model_seed);
      Span s(p.tr, "ml.fit." + kind);
      model->fit(all_x, all.y);
    });
    auto held_out = ml::make_classifier(kind, model_seed);
    held_out->fit(train_x, split.train.y);
    const auto predicted = held_out->predict_batch(test_x);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      correct += predicted[i] == split.test.y[i] ? 1 : 0;
    }
    const double accuracy =
        static_cast<double>(correct) / static_cast<double>(split.test.size());
    p.values["accuracy." + kind] = accuracy;
    p.op(accuracy >= kAccuracyFloor, "fit " + kind);
    p.csv << "fit," << kind << ',' << fmt(accuracy) << '\n';
  }
}

// --------------------------------------------------------------- output

void write_json(const Pass& p, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  CRS_ENSURE(f != nullptr, "cannot write " + path);
  std::fprintf(f, "{\n\"traced\": %s,\n", p.tr.enabled() ? "true" : "false");
  std::fprintf(f, "\"setup_end_unix\": %.6f,\n", p.setup_end_unix);
  std::fprintf(f, "\"peak_rss_kb\": %ld,\n",
               p.peak_rss_kb != 0 ? p.peak_rss_kb : current_peak_rss_kb());
  std::fprintf(f, "\"attempted\": %llu,\n",
               static_cast<unsigned long long>(p.attempted));
  std::fprintf(f, "\"failures\": [");
  for (std::size_t i = 0; i < p.failures.size(); ++i) {
    std::fprintf(f, "%s%s", i ? ", " : "", json_str(p.failures[i]).c_str());
  }
  std::fprintf(f, "],\n\"checks\": {");
  bool first = true;
  for (const auto& [name, ok] : p.checks) {
    std::fprintf(f, "%s%s: %s", first ? "" : ", ", json_str(name).c_str(),
                 ok ? "true" : "false");
    first = false;
  }
  std::fprintf(f, "},\n\"values\": {");
  first = true;
  for (const auto& [name, v] : p.values) {
    std::fprintf(f, "%s%s: %s", first ? "" : ", ", json_str(name).c_str(),
                 json_num(v).c_str());
    first = false;
  }
  std::fprintf(f, "},\n\"units\": [\n");
  for (std::size_t i = 0; i < p.units.size(); ++i) {
    const auto& u = p.units[i];
    std::fprintf(f, "%s[%s, %s, %.9f]", i ? ",\n" : "",
                 json_str(u.name).c_str(), json_str(u.phase).c_str(),
                 u.seconds);
  }
  std::fprintf(f, "\n],\n\"layers\": {");
  first = true;
  for (const auto& [name, s] : p.tr.stats()) {
    std::fprintf(f, "%s\n%s: {\"total_ms\": %.6f, \"self_ms\": %.6f, "
                 "\"calls\": %llu}",
                 first ? "" : ",", json_str(name).c_str(), s.total_ms,
                 s.self_ms, static_cast<unsigned long long>(s.calls));
    first = false;
  }
  std::fprintf(f, "},\n\"counts\": {");
  first = true;
  std::map<std::string, double> counts = p.tr.counts();
  if (p.tr.enabled()) {
    const core::ScenarioMemoStats m = core::scenario_memo_stats();
    counts["core.memo.workload_hits"] = static_cast<double>(m.workload_hits);
    counts["core.memo.workload_misses"] =
        static_cast<double>(m.workload_misses);
    counts["core.memo.attack_hits"] = static_cast<double>(m.attack_hits);
    counts["core.memo.attack_misses"] = static_cast<double>(m.attack_misses);
    counts["core.memo.plan_hits"] = static_cast<double>(m.plan_hits);
    counts["core.memo.plan_misses"] = static_cast<double>(m.plan_misses);
  }
  if (p.tr.enabled()) {
    auto& reg = obs::MetricsRegistry::instance();
    for (const char* name :
         {"hid.profiler.runs", "hid.profiler.windows",
          "sim.benign.cache.l1d.hits", "sim.benign.cache.l1d.misses",
          "sim.benign.cache.l2.misses", "sim.benign.predictor.pht.updates",
          "sim.benign.predictor.btb.updates"}) {
      counts[name] = static_cast<double>(reg.counter(name).value());
    }
  }
  for (const auto& [name, v] : counts) {
    std::fprintf(f, "%s%s: %s", first ? "" : ", ", json_str(name).c_str(),
                 json_num(v).c_str());
    first = false;
  }
  std::fprintf(f, "}\n}\n");
  std::fclose(f);
}

int run(int argc, char** argv) {
  std::string config_path, out;
  bool traced = false;
  bool check_program = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--config" && i + 1 < argc) {
      config_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--trace") {
      traced = true;
    } else if (arg == "--check-program") {
      check_program = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (config_path.empty() || out.empty()) {
    std::fprintf(stderr,
                 "usage: pipebench_pass --config <file> --out <prefix> "
                 "[--trace] [--check-program]\n");
    return 2;
  }
  const Config cfg(config_path);
  // One worker: it measured steadiest, and no workload gains much more.
  set_thread_override(1);
  Pass p(cfg, traced);
  p.check_program = check_program;
  if (cfg.has("force_fail")) p.force_fail = cfg.str("force_fail");
  const std::string workload = cfg.str("workload");
  if (workload == "online_evasion") {
    run_online_evasion(p);
  } else if (workload == "offline_sweep") {
    run_offline_sweep(p);
  } else if (workload == "corpus_train") {
    run_corpus_train(p);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  write_json(p, out + ".json");
  {
    std::ofstream csv(out + ".csv", std::ios::binary);
    csv << p.csv.str();
  }
  if (traced) {
    std::FILE* f = std::fopen((out + ".spans.csv").c_str(), "w");
    CRS_ENSURE(f != nullptr, "cannot write spans");
    p.tr.write_spans(f);
    std::fclose(f);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench_pass: %s\n", e.what());
    return 1;
  }
}
