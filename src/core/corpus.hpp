// Training-corpus construction for the HID (paper §III-A: "We collect a
// total of 2000 samples for each class ... the scope of applications
// profiled also includes the host and other benign applications like
// browsers, text editors, etc.").
//
// Benign corpus: benign-input runs at jittered scales, round-robin over the
// app list (the eight MiBench-like hosts first, then the browser/editor-style
// pool) until windows_per_class windows accumulate. The list is visited in
// order, so a small corpus stops early: at the paper config (2000 windows,
// host_scale 400) the eight hosts alone yield ~2180 windows and no pool app
// runs. Attack corpus: windows from standalone runs of the requested
// Spectre variants (no perturbation — the clean signatures the defender
// can realistically train on).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attack/spectre.hpp"
#include "hid/profiler.hpp"
#include "ml/dataset.hpp"

namespace crs::core {

struct CorpusConfig {
  /// Apps profiled into the benign class; empty = full catalogue.
  std::vector<std::string> benign_apps;
  std::size_t windows_per_class = 2000;
  std::uint64_t host_scale = 400;
  std::string secret = "CRSPECTRE-SECRET";
  /// Defaults to every implemented variant (pht, rsb, stride, btb); the
  /// paper averages its accuracies over the Spectre variants it runs.
  std::vector<attack::SpectreVariant> variants = attack::all_variants();
  hid::ProfilerConfig profiler;
  std::uint64_t seed = 99;
};

/// Universe-feature dataset, label 0.
ml::Dataset build_benign_corpus(const CorpusConfig& config);

/// Universe-feature dataset from standalone Spectre runs, label 1.
ml::Dataset build_attack_corpus(const CorpusConfig& config);

}  // namespace crs::core
