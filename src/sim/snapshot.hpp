// Machine state: image, fork, revert (DESIGN.md §10).
//
// Every Machine is a view of a frozen MachineBaseline: the memory contents
// as a refcounted sparse MemoryImage, plus the caches, predictor, PMU and CPU
// state at freeze time. `Machine(baseline)` forks it in O(metadata);
// `Machine(config)` forks a pristine baseline (the empty image and freshly
// constructed micro-architectural state), so building a machine never
// zero-fills the address space. `Machine::revert()` rolls a machine back to
// its baseline in O(pages dirtied since the fork or the last revert): the
// per-page monotonic content versions that keep the decode cache coherent
// double as the dirty bitmap.
//
// Invariant: revert BUMPS the version of every page it rewrites; it never
// rolls a version back. The decode and block caches validate pre-decoded
// slots with a version equality compare, so reusing an old version number
// could let slots decoded from a later run's bytes appear fresh for the
// reverted bytes. Monotonically advancing versions make every reverted page
// decode-miss once — self-modifying code and fence-hint rewrites can never
// leak across a revert — while clean pages keep their warm slots.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "sim/kernel.hpp"

namespace crs::sim {

/// Frozen, shareable machine state. Immutable after creation and always
/// held by shared_ptr (Machine::freeze, shared_baseline), so any number of
/// forks on any threads can replicate from it concurrently and keep it
/// alive for their reverts.
class MachineBaseline : public std::enable_shared_from_this<MachineBaseline> {
 public:
  MachineBaseline() = default;
  MachineBaseline(const MachineBaseline&) = delete;
  MachineBaseline& operator=(const MachineBaseline&) = delete;

  const MachineConfig& config() const { return config_; }
  const std::shared_ptr<const MemoryImage>& image() const { return image_; }
  /// Current references to the shared image: this baseline plus every live
  /// fork (the soak tests bound it to prove forks release their frames).
  long image_use_count() const { return image_.use_count(); }

 private:
  friend class SnapshotAccess;

  struct CpuImage {
    std::uint64_t regs[isa::kNumRegisters] = {};
    std::uint64_t reg_ready[isa::kNumRegisters] = {};
    std::uint64_t pc = 0;
    std::uint64_t cycle = 0;
    std::uint64_t retired = 0;
    std::uint64_t spec_episodes = 0;
    CpuMitigationStats mstats;
    bool halted = true;
    Fault fault;
  };

  MachineConfig config_;
  std::shared_ptr<const MemoryImage> image_;
  std::optional<MemoryHierarchy> hierarchy_;
  std::optional<BranchPredictor> predictor_;
  Pmu pmu_;
  // Default-initialised exactly like a freshly constructed Cpu.
  CpuImage cpu_;
};

/// Process-wide fork baseline for `config`: one pristine baseline per
/// distinct config (thread-safe, built at most once). Sessions fork it, so
/// every session of a config shares one image and one micro-architectural
/// copy source; a fork is bit-identical to Machine(config).
std::shared_ptr<const MachineBaseline> shared_baseline(
    const MachineConfig& config);

/// Content hashes for memo keys (support/memo.hpp) covering every field
/// that influences simulated behaviour.
std::uint64_t hash_machine_config(const MachineConfig& config);
std::uint64_t hash_kernel_config(const KernelConfig& config);
std::uint64_t hash_program(const Program& program);

}  // namespace crs::sim
