#include "sim/snapshot.hpp"

#include <cstring>
#include <mutex>
#include <unordered_map>

#include "support/error.hpp"
#include "support/memo.hpp"

namespace crs::sim {

/// Sole holder of friend access into the sim privates machine state needs:
/// CacheLevel's MRU memo and the Cpu counters that survive Cpu::reset.
/// Everything else copies through the public copy assignment of the
/// (value-semantic) sub-objects.
class SnapshotAccess {
 public:
  static std::shared_ptr<const MachineBaseline> freeze(const Machine& m) {
    auto base = std::make_shared<MachineBaseline>();
    base->config_ = m.config();
    base->image_ = m.memory().freeze();
    base->hierarchy_.emplace(m.hierarchy());
    scrub_mru(*base->hierarchy_);
    base->predictor_.emplace(m.predictor());
    base->pmu_ = m.pmu();
    capture_cpu(m.cpu(), base->cpu_);
    return base;
  }

  /// The baseline of a freshly constructed machine, built without one: the
  /// empty image plus fresh caches and predictor; PMU and CPU state are
  /// default-initialised exactly as a new Pmu and Cpu are.
  static std::shared_ptr<const MachineBaseline> pristine(
      const MachineConfig& config) {
    auto base = std::make_shared<MachineBaseline>();
    base->config_ = config;
    base->image_ = MemoryImage::empty(config.memory_size);
    base->hierarchy_.emplace(config.hierarchy);
    base->predictor_.emplace(config.predictor);
    return base;
  }

  /// Copies the baseline's micro-architectural and CPU state over `machine`
  /// (its memory is the baseline's image view already): cache contents +
  /// LRU stamps + partition state + per-level stats, the predictor tables,
  /// PMU counters and every CPU register/counter. The decode and block
  /// caches are deliberately NOT touched: page-version bumps already
  /// invalidate slots for every reverted page, and slots for clean pages
  /// stay warm across attempts (pure speed, never visible).
  static void load_state(Machine& machine, const MachineBaseline& base) {
    machine.hierarchy() = *base.hierarchy_;
    // The copied MRU memo would point into the baseline's storage; the next
    // access repopulates it through the search path.
    scrub_mru(machine.hierarchy());
    machine.predictor() = *base.predictor_;
    machine.pmu() = base.pmu_;
    const MachineBaseline::CpuImage& img = base.cpu_;
    Cpu& cpu = machine.cpu();
    std::memcpy(cpu.regs_, img.regs, sizeof(img.regs));
    std::memcpy(cpu.reg_ready_, img.reg_ready, sizeof(img.reg_ready));
    cpu.pc_ = img.pc;
    cpu.cycle_ = img.cycle;
    cpu.retired_ = img.retired;
    cpu.spec_episodes_ = img.spec_episodes;
    cpu.mstats_ = img.mstats;
    cpu.halted_ = img.halted;
    cpu.fault_ = img.fault;
  }

 private:
  static void scrub_mru(MemoryHierarchy& hierarchy) {
    for (CacheLevel* level :
         {&hierarchy.l1d_, &hierarchy.l1i_, &hierarchy.l2_}) {
      level->mru_line_ = ~0ull;
      level->mru_way_ = nullptr;
    }
  }

  static void capture_cpu(const Cpu& cpu, MachineBaseline::CpuImage& img) {
    std::memcpy(img.regs, cpu.regs_, sizeof(img.regs));
    std::memcpy(img.reg_ready, cpu.reg_ready_, sizeof(img.reg_ready));
    img.pc = cpu.pc_;
    img.cycle = cpu.cycle_;
    img.retired = cpu.retired_;
    img.spec_episodes = cpu.spec_episodes_;
    img.mstats = cpu.mstats_;
    img.halted = cpu.halted_;
    img.fault = cpu.fault_;
  }
};

Machine::Machine(const MachineConfig& config)
    : Machine(*SnapshotAccess::pristine(config)) {}

Machine::Machine(const MachineBaseline& base)
    : base_(base.shared_from_this()),
      config_(base.config()),
      memory_(base.image()),
      hierarchy_(config_.hierarchy),
      predictor_(config_.predictor),
      pmu_(),
      cpu_(memory_, hierarchy_, predictor_, pmu_, config_.cpu) {
  SnapshotAccess::load_state(*this, base);
}

std::shared_ptr<const MachineBaseline> Machine::freeze() const {
  return SnapshotAccess::freeze(*this);
}

std::uint64_t Machine::revert() {
  const std::uint64_t pages = memory_.revert();
  SnapshotAccess::load_state(*this, *base_);
  return pages;
}

std::shared_ptr<const MachineBaseline> shared_baseline(
    const MachineConfig& config) {
  static std::mutex mutex;
  static std::unordered_map<std::uint64_t,
                            std::shared_ptr<const MachineBaseline>>
      registry;
  const std::uint64_t key = hash_machine_config(config);
  std::lock_guard<std::mutex> lock(mutex);
  auto& slot = registry[key];
  if (slot == nullptr) slot = SnapshotAccess::pristine(config);
  return slot;
}

std::uint64_t hash_machine_config(const MachineConfig& config) {
  HashBuilder h;
  h.u64(config.memory_size);
  const auto cache = [&](const CacheConfig& c) {
    h.u32(c.size_bytes).u32(c.line_size).u32(c.ways).u32(c.partition_ways);
  };
  cache(config.hierarchy.l1d);
  cache(config.hierarchy.l1i);
  cache(config.hierarchy.l2);
  const HierarchyTimings& t = config.hierarchy.timings;
  h.u32(t.l1_hit).u32(t.l2_hit).u32(t.memory);
  h.u32(t.fetch_l1_hit).u32(t.fetch_l1_miss).u32(t.flush_cost);
  h.u32(config.predictor.pht_entries)
      .u32(config.predictor.btb_entries)
      .u32(config.predictor.rsb_entries);
  const CpuConfig& c = config.cpu;
  h.u32(c.max_spec_window)
      .u32(c.rob_window)
      .u32(c.mispredict_penalty)
      .u32(c.fence_cost)
      .u32(c.syscall_cost)
      .u32(c.mul_latency)
      .u32(c.div_latency)
      .b(c.decode_cache)
      .b(c.exec_engine == ExecEngine::kBlocks)
      .b(c.honor_fence_hints)
      .b(c.slh)
      .b(c.no_indirect_speculation);
  return h.digest();
}

std::uint64_t hash_kernel_config(const KernelConfig& config) {
  HashBuilder h;
  h.u64(config.stack_size)
      .b(config.aslr)
      .u64(config.aslr_range)
      .b(config.aslr_stack)
      .u64(config.aslr_stack_range)
      .b(config.heap_guard)
      .u64(config.heap_base)
      .u64(config.heap_size)
      .u64(config.seed)
      .i64(config.max_execve_depth)
      .b(config.flush_predictors_on_switch)
      .b(config.flush_l1_on_switch)
      .b(config.ward_split);
  return h.digest();
}

std::uint64_t hash_program(const Program& program) {
  HashBuilder h;
  h.str(program.name).u64(program.link_base).u64(program.entry);
  h.u64(program.segments.size());
  for (const Segment& s : program.segments) {
    h.str(s.name).u64(s.addr).u32(static_cast<std::uint32_t>(s.perm));
    h.u64(s.bytes.size()).bytes(s.bytes.data(), s.bytes.size());
  }
  h.u64(program.relocations.size());
  for (const Relocation& r : program.relocations) {
    h.u64(r.segment).u64(r.offset).u32(static_cast<std::uint32_t>(r.kind));
  }
  h.u64(program.symbols.size());
  for (const auto& [name, addr] : program.symbols) {
    h.str(name).u64(addr);
  }
  return h.digest();
}

}  // namespace crs::sim
