// Machine state: fork and revert, the one oracle.
//
// Every Machine is a view of a frozen baseline. The design hangs on one
// promise — a fork, the same fork after any number of reverts, and
// Machine(config) are indistinguishable, so sessions, pools of attempts and
// fresh machines all reproduce the golden traces. These tests pin that
// promise on raw machine runs (a real workload and the fuzz corpus,
// self-modifying programs included), sibling isolation, and a long revert
// soak that bounds private frames and shared-image references.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "fuzz/generator.hpp"
#include "sim/snapshot.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

namespace crs {
namespace {

/// Everything observable about one raw kernel run of a real workload.
std::string machine_fingerprint(sim::Machine& machine) {
  sim::Kernel kernel(machine);
  workloads::WorkloadOptions opt;
  opt.scale = 4;
  kernel.register_binary("/bin/fork",
                         workloads::build_workload("basicmath", opt));
  kernel.start_with_strings("/bin/fork", {"benign"});
  const sim::StopReason stop = kernel.run(200'000'000);
  std::ostringstream os;
  os << static_cast<int>(stop) << '|'
     << machine.memory().read_u64(kernel.resolved_symbol("/bin/fork", "result"))
     << '|' << machine.cpu().retired() << '|' << machine.cpu().cycle() << '|'
     << machine.pmu().count(sim::Event::kL1dMisses) << '|'
     << machine.pmu().count(sim::Event::kBranchMispredicts);
  return os.str();
}

/// Everything observable about a fuzz-corpus program's run on `machine`.
/// Self-modifying programs get writable text, as the fuzz differ gives them.
std::string fuzz_fingerprint(sim::Machine& machine, const sim::Program& prog,
                             bool smc) {
  sim::Kernel kernel(machine);
  kernel.register_binary("/bin/fuzz", prog);
  kernel.start_with_strings("/bin/fuzz", {"fuzz"});
  if (smc) {
    const auto& img = kernel.main_image();
    const auto page = sim::Memory::kPageSize;
    const auto lo = img.lo / page * page;
    const auto hi = (img.hi + page - 1) / page * page;
    machine.memory().set_permissions(
        lo, hi - lo,
        static_cast<sim::Perm>(sim::kPermRead | sim::kPermWrite |
                               sim::kPermExec));
  }
  const sim::StopReason stop = kernel.run(2'000'000);
  std::ostringstream os;
  os << static_cast<int>(stop) << '|' << kernel.output_string() << '|'
     << machine.cpu().retired() << '|' << machine.cpu().cycle();
  for (std::size_t e = 0; e < sim::kEventCount; ++e) {
    os << ',' << machine.pmu().count(static_cast<sim::Event>(e));
  }
  for (int r = 0; r < isa::kNumRegisters; ++r) {
    os << ',' << machine.cpu().reg(r);
  }
  return os.str();
}

TEST(MachineFork, ForkRevertsAndFreshBuildAgreeBitForBit) {
  const sim::MachineConfig config;
  std::string fresh;
  {
    sim::Machine machine(config);
    fresh = machine_fingerprint(machine);
  }
  sim::Machine fork(*sim::shared_baseline(config));
  EXPECT_EQ(fork.memory().promoted_pages(), 0u);  // nothing dirtied yet
  EXPECT_EQ(machine_fingerprint(fork), fresh);
  // The run dirtied only the pages it touched, not the address space.
  const std::uint64_t promoted = fork.memory().promoted_pages();
  EXPECT_GT(promoted, 0u);
  EXPECT_LT(promoted * sim::Memory::kPageSize, config.memory_size / 2);
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(fork.revert(), 0u);
    EXPECT_EQ(machine_fingerprint(fork), fresh) << "revert " << i;
  }
  // Reverts reuse the promoted frames instead of allocating new ones.
  EXPECT_EQ(fork.memory().promoted_pages(), promoted);
}

TEST(MachineFork, FuzzCorpusAgreesAcrossFreshForkAndReverts) {
  fuzz::GeneratorOptions options;
  options.allow_smc = true;
  const sim::MachineConfig config;
  sim::Machine reused(*sim::shared_baseline(config));
  int smc_programs = 0;
  for (std::uint64_t i = 0; i < 12; ++i) {
    Rng rng(derive_seed(0xF00D, i));
    const fuzz::FuzzProgram prog = fuzz::generate_program(rng, options);
    const sim::Program binary =
        casm::assemble(prog.source() + casm::runtime_library(),
                       {.name = "fuzz", .link_base = 0x10000});
    smc_programs += prog.uses_smc ? 1 : 0;
    sim::Machine fresh(config);
    const std::string expected =
        fuzz_fingerprint(fresh, binary, prog.uses_smc);
    // `reused` still holds the previous program's bytes and warm decode and
    // block caches: the revert must leave none of it visible.
    reused.revert();
    EXPECT_EQ(fuzz_fingerprint(reused, binary, prog.uses_smc), expected)
        << "program " << i;
  }
  EXPECT_GT(smc_programs, 0) << "corpus never exercised self-modifying code";
}

TEST(MachineFork, SiblingForksDivergeIndependently) {
  const sim::MachineConfig config;
  const auto base = sim::shared_baseline(config);
  sim::Machine a(*base);
  sim::Machine b(*base);
  // Self-modifying divergence: write different bytes into the same page of
  // each sibling; the shared image and the other fork must not see them.
  a.memory().write_u64(0x1000, 0x11);
  b.memory().write_u64(0x1000, 0x22);
  EXPECT_EQ(a.memory().read_u64(0x1000), 0x11ull);
  EXPECT_EQ(b.memory().read_u64(0x1000), 0x22ull);
  sim::Machine c(*base);
  EXPECT_EQ(c.memory().read_u64(0x1000), 0u);
}

TEST(MachineFork, FrozenStateForksAndRevertsToTheFreezePoint) {
  sim::Machine machine;
  machine.memory().set_permissions(0x1000, sim::Memory::kPageSize,
                                   sim::kPermRW);
  machine.memory().write_u64(0x1000, 0x42);
  machine.pmu().add(sim::Event::kCycles, 7);
  const auto base = machine.freeze();

  sim::Machine fork(*base);
  EXPECT_EQ(fork.memory().read_u64(0x1000), 0x42u);
  EXPECT_EQ(fork.pmu().count(sim::Event::kCycles), 7u);
  fork.memory().write_u64(0x1000, 0x43);
  fork.memory().set_permissions(0x1000, sim::Memory::kPageSize, sim::kPermNone);
  fork.pmu().add(sim::Event::kCycles, 1);
  EXPECT_EQ(fork.revert(), 1u);
  EXPECT_EQ(fork.memory().read_u64(0x1000), 0x42u);
  EXPECT_EQ(fork.memory().permissions_at(0x1000), sim::kPermRW);
  EXPECT_EQ(fork.pmu().count(sim::Event::kCycles), 7u);
}

// A campaign-length revert loop: the private store and the shared image's
// reference count must stay bounded, however many attempts run and however
// many sibling forks come and go.
TEST(MachineFork, RevertSoakKeepsFramesAndImageReferencesBounded) {
  const sim::MachineConfig config;
  const auto base = sim::shared_baseline(config);
  // Steady-state references: registry + our handle here. Live forks add
  // one each; destroyed forks must give theirs back.
  const long idle = base->image_use_count();
  sim::Machine machine(*base);
  constexpr std::uint64_t kPages = 8;
  for (int attempt = 0; attempt < 3000; ++attempt) {
    const std::uint64_t page = static_cast<std::uint64_t>(attempt) % kPages;
    machine.memory().write_u64(page * sim::Memory::kPageSize + 64,
                               static_cast<std::uint64_t>(attempt));
    machine.memory().set_permissions(0, sim::Memory::kPageSize, sim::kPermRW);
    {
      sim::Machine sibling(*base);
      sibling.memory().write_u64(64, 1);
      ASSERT_EQ(base->image_use_count(), idle + 2);
    }
    ASSERT_EQ(machine.revert(), page == 0 ? 1u : 2u);
    ASSERT_EQ(machine.memory().read_u64(page * sim::Memory::kPageSize + 64),
              0u);
    ASSERT_LE(machine.memory().promoted_pages(), kPages);
  }
  EXPECT_EQ(machine.memory().promoted_pages(), kPages);
  EXPECT_EQ(base->image_use_count(), idle + 1);
}

}  // namespace
}  // namespace crs
