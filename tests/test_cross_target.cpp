// Cross-ISA acceptance for the RV32I backend (docs/targets.md): the
// Faulter+Patcher loop must reach the same end state on rv32i guests that
// the paper's Table III reaches on x86-64 — zero residual order-1
// vulnerabilities under the full default fault models (skip + transient
// fetch bit-flip), with a hardened binary that is byte-identical across
// worker-thread counts. The decoded-block cache's differential oracle is
// pinned per registered target as well: cached dispatch must match
// per-step fetch+decode instruction-for-instruction on every backend.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "elf/image.h"
#include "emu/machine.h"
#include "fault/campaign.h"
#include "guests/guests.h"
#include "isa/target.h"
#include "patch/pipeline.h"

namespace r2r {
namespace {

using guests::Guest;

class Rv32iFixpoint : public testing::TestWithParam<const Guest*> {};

TEST_P(Rv32iFixpoint, ReachesZeroResidualUnderDefaultModels) {
  const Guest& guest = *GetParam();
  const elf::Image input = guests::build_image(guest);

  // Default models: skip + bit flip — the fixed-width encoding's hard
  // case. Parity-protected custom words and the checked jal are what make
  // the bit-flip half converge (see docs/targets.md).
  const patch::PipelineResult result = patch::faulter_patcher(
      input, guest.good_input, guest.bad_input, patch::PipelineConfig{});

  EXPECT_TRUE(result.fixpoint()) << guest.name;
  EXPECT_EQ(result.final_campaign.vulnerabilities.size(), 0u)
      << guest.name << " retains order-1 vulnerabilities on rv32i";

  const emu::RunResult good = emu::run_image(result.hardened, guest.good_input);
  EXPECT_EQ(good.output, guest.good_output);
  EXPECT_EQ(good.exit_code, guest.good_exit);
  const emu::RunResult bad = emu::run_image(result.hardened, guest.bad_input);
  EXPECT_EQ(bad.output, guest.bad_output);
  EXPECT_EQ(bad.exit_code, guest.bad_exit);
}

TEST_P(Rv32iFixpoint, HardenedBinaryIsThreadCountInvariant) {
  const Guest& guest = *GetParam();
  const elf::Image input = guests::build_image(guest);

  patch::PipelineConfig serial;
  serial.campaign.threads = 1;
  patch::PipelineConfig parallel;
  parallel.campaign.threads = 8;

  const patch::PipelineResult one =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, serial);
  const patch::PipelineResult eight =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, parallel);

  EXPECT_EQ(elf::write_elf(one.hardened), elf::write_elf(eight.hardened))
      << guest.name << ": hardened ELF differs between 1 and 8 worker threads";
  EXPECT_EQ(one.final_campaign.outcome_counts, eight.final_campaign.outcome_counts);
}

INSTANTIATE_TEST_SUITE_P(Rv32iGuests, Rv32iFixpoint,
                         testing::ValuesIn(guests::all_guests(isa::Arch::kRv32i)),
                         [](const testing::TestParamInfo<const Guest*>& info) {
                           return info.param->name;
                         });

class TargetBlockCacheOracle : public testing::TestWithParam<const isa::Target*> {};

TEST_P(TargetBlockCacheOracle, CachedDispatchMatchesUncachedOnEveryGuest) {
  // Differential oracle for the decoded-block cache, per target: identical
  // traces, outcomes, and step counts with and without the cache — on both
  // inputs and under each fault kind at a mid-trace step.
  const isa::Target& target = *GetParam();
  for (const Guest* guest : guests::all_guests(target.arch())) {
    SCOPED_TRACE(std::string(target.name()) + "/" + guest->name);
    const elf::Image image = guests::build_image(*guest);

    const auto run_both = [&](const std::string& input,
                              std::optional<emu::FaultSpec> fault) {
      emu::RunConfig config;
      config.record_trace = true;
      config.fault = fault;
      emu::Machine cached(image, input);
      emu::Machine uncached(image, input);
      uncached.set_block_cache_enabled(false);
      const emu::RunResult a = cached.run(config);
      const emu::RunResult b = uncached.run(config);
      EXPECT_EQ(a.reason, b.reason);
      EXPECT_EQ(a.exit_code, b.exit_code);
      EXPECT_EQ(a.output, b.output);
      EXPECT_EQ(a.steps, b.steps);
      EXPECT_EQ(a.trace.size(), b.trace.size());
      for (std::size_t i = 0; i < a.trace.size() && i < b.trace.size(); ++i) {
        if (a.trace[i].address != b.trace[i].address ||
            a.trace[i].length != b.trace[i].length) {
          ADD_FAILURE() << "trace diverges at step " << i;
          break;
        }
      }
      return a;
    };

    run_both(guest->good_input, std::nullopt);
    const emu::RunResult golden = run_both(guest->bad_input, std::nullopt);
    const std::uint64_t mid = golden.trace.size() / 2;
    using Kind = emu::FaultSpec::Kind;
    run_both(guest->bad_input, emu::FaultSpec{Kind::kSkip, mid, 0});
    run_both(guest->bad_input, emu::FaultSpec{Kind::kBitFlip, mid, 3});
    run_both(guest->bad_input, emu::FaultSpec{Kind::kRegisterBitFlip, mid, 5});
    run_both(guest->bad_input, emu::FaultSpec{Kind::kFlagFlip, mid, 3});
  }
}

INSTANTIATE_TEST_SUITE_P(AllTargets, TargetBlockCacheOracle,
                         testing::ValuesIn(isa::all_targets()),
                         [](const testing::TestParamInfo<const isa::Target*>& info) {
                           return std::string(info.param->name());
                         });

}  // namespace
}  // namespace r2r
