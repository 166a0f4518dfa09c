// The Faulter+Patcher fix-point loop (Fig. 2) on both case studies: the
// paper's Section V-C claims, instruction-skip model.
#include <gtest/gtest.h>

#include "emu/machine.h"
#include "fault/campaign.h"
#include "guests/guests.h"
#include "harden/report.h"
#include "patch/pipeline.h"

namespace r2r {
namespace {

using guests::Guest;

fault::CampaignConfig skip_only() {
  fault::CampaignConfig config;
  config.models.bit_flip = false;
  return config;
}

class SkipPipeline : public testing::TestWithParam<const Guest*> {};

TEST_P(SkipPipeline, ReachesFixpointWithZeroSkipVulnerabilities) {
  const Guest& guest = *GetParam();
  const elf::Image input = guests::build_image(guest);

  patch::PipelineConfig config;
  config.campaign = skip_only();
  const patch::PipelineResult result =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);

  EXPECT_TRUE(result.fixpoint());
  // Section V-C: "In the case of the instruction skip fault model, we were
  // able to resolve all the vulnerabilities".
  EXPECT_EQ(result.final_campaign.vulnerabilities.size(), 0u)
      << guest.name << " retains skip vulnerabilities after patching";
}

TEST_P(SkipPipeline, HardenedBinaryPreservesBehaviour) {
  const Guest& guest = *GetParam();
  const elf::Image input = guests::build_image(guest);
  patch::PipelineConfig config;
  config.campaign = skip_only();
  const patch::PipelineResult result =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);

  const emu::RunResult good = emu::run_image(result.hardened, guest.good_input);
  EXPECT_EQ(good.output, guest.good_output);
  EXPECT_EQ(good.exit_code, guest.good_exit);
  const emu::RunResult bad = emu::run_image(result.hardened, guest.bad_input);
  EXPECT_EQ(bad.output, guest.bad_output);
  EXPECT_EQ(bad.exit_code, guest.bad_exit);
}

TEST_P(SkipPipeline, OverheadIsTargetedNotHolistic) {
  // Table V shape: the Faulter+Patcher overhead stays well below the
  // Hybrid/holistic range because only vulnerable points are patched.
  const Guest& guest = *GetParam();
  const elf::Image input = guests::build_image(guest);
  patch::PipelineConfig config;
  config.campaign = skip_only();
  const patch::PipelineResult result =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);

  EXPECT_GT(result.hardened_code_size, result.original_code_size);
  EXPECT_LT(result.overhead_percent(), 100.0) << "targeted patching exploded";
}

INSTANTIATE_TEST_SUITE_P(CaseStudies, SkipPipeline,
                         testing::Values(&guests::pincheck(), &guests::bootloader(),
                                         &guests::toymov()),
                         [](const testing::TestParamInfo<const Guest*>& info) {
                           return info.param->name;
                         });

TEST(PipelineIterations, FirstIterationFindsVulnerabilitiesInPincheck) {
  const Guest& guest = guests::pincheck();
  const elf::Image input = guests::build_image(guest);
  patch::PipelineConfig config;
  config.campaign = skip_only();
  const patch::PipelineResult result =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);
  ASSERT_FALSE(result.iterations.empty());
  EXPECT_GT(result.iterations.front().successful_faults, 0u);
  EXPECT_GT(result.iterations.front().patches_applied, 0u);
  // The loop must actually iterate to a clean final campaign.
  EXPECT_EQ(result.iterations.back().successful_faults, 0u);
}

// ---- order-2 (pair-aware) fix point ----------------------------------------

fault::CampaignConfig skip_pairs() {
  fault::CampaignConfig config;
  config.models.bit_flip = false;
  config.models.order = 2;
  config.models.pair_window = 8;
  config.threads = 0;  // hardware concurrency; results are thread-invariant
  return config;
}

class Order2Pipeline : public testing::TestWithParam<const Guest*> {};

TEST_P(Order2Pipeline, ReachesOrderTwoFixpointWithZeroResidualPairs) {
  // The order-2 gap: the Fig. 2 loop declares fixpoint on binaries a fault
  // *pair* still breaks. With campaign order 2 the loop continues past the
  // order-1 fixpoint, reinforcing every implicated site until the pair
  // sweep comes back clean — on all three guests, within the shared cap.
  const Guest& guest = *GetParam();
  const elf::Image input = guests::build_image(guest);

  patch::PipelineConfig config;
  config.campaign = skip_pairs();
  const patch::PipelineResult result =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);

  EXPECT_TRUE(result.fixpoint()) << guest.name;
  EXPECT_TRUE(result.clean_at(2)) << guest.name;
  EXPECT_EQ(result.final_campaign.vulnerabilities.size(), 0u) << guest.name;
  EXPECT_EQ(result.final_campaign.pair_vulnerabilities.size(), 0u)
      << guest.name << " retains double-fault vulnerabilities after reinforcement";
  EXPECT_GT(result.final_campaign.total_pairs, 0u) << guest.name;

  // The trajectory: order-1 iterations first, then order-2 ones; the first
  // order-2 pass must have found the residual pairs PR 2 demonstrated, and
  // the last one must be clean.
  ASSERT_GE(result.iterations.size(), 2u);
  EXPECT_EQ(result.iterations.front().order, 1u);
  std::uint64_t first_order2_pairs = 0;
  bool seen_order2 = false;
  for (const auto& iteration : result.iterations) {
    if (!seen_order2 && iteration.order == 2) {
      seen_order2 = true;
      first_order2_pairs = iteration.successful_pairs;
    }
  }
  ASSERT_TRUE(seen_order2);
  EXPECT_GT(first_order2_pairs, 0u)
      << guest.name << ": order-1 hardening left no pairs; the scenario degenerated";
  EXPECT_EQ(result.iterations.back().order, 2u);
  EXPECT_EQ(result.iterations.back().successful_pairs, 0u);

  // Overhead bookkeeping: original <= order-1 fixpoint <= order-2 fixpoint.
  EXPECT_GT(result.order1_code_size(), result.original_code_size);
  EXPECT_GT(result.hardened_code_size, result.order1_code_size());
  EXPECT_GT(result.order2_overhead_delta_percent(), 0.0);

  // Behaviour preserved through the deeper redundancy patterns.
  const emu::RunResult good = emu::run_image(result.hardened, guest.good_input);
  EXPECT_EQ(good.output, guest.good_output);
  EXPECT_EQ(good.exit_code, guest.good_exit);
  const emu::RunResult bad = emu::run_image(result.hardened, guest.bad_input);
  EXPECT_EQ(bad.output, guest.bad_output);
  EXPECT_EQ(bad.exit_code, guest.bad_exit);
}

INSTANTIATE_TEST_SUITE_P(CaseStudies, Order2Pipeline,
                         testing::ValuesIn(guests::all_guests()),
                         [](const testing::TestParamInfo<const Guest*>& info) {
                           return info.param->name;
                         });

TEST(Order2PipelineDeterminism, ThreadCountDoesNotChangeTheHardenedBinary) {
  // The acceptance bar's second half: the order-2 loop is driven by engine
  // sweeps that are bit-identical across thread counts, so the *hardened
  // artifact* — not just the campaign counters — must be byte-identical too.
  const Guest& guest = guests::pincheck();
  const elf::Image input = guests::build_image(guest);

  patch::PipelineConfig serial;
  serial.campaign = skip_pairs();
  serial.campaign.threads = 1;
  patch::PipelineConfig parallel = serial;
  parallel.campaign.threads = 8;

  const patch::PipelineResult one =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, serial);
  const patch::PipelineResult eight =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, parallel);

  EXPECT_EQ(elf::write_elf(one.hardened), elf::write_elf(eight.hardened));
  // Order-1 results bit-identical at every thread count, on the final image.
  EXPECT_EQ(one.final_campaign.vulnerabilities, eight.final_campaign.vulnerabilities);
  EXPECT_EQ(one.final_campaign.outcome_counts, eight.final_campaign.outcome_counts);
  EXPECT_EQ(one.final_campaign.total_faults, eight.final_campaign.total_faults);
  EXPECT_EQ(one.final_campaign.pair_vulnerabilities,
            eight.final_campaign.pair_vulnerabilities);
  EXPECT_EQ(one.final_campaign.pair_outcome_counts,
            eight.final_campaign.pair_outcome_counts);
  ASSERT_EQ(one.iterations.size(), eight.iterations.size());
  for (std::size_t i = 0; i < one.iterations.size(); ++i) {
    EXPECT_EQ(one.iterations[i].successful_pairs, eight.iterations[i].successful_pairs);
    EXPECT_EQ(one.iterations[i].patches_applied, eight.iterations[i].patches_applied);
  }
}

TEST(OrderLadderPipeline, ResidualRiskExitReportsWhatTheFinalSweepProves) {
  // pincheck at order 3 ends in a residual-risk fix-point: one triple's
  // sites cannot be reinforced further. Its final order-3 sweep still
  // proves order 2 clean (no single fault, no pair), so the flag must say
  // so; the order-2 overhead is the order-2 milestone, and the final
  // overhead is labelled as order 3's, at residual risk.
  const Guest& guest = guests::pincheck();
  const elf::Image input = guests::build_image(guest);
  patch::PipelineConfig config;
  config.campaign = skip_pairs();
  config.campaign.models.order = 3;
  const patch::PipelineResult result =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);

  EXPECT_TRUE(result.fixpoint());
  EXPECT_FALSE(result.clean_at(3));
  EXPECT_FALSE(result.final_campaign.tuple_vulnerabilities.empty());
  EXPECT_TRUE(result.final_campaign.vulnerabilities.empty());
  ASSERT_FALSE(result.final_campaign.tuple_levels.empty());
  EXPECT_EQ(result.final_campaign.tuple_levels.front().order, 2u);
  EXPECT_EQ(result.final_campaign.tuple_levels.front().successful, 0u);
  EXPECT_TRUE(result.clean_at(2));
  ASSERT_NE(result.milestone(2), nullptr);
  EXPECT_EQ(result.milestone(3), nullptr);
  EXPECT_LT(result.milestone(2)->code_size, result.hardened_code_size);

  const std::string overhead =
      "order-1 53.2% -> order-2 76.3% (+23.1 points for closing the order-2 gap) "
      "-> order-3 102.4% (residual risk)";
  const std::string text = harden::fixpoint_report("pincheck", result, "text");
  EXPECT_NE(text.find("  fix-point: yes, order-2 clean: yes, order-3 clean: NO\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("  overhead (Table-V style): " + overhead + "\n"), std::string::npos)
      << text;
  const std::string markdown = harden::fixpoint_report("pincheck", result, "markdown");
  EXPECT_NE(markdown.find("order-2 clean: **yes**; order-3 clean: **NO**. "
                          "Overhead (Table-V style): " +
                          overhead + "."),
            std::string::npos)
      << markdown;
}

// ---- every exit of the one loop ---------------------------------------------

patch::PipelineResult run_pipeline(const Guest& guest, const patch::PipelineConfig& config) {
  return patch::faulter_patcher(guests::build_image(guest), guest.good_input,
                                guest.bad_input, config);
}

TEST(PipelineExits, CapHitWithACleanFinalSweepIsAFixpoint) {
  // toymov's one skip vulnerability is patched in iteration 0; the cap then
  // sweeps the patched 261-byte image once more and finds it clean — the
  // same image --max-iterations 2 sweeps clean as its iteration 1.
  patch::PipelineConfig config;
  config.campaign = skip_only();
  config.max_iterations = 1;
  const patch::PipelineResult result = run_pipeline(guests::toymov(), config);

  EXPECT_TRUE(result.cap_hit);
  ASSERT_EQ(result.iterations.size(), 1u);
  EXPECT_EQ(result.final_campaign.order, 1u);
  EXPECT_EQ(result.hardened_code_size, 261u);
  EXPECT_TRUE(result.clean_at(1));
  EXPECT_TRUE(result.fixpoint());
  EXPECT_TRUE(result.succeeded());
  EXPECT_TRUE(result.order_milestones.empty());  // order-1 runs record none
  EXPECT_NE(harden::fixpoint_report("toymov", result, "text")
                .find("  fix-point: yes, order-1 clean: yes\n"),
            std::string::npos);
}

TEST(PipelineExits, CapHitSweepsAtTheRequestedOrder) {
  // The cap interrupts rung 1, yet the final campaign is the requested
  // order-2 sweep: 180 pairs, two of which still succeed.
  patch::PipelineConfig config;
  config.campaign = skip_pairs();
  config.max_iterations = 1;
  const patch::PipelineResult result = run_pipeline(guests::toymov(), config);

  EXPECT_TRUE(result.cap_hit);
  ASSERT_EQ(result.iterations.size(), 1u);
  EXPECT_EQ(result.iterations.front().order, 1u);
  EXPECT_EQ(result.final_campaign.order, 2u);
  EXPECT_EQ(result.final_campaign.total_pairs, 180u);
  EXPECT_GT(result.final_campaign.successful_at(2), 0u);
  EXPECT_TRUE(result.clean_at(1));
  EXPECT_FALSE(result.clean_at(2));
  EXPECT_FALSE(result.fixpoint());
  EXPECT_FALSE(result.succeeded());
  EXPECT_EQ(result.milestone(1), nullptr);  // the ladder never left rung 1
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"total_pairs\": 180,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"fixpoint\": false,"), std::string::npos) << json;
}

TEST(PipelineExits, UnpatchableRung1ResidueClimbsWhenOrder2IsRequested) {
  // pincheck under skip+bit_flip keeps 9 order-1 faults no pattern can
  // patch. An order-1 run stops there; an order-2 run leaves rung 1,
  // recording milestone 1 at that image, and sweeps pairs.
  patch::PipelineConfig config;
  config.campaign.models.order = 2;
  config.campaign.models.pair_window = 1;  // keeps the bit-flip pair sweep small
  config.campaign.threads = 0;
  config.max_iterations = 3;
  const patch::PipelineResult result = run_pipeline(guests::pincheck(), config);

  ASSERT_EQ(result.iterations.size(), 3u);
  EXPECT_EQ(result.iterations[1].order, 1u);
  EXPECT_EQ(result.iterations[1].successful_faults, 9u);
  EXPECT_EQ(result.iterations[1].patches_applied, 0u);
  EXPECT_EQ(result.iterations[2].order, 2u);
  ASSERT_NE(result.milestone(1), nullptr);
  EXPECT_EQ(result.order1_code_size(), result.iterations[1].code_size);
  EXPECT_TRUE(result.cap_hit);
  EXPECT_EQ(result.final_campaign.order, 2u);
  EXPECT_FALSE(result.clean_at(1));
  EXPECT_FALSE(result.succeeded());
}

TEST(PipelineExits, Order1ResidualRiskIsAFixpointButNotOrder1Clean) {
  // pincheck --order 1 with the default models: the residual-risk exit.
  // The verdict is the paper's fix-point (exit 0), but the report says the
  // final sweep is not order-1 clean and claims nothing about order 2.
  const patch::PipelineResult result = run_pipeline(guests::pincheck(), {});

  EXPECT_FALSE(result.cap_hit);
  EXPECT_EQ(result.final_campaign.order, 1u);
  EXPECT_EQ(result.final_campaign.successful_at(1), 9u);
  EXPECT_TRUE(result.fixpoint());
  EXPECT_TRUE(result.succeeded());
  EXPECT_FALSE(result.clean_at(1));
  EXPECT_FALSE(result.clean_at(2));

  const std::string text = harden::fixpoint_report("pincheck", result, "text");
  EXPECT_NE(text.find("  fix-point: yes, order-1 clean: NO\n"
                      "  overhead (Table-V style): order-1 79.3% (residual risk)\n"),
            std::string::npos)
      << text;
  const std::string markdown = harden::fixpoint_report("pincheck", result, "markdown");
  EXPECT_NE(markdown.find("Fix-point: **yes**; order-1 clean: **NO**. Overhead "
                          "(Table-V style): order-1 79.3% (residual risk)."),
            std::string::npos)
      << markdown;
  EXPECT_EQ(markdown.find("order-2"), std::string::npos) << markdown;
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"fixpoint\": true,\n  \"order2_fixpoint\": false,\n"
                      "  \"orderk_fixpoint\": false,"),
            std::string::npos)
      << json;
}

TEST(PipelineBitFlip, BitFlipVulnerabilitiesAreReducedInPincheck) {
  // Section V-C: "In the case of the single bit flip fault model we were
  // able to reduce the number of vulnerable points by 50%".
  const Guest& guest = guests::pincheck();
  const elf::Image input = guests::build_image(guest);

  fault::CampaignConfig flips;
  flips.models.skip = false;
  const fault::CampaignResult before =
      fault::run_campaign(input, guest.good_input, guest.bad_input, flips);
  ASSERT_GT(before.vulnerable_addresses().size(), 0u);

  patch::PipelineConfig config;
  config.campaign = flips;
  config.max_iterations = 6;
  const patch::PipelineResult result =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);

  const std::size_t after = result.final_campaign.vulnerable_addresses().size();
  EXPECT_LE(after, before.vulnerable_addresses().size() / 2)
      << "bit-flip vulnerable points not reduced by at least 50%";
}

}  // namespace
}  // namespace r2r
