// Golden-file style tests for the report/JSON surfaces: the exact text of
// harden::fixpoint_report and of the order-2 campaign surfaces
// (residual_tuple_fault_section, tuple_campaign_markdown_section,
// TupleCampaignResult::to_json) on fixed inputs, and the field inventory of
// the campaign JSON documents on a real synthetic-guest sweep. A report
// refactor that drops a field or reshuffles a column fails here, not in a
// downstream consumer.
#include <gtest/gtest.h>

#include <string>

#include "elf/image.h"
#include "fault/campaign.h"
#include "guests/guests.h"
#include "guests/synth.h"
#include "harden/report.h"
#include "patch/pipeline.h"
#include "sim/engine.h"

namespace r2r {
namespace {

// ---- fixed fixtures ---------------------------------------------------------

patch::PipelineResult fixed_pipeline_result() {
  patch::PipelineResult result;
  patch::IterationReport it0;
  it0.order = 1;
  it0.successful_faults = 4;
  it0.vulnerable_points = 3;
  it0.patches_applied = 3;
  it0.code_size = 100;
  patch::IterationReport it1;
  it1.order = 1;
  it1.code_size = 148;
  patch::IterationReport it2;
  it2.order = 2;
  it2.total_pairs = 500;
  it2.successful_pairs = 2;
  it2.strictly_second_order = 2;
  it2.pair_patch_sites = 3;
  it2.patches_applied = 3;
  it2.code_size = 148;
  patch::IterationReport it3;
  it3.order = 2;
  it3.total_pairs = 520;
  it3.code_size = 180;
  result.iterations = {it0, it1, it2, it3};
  // An order-2 run whose clean final sweep ran at order 2; the ladder left
  // rung 1 at 148 bytes. The statuses derive from these.
  result.requested_order = 2;
  result.final_campaign.order = 2;
  result.original_code_size = 100;
  result.order_milestones = {{1, 148}};
  result.hardened_code_size = 180;
  return result;
}

/// An order-2 sweep result: 1252 pairs over a 161-entry trace, two
/// successful pairs sharing their golden addresses, whose second fault
/// struck off the golden trace.
sim::TupleCampaignResult fixed_pair_result() {
  sim::TupleCampaignResult pairs;
  pairs.order = 2;
  pairs.total_tuples = 1252;
  pairs.enumerated_tuples = 1252;
  pairs.trace_length = 161;
  pairs.pair_window = 8;
  pairs.sample_seed = 24301;
  pairs.order1.total_faults = 161;
  pairs.order1.trace_length = 161;
  pairs.order1.outcome_counts[sim::Outcome::kNoEffect] = 150;
  pairs.order1.outcome_counts[sim::Outcome::kDetected] = 11;
  pairs.outcome_counts[sim::Outcome::kNoEffect] = 1000;
  pairs.outcome_counts[sim::Outcome::kSuccess] = 2;
  pairs.outcome_counts[sim::Outcome::kDetected] = 250;
  sim::TupleLevelSummary level;
  level.order = 2;
  level.enumerated = 1252;
  level.classified = 1252;
  level.successful = 2;
  level.reused_prefix = 600;
  level.reused_suffix = 500;
  level.simulated = 152;
  level.converged = 40;
  pairs.levels = {level};
  sim::TupleVulnerability v1;
  v1.faults.resize(2);
  v1.faults[0].trace_index = 10;
  v1.faults[1].trace_index = 12;
  v1.addresses = {0x401010, 0x401018};
  v1.hit_addresses = {0x401010, 0x401020};
  sim::TupleVulnerability v2 = v1;
  v2.faults[1].trace_index = 13;
  pairs.vulnerabilities = {v1, v2};
  return pairs;
}

// ---- exact goldens ----------------------------------------------------------

TEST(ReportGolden, Order2FixpointSection) {
  const std::string expected =
      "order-2 fix-point trajectory: demo\n"
      "| iteration | order | faults | pairs | sites | patched | code bytes |\n"
      "|-----------|-------|--------|-------|-------|---------|------------|\n"
      "| 0         | 1     | 4      | -     | -     | 3       | 100        |\n"
      "| 1         | 1     | 0      | -     | -     | 0       | 148        |\n"
      "| 2         | 2     | 0      | 2/500 | 3     | 3       | 148        |\n"
      "| 3         | 2     | 0      | 0/520 | 0     | 0       | 180        |\n"
      "  fix-point: yes, order-2 clean: yes\n"
      "  overhead (Table-V style): order-1 48.0% -> order-2 80.0% "
      "(+32.0 points for closing the order-2 gap)\n";
  EXPECT_EQ(harden::fixpoint_report("demo", fixed_pipeline_result(), "text"),
            expected);
}

TEST(ReportGolden, Order2OverheadDeltaIsTheDifferenceOfThePrintedFigures) {
  // 27.96% and 31.24% print as 28.0% and 31.2%; their unrounded difference
  // (3.28) would print +3.3 and the line would not add up.
  patch::PipelineResult result;
  result.requested_order = 2;
  result.final_campaign.order = 2;
  result.original_code_size = 10000;
  result.hardened_code_size = 13124;
  result.order_milestones = {{1, 12796}, {2, 13124}};
  EXPECT_EQ(harden::fixpoint_report("demo", result, "text"),
            "order-2 fix-point trajectory: demo\n"
            "| iteration | order | faults | pairs | sites | patched | code bytes |\n"
            "|-----------|-------|--------|-------|-------|---------|------------|\n"
            "  fix-point: yes, order-2 clean: yes\n"
            "  overhead (Table-V style): order-1 28.0% -> order-2 31.2% "
            "(+3.2 points for closing the order-2 gap)\n");
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"overhead_percent\": 31.2,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"order1_overhead_percent\": 28.0,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"order2_overhead_delta_percent\": 3.2,"), std::string::npos)
      << json;
  EXPECT_NE(harden::fixpoint_report("demo", result, "markdown")
                .find("order-1 28.0% -> order-2 31.2% (+3.2 points"),
            std::string::npos);
}

TEST(ReportGolden, ResidualPairSection) {
  const std::string expected =
      "residual 2-tuple campaign: demo\n"
      "  order-1 faults: 161 (0 successful)\n"
      "  order-2 tuples: 1252 within window 8 (2 successful, 2 invisible to "
      "order 1)\n"
      "  levels:         order 2: 1252 classified (2 successful)\n"
      "  pruning:        1100 tuples reused from lower-order profiles (87.9%), 152 "
      "simulated\n"
      "  patch sites:    0x401010, 0x401020\n"
      "| tuple outcome    | count |\n"
      "|------------------|-------|\n"
      "| no-effect        | 1000  |\n"
      "| successful-fault | 2     |\n"
      "| detected         | 250   |\n"
      "| fault addresses      | successful tuples |\n"
      "|----------------------|-------------------|\n"
      "| 0x401010 -> 0x401018 | 2                 |\n";
  EXPECT_EQ(harden::residual_tuple_fault_section("demo", fixed_pair_result()), expected);
}

TEST(ReportGolden, PairCampaignMarkdown) {
  const std::string expected =
      "### 2-tuple fault campaign: demo\n"
      "\n"
      "1252 tuples within window 8 over 161 trace entries; **2 successful**, 2 "
      "invisible to order 1. Order-1 phase: 161 faults, 0 successful. Levels: "
      "order 2: 1252 classified (2 successful). Pruning: 1100 tuples reused from "
      "lower-order profiles, 152 simulated.\n"
      "\n"
      "| tuple outcome | count |\n"
      "| --- | --- |\n"
      "| no-effect | 1000 |\n"
      "| successful-fault | 2 |\n"
      "| detected | 250 |\n"
      "\n"
      "| fault addresses | successful tuples |\n"
      "| --- | --- |\n"
      "| 0x401010 -> 0x401018 | 2 |\n";
  EXPECT_EQ(harden::tuple_campaign_markdown_section("demo", fixed_pair_result()),
            expected);
}

TEST(ReportGolden, CleanCampaignRendersNoVulnerabilityTable) {
  sim::TupleCampaignResult clean = fixed_pair_result();
  clean.vulnerabilities.clear();
  clean.outcome_counts.erase(sim::Outcome::kSuccess);
  const std::string section = harden::residual_tuple_fault_section("demo", clean);
  EXPECT_NE(section.find("no residual 2-tuple vulnerabilities."), std::string::npos);
  EXPECT_EQ(section.find("patch sites"), std::string::npos);
  EXPECT_EQ(section.find("| fault addresses"), std::string::npos);
}

TEST(ReportGolden, PairCampaignJson) {
  const std::string expected =
      "{\n"
      "  \"order\": 2,\n"
      "  \"trace_length\": 161,\n"
      "  \"pair_window\": 8,\n"
      "  \"total_tuples\": 1252,\n"
      "  \"enumerated_tuples\": 1252,\n"
      "  \"sampled\": false,\n"
      "  \"max_tuples\": 0,\n"
      "  \"sample_seed\": 24301,\n"
      "  \"reused_suffix\": 500,\n"
      "  \"reused_prefix\": 600,\n"
      "  \"simulated_tuples\": 152,\n"
      "  \"converged_tuples\": 40,\n"
      "  \"threads\": 0,\n"
      "  \"order1_total_faults\": 161,\n"
      "  \"order1_successful\": 0,\n"
      "  \"levels\": [{\"order\": 2, \"enumerated\": 1252, \"classified\": 1252, "
      "\"successful\": 2, \"reused_suffix\": 500, \"reused_prefix\": 600, "
      "\"simulated\": 152, \"converged\": 40, \"sampled\": false}],\n"
      "  \"outcomes\": {\"no-effect\": 1000, \"successful-fault\": 2, "
      "\"detected\": 250},\n"
      "  \"vulnerable_tuples\": [{\"addresses\": [\"0x401010\", \"0x401018\"], "
      "\"hits\": 2}],\n"
      "  \"patch_sites\": [\"0x401010\", \"0x401020\"]\n"
      "}\n";
  EXPECT_EQ(fixed_pair_result().to_json(), expected);
}

// ---- field inventory on a live synthetic-guest campaign ---------------------

void expect_fields(const std::string& json, const std::vector<std::string>& fields) {
  for (const std::string& field : fields) {
    EXPECT_NE(json.find("\"" + field + "\":"), std::string::npos)
        << "JSON dropped field \"" << field << "\":\n"
        << json;
  }
}

TEST(ReportSurfaces, CampaignJsonFieldInventoryOnSynthGuest) {
  const guests::Guest guest = guests::synth::generate(36);
  const elf::Image image = guests::build_image(guest);
  sim::FaultModels models;
  models.bit_flip = false;
  const sim::Engine engine(image, guest.good_input, guest.bad_input, {});
  const sim::CampaignResult result = engine.run(models);

  const std::string json = result.to_json();
  expect_fields(json, {"trace_length", "total_faults", "checkpoint_interval",
                       "snapshot_count", "pruned_faults", "threads", "outcomes",
                       "vulnerable_points"});
  // Values must round-trip: counters rendered verbatim.
  EXPECT_NE(json.find("\"total_faults\": " + std::to_string(result.total_faults)),
            std::string::npos);
  EXPECT_NE(json.find("\"trace_length\": " + std::to_string(result.trace_length)),
            std::string::npos);
}

TEST(ReportSurfaces, PairCampaignJsonFieldInventoryOnSynthGuest) {
  const guests::Guest guest = guests::synth::generate(36);
  const elf::Image image = guests::build_image(guest);
  sim::FaultModels models;
  models.bit_flip = false;
  models.order = 2;
  models.pair_window = 4;
  const sim::Engine engine(image, guest.good_input, guest.bad_input, {});
  const sim::TupleCampaignResult result = engine.run_tuples(models);

  const std::string json = result.to_json();
  expect_fields(json, {"order", "trace_length", "pair_window", "total_tuples",
                       "enumerated_tuples", "sampled", "max_tuples", "sample_seed",
                       "reused_suffix", "reused_prefix", "simulated_tuples",
                       "converged_tuples", "threads", "order1_total_faults",
                       "order1_successful", "levels", "outcomes", "vulnerable_tuples",
                       "patch_sites"});
  EXPECT_NE(json.find("\"total_tuples\": " + std::to_string(result.total_tuples)),
            std::string::npos);

  // The rendered text section agrees with the JSON on the headline number.
  const std::string section = harden::residual_tuple_fault_section(guest.name, result);
  EXPECT_NE(section.find(std::to_string(result.total_tuples) + " within window"),
            std::string::npos);
}

}  // namespace
}  // namespace r2r
