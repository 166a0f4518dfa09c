#include "patch/pipeline.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "bir/assemble.h"
#include "bir/recover.h"
#include "obs/obs.h"
#include "support/error.h"
#include "support/strings.h"

namespace r2r::patch {

namespace {

IterationReport make_report(const fault::CampaignResult& campaign, unsigned order,
                            std::uint64_t code_size) {
  IterationReport report;
  report.order = order;
  report.successful_faults = campaign.vulnerabilities.size();
  report.vulnerable_points = campaign.vulnerable_addresses().size();
  report.code_size = code_size;
  return report;
}

/// Latest-wins milestone bookkeeping: the ladder can drop back and re-prove
/// an order clean at a larger code size; the trajectory reports the size
/// that finally stuck.
void record_milestone(std::vector<OrderMilestone>& milestones, unsigned order,
                      std::uint64_t code_size) {
  for (OrderMilestone& milestone : milestones) {
    if (milestone.order == order) {
      milestone.code_size = code_size;
      return;
    }
  }
  milestones.push_back({order, code_size});
  std::sort(milestones.begin(), milestones.end(),
            [](const OrderMilestone& a, const OrderMilestone& b) {
              return a.order < b.order;
            });
}

}  // namespace

PipelineResult faulter_patcher(const elf::Image& input, const std::string& good_input,
                               const std::string& bad_input,
                               const PipelineConfig& config) {
  const unsigned requested_order = config.campaign.models.order;
  if (requested_order < 1 || requested_order > fault::kMaxCampaignOrder) {
    support::fail(support::ErrorKind::kExecution,
                  "faulter_patcher: campaign.models.order must be 1.." +
                      std::to_string(fault::kMaxCampaignOrder));
  }

  obs::Span run_span("fixpoint.run");
  static obs::Counter& iterations_total =
      obs::Metrics::instance().counter("fixpoint.iterations");
  static obs::Counter& patches_total =
      obs::Metrics::instance().counter("fixpoint.patches_applied");

  PipelineResult result;
  result.requested_order = requested_order;
  result.original_code_size = input.code_size();
  result.module = bir::recover(input);

  // The order ladder. Each pass sweeps fault sets at the current rung,
  // patches the order-1 vulnerabilities, maps every residual
  // strictly-order-m set back to its static sites (every address its faults
  // actually struck) and reinforces them at redundancy degree m. Rung 1 is
  // the paper's Fig. 2 loop: order-1 sweeps cost a fraction of a pair
  // sweep's, and every higher sweep re-checks the order-1 residue anyway
  // (at order >= 3 every level 2..m-1 is swept on the way up too), so
  // regressions reinforcement introduces at a cheaper order are caught in
  // the same pass and send the ladder back down to the lowest dirty rung —
  // never below 2. A rung proven clean advances the ladder and records its
  // code size as that order's milestone (the overhead-vs-k trajectory; ladder
  // runs only).
  const std::uint64_t pair_window = config.campaign.models.pair_window;
  fault::CampaignConfig campaign_config = config.campaign;
  unsigned rung = 1;
  const auto record = [&](unsigned order, std::uint64_t code_size) {
    if (requested_order >= 2) record_milestone(result.order_milestones, order, code_size);
  };
  const auto finish = [&](elf::Image image, fault::CampaignResult campaign) {
    result.hardened = std::move(image);
    result.final_campaign = std::move(campaign);
    result.hardened_code_size = result.hardened.code_size();
  };

  while (true) {
    if (result.iterations.size() >= config.max_iterations) {
      // Iteration cap hit: report the last patched module against the
      // *requested* order, so the caller gets that order's residue whatever
      // rung the cap interrupted. A clean sweep is a fix-point even here.
      result.cap_hit = true;
      elf::Image image = bir::assemble(result.module);
      fault::CampaignResult campaign =
          fault::run_campaign(image, good_input, bad_input, config.campaign);
      finish(std::move(image), std::move(campaign));
      if (result.clean_at(requested_order)) {
        record(requested_order, result.hardened_code_size);
      }
      break;
    }

    const unsigned iteration = static_cast<unsigned>(result.iterations.size());
    campaign_config.models.order = rung;
    obs::Span iter_span("fixpoint.iteration",
                        obs::args_u64({{"iteration", iteration}, {"order", rung}}));
    iterations_total.add(1);
    elf::Image image = bir::assemble(result.module);
    fault::CampaignResult campaign = [&] {
      obs::Span span("fixpoint.campaign");
      return fault::run_campaign(image, good_input, bad_input, campaign_config);
    }();

    IterationReport report = make_report(campaign, rung, image.code_size());
    report.total_pairs = campaign.total_pairs;
    report.successful_pairs = campaign.pair_vulnerabilities.size();
    report.total_tuples = campaign.total_tuples;
    report.successful_tuples = campaign.tuple_vulnerabilities.size();
    iter_span.set_args(obs::args_u64(
        {{"iteration", iteration},
         {"order", rung},
         {"successful_faults", report.successful_faults},
         {"successful_pairs", report.successful_pairs},
         {"successful_tuples", report.successful_tuples}}));
    // Reinforce only the strictly-order-m sets: a set one of whose faults
    // succeeds alone is just that order-1 vulnerability republished
    // (reuse-from-first pads it with golden addresses the later faults
    // never strike) — the order-1 patcher owns those sites. An order-1
    // sweep has none.
    const bool pairs = rung == 2;
    const std::vector<fault::TupleVulnerability> strict = fault::strictly_order_k(
        campaign.vulnerabilities,
        pairs ? campaign.pair_vulnerabilities : campaign.tuple_vulnerabilities);
    std::vector<std::uint64_t> sites = fault::tuple_patch_sites(strict);
    (pairs ? report.strictly_second_order : report.strictly_order_k) = strict.size();
    (pairs ? report.pair_patch_sites : report.tuple_patch_sites) = sites.size();

    const unsigned dirty_order = campaign.lowest_successful_order();
    if (dirty_order == 0) {
      record(rung, image.code_size());
      result.iterations.push_back(report);
      if (rung >= requested_order) {
        finish(std::move(image), std::move(campaign));
        break;
      }
      ++rung;  // rung clean — climb (re-sweeping the same image)
      continue;
    }

    obs::Span patch_span("fixpoint.patch");
    PatchStats stats = apply_patches(result.module, campaign.vulnerabilities);
    // A site can be order-1 vulnerable *and* set-implicated (a different
    // fault kind at the same address); the order-1 patcher just protected
    // those, so reinforcing them again would stack the identical pattern
    // twice in one pass. Sites apply_patches could not handle stay:
    // synthesized code it refuses is exactly what reinforcement is for.
    std::vector<std::uint64_t> patched = campaign.vulnerable_addresses();
    for (const std::uint64_t address : stats.unpatchable) {
      patched.erase(std::remove(patched.begin(), patched.end(), address),
                    patched.end());
    }
    sites.erase(std::remove_if(sites.begin(), sites.end(),
                               [&](std::uint64_t site) {
                                 return std::binary_search(patched.begin(),
                                                           patched.end(), site);
                               }),
                sites.end());
    const PatchStats reinforce_stats =
        reinforce_sites(result.module, std::move(sites), pair_window, rung);
    patch_span.end();
    for (const auto& [kind, count] : reinforce_stats.applied) {
      stats.applied[kind] += count;
    }
    report.patches_applied = stats.total_applied();
    patches_total.add(stats.total_applied());
    // An address can be unpatchable to both passes; count it once.
    std::vector<std::uint64_t> unpatchable = stats.unpatchable;
    unpatchable.insert(unpatchable.end(), reinforce_stats.unpatchable.begin(),
                       reinforce_stats.unpatchable.end());
    std::sort(unpatchable.begin(), unpatchable.end());
    unpatchable.erase(std::unique(unpatchable.begin(), unpatchable.end()),
                      unpatchable.end());
    report.unpatchable_points = unpatchable.size();
    result.iterations.push_back(report);

    if (stats.total_applied() == 0) {
      if (dirty_order >= 2 && dirty_order < rung) {
        // This sweep's top level is clean but an intermediate level still
        // succeeds, so there was no fault set to map to sites. Drop back to
        // the dirty rung: its own sweep exposes that level's fault sets as
        // top-level vulnerabilities the patcher can reach.
        rung = dirty_order;
        continue;
      }
      if (rung == 1 && requested_order >= 2) {
        // Unpatchable order-1 residue (the paper's single-bit-flip case)
        // does not end a ladder run: climb, recording where rung 1 ended.
        record(1, image.code_size());
        ++rung;
        continue;
      }
      // No patch or reinforcement left anywhere: a fix-point with residual
      // risk (e.g. an unpatchable order-1 bit-flip residue, whose
      // republished sets are filtered above, so the loop does not burn the
      // cap re-sweeping a binary it cannot improve).
      finish(std::move(image), std::move(campaign));
      break;
    }
    // Something was patched. Resume at the lowest dirty rung (never below
    // 2 — singles ride along in every sweep) so cheap sweeps clear cheap
    // regressions before the next expensive order-m sweep.
    if (dirty_order >= 2 && dirty_order < rung) rung = dirty_order;
  }
  return result;
}

bool PipelineResult::clean_at(unsigned order) const {
  if (final_campaign.order < order) return false;
  const unsigned dirty_order = final_campaign.lowest_successful_order();
  return dirty_order == 0 || dirty_order > order;
}

double PipelineResult::order2_overhead_delta_percent() const {
  if (order1_code_size() == 0) return 0.0;
  const OrderMilestone* order2 = milestone(2);
  const std::uint64_t size = order2 != nullptr ? order2->code_size : hardened_code_size;
  const auto printed = [](double percent) {
    return std::strtod(support::format_fixed(percent, 1).c_str(), nullptr);
  };
  return printed(overhead_percent_at(size)) - printed(order1_overhead_percent());
}

std::string PipelineResult::to_json() const {
  std::string json = "{\n";
  const auto flag = [](bool value) { return std::string(value ? "true" : "false"); };
  json += "  \"fixpoint\": " + flag(fixpoint()) + ",\n";
  json += "  \"order2_fixpoint\": " + flag(clean_at(2)) + ",\n";
  json += "  \"orderk_fixpoint\": " +
          flag(requested_order >= 2 && clean_at(requested_order)) + ",\n";
  json += "  \"original_code_size\": " + std::to_string(original_code_size) + ",\n";
  json += "  \"order1_code_size\": " + std::to_string(order1_code_size()) + ",\n";
  json += "  \"hardened_code_size\": " + std::to_string(hardened_code_size) + ",\n";
  json += "  \"overhead_percent\": " + support::format_fixed(overhead_percent(), 1) +
          ",\n";
  json += "  \"order1_overhead_percent\": " +
          support::format_fixed(order1_overhead_percent(), 1) + ",\n";
  json += "  \"order2_overhead_delta_percent\": " +
          support::format_fixed(order2_overhead_delta_percent(), 1) + ",\n";
  json += "  \"order_milestones\": [";
  for (std::size_t i = 0; i < order_milestones.size(); ++i) {
    const OrderMilestone& milestone = order_milestones[i];
    if (i != 0) json += ", ";
    json += "{\"order\": " + std::to_string(milestone.order) +
            ", \"code_size\": " + std::to_string(milestone.code_size) +
            ", \"overhead_percent\": " +
            support::format_fixed(overhead_percent_at(milestone.code_size), 1) + "}";
  }
  json += "],\n";
  json += "  \"iterations\": [\n";
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    const IterationReport& it = iterations[i];
    json += "    {\"order\": " + std::to_string(it.order) +
            ", \"successful_faults\": " + std::to_string(it.successful_faults) +
            ", \"vulnerable_points\": " + std::to_string(it.vulnerable_points) +
            ", \"patches_applied\": " + std::to_string(it.patches_applied) +
            ", \"unpatchable_points\": " + std::to_string(it.unpatchable_points) +
            ", \"code_size\": " + std::to_string(it.code_size) +
            ", \"total_pairs\": " + std::to_string(it.total_pairs) +
            ", \"successful_pairs\": " + std::to_string(it.successful_pairs) +
            ", \"strictly_second_order\": " + std::to_string(it.strictly_second_order) +
            ", \"pair_patch_sites\": " + std::to_string(it.pair_patch_sites) +
            ", \"total_tuples\": " + std::to_string(it.total_tuples) +
            ", \"successful_tuples\": " + std::to_string(it.successful_tuples) +
            ", \"strictly_order_k\": " + std::to_string(it.strictly_order_k) +
            ", \"tuple_patch_sites\": " + std::to_string(it.tuple_patch_sites) + "}";
    json += i + 1 < iterations.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"final_campaign\": ";
  std::string campaign_json = final_campaign.to_json();
  // Indent the nested document two spaces so the composite stays readable.
  if (!campaign_json.empty() && campaign_json.back() == '\n') campaign_json.pop_back();
  std::string indented;
  for (const char c : campaign_json) {
    indented += c;
    if (c == '\n') indented += "  ";
  }
  json += indented + "\n}\n";
  return json;
}

}  // namespace r2r::patch
