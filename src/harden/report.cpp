#include "harden/report.h"

#include "elf/image.h"
#include "fault/campaign.h"
#include "patch/pipeline.h"
#include "sim/engine.h"
#include "support/strings.h"

namespace r2r::harden {

std::string TextTable::render() const {
  std::vector<std::size_t> widths;
  for (const auto& row : rows_) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const auto& row = rows_[r];
    out += "|";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      out += " " + cell + std::string(widths[c] - cell.size(), ' ') + " |";
    }
    out += "\n";
    if (r == 0) {
      out += "|";
      for (const std::size_t width : widths) {
        out += std::string(width + 2, '-') + "|";
      }
      out += "\n";
    }
  }
  return out;
}

std::string TextTable::render_markdown() const {
  // Like render(), short rows are padded with empty cells: a pipe row with
  // fewer cells than the header is malformed GFM.
  std::size_t columns = 0;
  for (const auto& row : rows_) columns = std::max(columns, row.size());
  std::string out;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const auto& row = rows_[r];
    out += "|";
    for (std::size_t c = 0; c < columns; ++c) {
      out += " " + (c < row.size() ? row[c] : std::string{}) + " |";
    }
    out += "\n";
    if (r == 0) {
      out += "|";
      for (std::size_t c = 0; c < columns; ++c) out += " --- |";
      out += "\n";
    }
  }
  return out;
}

namespace {

harden::TextTable outcome_table(const std::string& header,
                                const std::map<sim::Outcome, std::uint64_t>& counts) {
  TextTable table;
  table.add_row({header, "count"});
  for (const auto& [outcome, count] : counts) {
    table.add_row({std::string(sim::to_string(outcome)), std::to_string(count)});
  }
  return table;
}

std::string address_chain(const std::vector<std::uint64_t>& addresses) {
  std::string out;
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    if (i != 0) out += " -> ";
    out += support::hex_string(addresses[i]);
  }
  return out;
}

harden::TextTable vulnerable_tuple_table(const sim::TupleCampaignResult& tuples) {
  TextTable table;
  table.add_row({"fault addresses", "successful tuples"});
  for (const auto& [addresses, count] : tuples.merged_vulnerable_tuples()) {
    table.add_row({address_chain(addresses), std::to_string(count)});
  }
  return table;
}

/// Per-level reuse telemetry of the recursive sweep, one clause per order.
std::string tuple_level_summary_line(const sim::TupleCampaignResult& tuples) {
  std::string out;
  for (const sim::TupleLevelSummary& level : tuples.levels) {
    if (!out.empty()) out += "; ";
    out += "order " + std::to_string(level.order) + ": " +
           std::to_string(level.classified) + " classified (" +
           std::to_string(level.successful) + " successful)";
    if (level.sampled) out += " [sampled]";
  }
  return out;
}

/// The highest campaign order this pipeline run swept — what picks the
/// fix-point rendering (order-1 table, order-2 table, or the order-k
/// extras).
unsigned max_iteration_order(const patch::PipelineResult& result) {
  unsigned order = result.order1_code_size != 0 ? 2 : 1;
  for (const patch::IterationReport& it : result.iterations) {
    order = std::max(order, it.order);
  }
  for (const patch::OrderMilestone& milestone : result.order_milestones) {
    order = std::max(order, milestone.order);
  }
  return order;
}

/// "2/500"-style residual column: pairs for order-2 rows, top-level tuples
/// for order-3+ rows, "-" for order-1 rows.
std::string residual_cell(const patch::IterationReport& it) {
  if (it.order >= 3) {
    return std::to_string(it.successful_tuples) + "/" + std::to_string(it.total_tuples);
  }
  if (it.order == 2) {
    return std::to_string(it.successful_pairs) + "/" + std::to_string(it.total_pairs);
  }
  return "-";
}

std::string sites_cell(const patch::IterationReport& it) {
  if (it.order >= 3) return std::to_string(it.tuple_patch_sites);
  if (it.order == 2) return std::to_string(it.pair_patch_sites);
  return "-";
}

/// The overhead-vs-k trajectory line, rendered only for order-3+ runs.
std::string milestone_line(const patch::PipelineResult& result) {
  std::string out;
  for (const patch::OrderMilestone& milestone : result.order_milestones) {
    if (!out.empty()) out += " -> ";
    out += "order " + std::to_string(milestone.order) + " " +
           std::to_string(milestone.code_size) + " B (" +
           support::format_fixed(result.overhead_percent_at(milestone.code_size), 1) +
           "%)";
  }
  return out;
}

/// The Table-V overhead of a ladder run (order-2+ mode), each figure
/// labelled with the order it was measured at: the order-1 fix-point, the
/// order-2 milestone, then the final image when it is a different point —
/// marked "(residual risk)" unless its own order is clean.
std::string ladder_overhead(const patch::PipelineResult& result) {
  const unsigned final_order =
      result.final_campaign.tuple_order != 0 ? result.final_campaign.tuple_order : 2;
  const bool final_clean =
      result.orderk_fixpoint || (final_order == 2 && result.order2_fixpoint);
  const patch::OrderMilestone* order2 = result.milestone(2);
  std::string out =
      "order-1 " + support::format_fixed(result.order1_overhead_percent(), 1) + "%";
  if (order2 != nullptr || result.order2_fixpoint) {
    const std::uint64_t size = order2 != nullptr ? order2->code_size : result.hardened_code_size;
    out += " -> order-2 " + support::format_fixed(result.overhead_percent_at(size), 1) +
           "% (+" + support::format_fixed(result.order2_overhead_delta_percent(), 1) +
           " points for closing the order-2 gap)";
    if (final_order == 2 && final_clean && size == result.hardened_code_size) return out;
  }
  out += " -> order-" + std::to_string(final_order) + " " +
         support::format_fixed(result.overhead_percent(), 1) + "%";
  if (!final_clean) out += " (residual risk)";
  return out;
}

harden::TextTable vulnerable_point_table(const sim::CampaignResult& campaign) {
  TextTable table;
  table.add_row({"address", "hits", "by kind"});
  for (const auto& report : campaign.merged_by_address()) {
    std::string kinds;
    for (const auto& [kind, count] : report.by_kind) {
      if (!kinds.empty()) kinds += ", ";
      kinds += std::string(sim::kind_name(kind)) + " x" + std::to_string(count);
    }
    table.add_row({support::hex_string(report.address), std::to_string(report.hits),
                   kinds});
  }
  return table;
}

}  // namespace

std::string campaign_section(const std::string& binary_name,
                             const sim::CampaignResult& campaign) {
  std::string out = "fault campaign: " + binary_name + "\n";
  out += "  faults: " + std::to_string(campaign.total_faults) + " over " +
         std::to_string(campaign.trace_length) + " trace entries (" +
         std::to_string(campaign.count(sim::Outcome::kSuccess)) + " successful at " +
         std::to_string(campaign.vulnerable_addresses().size()) + " point(s))\n";
  out += "  engine: checkpoint interval " + std::to_string(campaign.checkpoint_interval) +
         ", " + std::to_string(campaign.snapshot_count) + " snapshots, " +
         std::to_string(campaign.pruned_faults) + " runs convergence-pruned, " +
         std::to_string(campaign.threads_used) + " thread(s)\n";
  out += outcome_table("outcome", campaign.outcome_counts).render();
  if (campaign.vulnerabilities.empty()) {
    out += "no vulnerabilities.\n";
    return out;
  }
  out += vulnerable_point_table(campaign).render();
  return out;
}

std::string campaign_markdown_section(const std::string& binary_name,
                                      const sim::CampaignResult& campaign) {
  std::string out = "### Fault campaign: " + binary_name + "\n\n";
  out += std::to_string(campaign.total_faults) + " faults over " +
         std::to_string(campaign.trace_length) + " trace entries; **" +
         std::to_string(campaign.count(sim::Outcome::kSuccess)) + " successful** at " +
         std::to_string(campaign.vulnerable_addresses().size()) +
         " vulnerable point(s). Engine: checkpoint interval " +
         std::to_string(campaign.checkpoint_interval) + ", " +
         std::to_string(campaign.snapshot_count) + " snapshots, " +
         std::to_string(campaign.pruned_faults) + " runs convergence-pruned, " +
         std::to_string(campaign.threads_used) + " thread(s).\n\n";
  out += outcome_table("outcome", campaign.outcome_counts).render_markdown();
  if (!campaign.vulnerabilities.empty()) {
    out += "\n" + vulnerable_point_table(campaign).render_markdown();
  }
  return out;
}

std::string fixpoint_markdown_section(const std::string& binary_name,
                                      const patch::PipelineResult& result) {
  std::string out = "### Faulter+Patcher fix-point: " + binary_name + "\n\n";
  const unsigned max_order = max_iteration_order(result);
  TextTable table;
  table.add_row({"iteration", "order", "faults",
                 max_order >= 3 ? "sets" : "pairs", "sites", "patched",
                 "code bytes"});
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const patch::IterationReport& it = result.iterations[i];
    table.add_row({std::to_string(i), std::to_string(it.order),
                   std::to_string(it.successful_faults), residual_cell(it),
                   sites_cell(it), std::to_string(it.patches_applied),
                   std::to_string(it.code_size)});
  }
  out += table.render_markdown();
  out += "\nFix-point: **" + std::string(result.fixpoint ? "yes" : "NO (cap hit)") +
         "**; order-2 clean: **" + std::string(result.order2_fixpoint ? "yes" : "NO") +
         "**";
  if (max_order >= 3) {
    out += "; order-" + std::to_string(max_order) +
           " clean: **" + std::string(result.orderk_fixpoint ? "yes" : "NO") + "**";
  }
  out += ". Overhead (Table-V style): " +
         (result.order1_code_size != 0
              ? ladder_overhead(result)
              : support::format_fixed(result.overhead_percent(), 1) + "%") +
         ".";
  if (max_order >= 3 && !result.order_milestones.empty()) {
    out += " Overhead vs k: " + milestone_line(result) + ".";
  }
  out += "\n";
  return out;
}

std::string residual_tuple_fault_section(const std::string& binary_name,
                                         const sim::TupleCampaignResult& tuples) {
  std::string out = "residual " + std::to_string(tuples.order) + "-tuple campaign: " +
                    binary_name + "\n";
  out += "  order-1 faults: " + std::to_string(tuples.order1.total_faults) + " (" +
         std::to_string(tuples.order1.count(sim::Outcome::kSuccess)) + " successful)\n";
  out += "  order-" + std::to_string(tuples.order) +
         " tuples: " + std::to_string(tuples.total_tuples) + " within window " +
         std::to_string(tuples.pair_window) + " (" +
         std::to_string(tuples.count(sim::Outcome::kSuccess)) + " successful, " +
         std::to_string(tuples.strictly_higher_order().size()) +
         " invisible to order 1)\n";
  out += "  levels:         " + tuple_level_summary_line(tuples) + "\n";
  const double reuse_rate =
      tuples.total_tuples == 0
          ? 0.0
          : 100.0 * static_cast<double>(tuples.reused_tuples()) /
                static_cast<double>(tuples.total_tuples);
  out += "  pruning:        " + std::to_string(tuples.reused_tuples()) +
         " tuples reused from lower-order profiles (" +
         support::format_fixed(reuse_rate, 1) + "%), " +
         std::to_string(tuples.simulated_tuples()) + " simulated\n";
  if (tuples.sampled) {
    out += "  sampling:       seeded sample of " + std::to_string(tuples.total_tuples) +
           " / " + std::to_string(tuples.enumerated_tuples) +
           " tuples (--max-tuples " + std::to_string(tuples.max_tuples) + ", seed " +
           std::to_string(tuples.sample_seed) + ")\n";
  }
  if (!tuples.vulnerabilities.empty()) {
    const auto sites = tuples.patch_sites();
    out += "  patch sites:    ";
    for (std::size_t i = 0; i < sites.size(); ++i) {
      if (i != 0) out += ", ";
      out += support::hex_string(sites[i]);
    }
    out += "\n";
  }

  out += outcome_table("tuple outcome", tuples.outcome_counts).render();
  if (tuples.vulnerabilities.empty()) {
    out += "no residual " + std::to_string(tuples.order) +
           "-tuple vulnerabilities.\n";
    return out;
  }
  out += vulnerable_tuple_table(tuples).render();
  return out;
}

std::string tuple_campaign_markdown_section(const std::string& binary_name,
                                            const sim::TupleCampaignResult& tuples) {
  std::string out = "### " + std::to_string(tuples.order) +
                    "-tuple fault campaign: " + binary_name + "\n\n";
  out += std::to_string(tuples.total_tuples) + " tuples within window " +
         std::to_string(tuples.pair_window) + " over " +
         std::to_string(tuples.trace_length) + " trace entries; **" +
         std::to_string(tuples.count(sim::Outcome::kSuccess)) + " successful**, " +
         std::to_string(tuples.strictly_higher_order().size()) +
         " invisible to order 1. Order-1 phase: " +
         std::to_string(tuples.order1.total_faults) + " faults, " +
         std::to_string(tuples.order1.count(sim::Outcome::kSuccess)) +
         " successful. Levels: " + tuple_level_summary_line(tuples) +
         ". Pruning: " + std::to_string(tuples.reused_tuples()) +
         " tuples reused from lower-order profiles, " +
         std::to_string(tuples.simulated_tuples()) + " simulated.";
  if (tuples.sampled) {
    out += " Sampling: " + std::to_string(tuples.total_tuples) + " / " +
           std::to_string(tuples.enumerated_tuples) + " tuples (max " +
           std::to_string(tuples.max_tuples) + ", seed " +
           std::to_string(tuples.sample_seed) + ").";
  }
  out += "\n\n";
  out += outcome_table("tuple outcome", tuples.outcome_counts).render_markdown();
  if (!tuples.vulnerabilities.empty()) {
    out += "\n" + vulnerable_tuple_table(tuples).render_markdown();
  }
  return out;
}

std::string campaign_report(const std::string& binary_name, const elf::Image& image,
                            const std::string& good_input, const std::string& bad_input,
                            const fault::CampaignConfig& config, std::string_view format) {
  const sim::Engine engine(image, good_input, bad_input, fault::engine_config(config));
  if (config.models.order >= 2) {
    const sim::TupleCampaignResult result = engine.run_tuples(config.models);
    if (format == "json") return result.to_json();
    if (format == "markdown") return tuple_campaign_markdown_section(binary_name, result);
    return residual_tuple_fault_section(binary_name, result);
  }
  const sim::CampaignResult result = engine.run(config.models);
  if (format == "json") return result.to_json();
  if (format == "markdown") return campaign_markdown_section(binary_name, result);
  return campaign_section(binary_name, result);
}

std::string fixpoint_section(const std::string& binary_name,
                             const patch::PipelineResult& result) {
  // Order-2+ runs get the full trajectory section; order-1 runs the same
  // table without the pair columns.
  if (result.order1_code_size != 0) return order2_fixpoint_section(binary_name, result);
  std::string out = "fix-point trajectory: " + binary_name + "\n";
  TextTable table;
  table.add_row({"iteration", "faults", "points", "patched", "unpatchable", "code bytes"});
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const patch::IterationReport& it = result.iterations[i];
    table.add_row({std::to_string(i), std::to_string(it.successful_faults),
                   std::to_string(it.vulnerable_points),
                   std::to_string(it.patches_applied),
                   std::to_string(it.unpatchable_points), std::to_string(it.code_size)});
  }
  out += table.render();
  out += "  fix-point: " + std::string(result.fixpoint ? "yes" : "NO (cap hit)") + "\n";
  out += "  code size: " + std::to_string(result.original_code_size) + " -> " +
         std::to_string(result.hardened_code_size) + " bytes (overhead " +
         support::format_fixed(result.overhead_percent(), 1) + "%)\n";
  return out;
}

std::string order2_fixpoint_section(const std::string& binary_name,
                                    const patch::PipelineResult& result) {
  const unsigned max_order = max_iteration_order(result);
  std::string out = "order-" + std::to_string(max_order) +
                    " fix-point trajectory: " + binary_name + "\n";

  TextTable table;
  table.add_row({"iteration", "order", "faults",
                 max_order >= 3 ? "sets" : "pairs", "sites", "patched",
                 "code bytes"});
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const patch::IterationReport& it = result.iterations[i];
    table.add_row({std::to_string(i), std::to_string(it.order),
                   std::to_string(it.successful_faults), residual_cell(it),
                   sites_cell(it), std::to_string(it.patches_applied),
                   std::to_string(it.code_size)});
  }
  out += table.render();

  out += "  fix-point: " + std::string(result.fixpoint ? "yes" : "NO (cap hit)") +
         ", order-2 clean: " + std::string(result.order2_fixpoint ? "yes" : "NO");
  if (max_order >= 3) {
    out += ", order-" + std::to_string(max_order) +
           " clean: " + std::string(result.orderk_fixpoint ? "yes" : "NO");
  }
  out += "\n";
  out += "  overhead (Table-V style): " + ladder_overhead(result) + "\n";
  if (max_order >= 3 && !result.order_milestones.empty()) {
    out += "  overhead vs k:  " + milestone_line(result) + "\n";
  }
  return out;
}

}  // namespace r2r::harden
