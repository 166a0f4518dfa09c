#include "harden/report.h"

#include <algorithm>
#include <cctype>
#include <utility>

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

/// The highest campaign order this pipeline run swept — the final
/// campaign's, or a higher rung the ladder dropped back from.
unsigned swept_order(const patch::PipelineResult& result) {
  unsigned order = result.final_campaign.order;
  for (const patch::IterationReport& it : result.iterations) {
    order = std::max(order, it.order);
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

/// The Table-V overhead of a fix-point run, each figure labelled with the
/// order it was measured at: the order-1 milestone, the order-2 milestone
/// (or a final image clean at order 2), then the final image when it is a
/// different point — marked "(residual risk)" unless the final sweep is
/// clean at its own order.
std::string overhead_line(const patch::PipelineResult& result) {
  const unsigned final_order = result.final_campaign.order;
  const bool final_clean = result.clean_at(final_order);
  std::string out;
  const auto point = [&](unsigned order, std::uint64_t code_size) {
    if (!out.empty()) out += " -> ";
    out += "order-" + std::to_string(order) + " " +
           support::format_fixed(result.overhead_percent_at(code_size), 1) + "%";
  };
  const bool has_order1 = result.milestone(1) != nullptr;
  if (has_order1) point(1, result.order1_code_size());
  const patch::OrderMilestone* order2 = result.milestone(2);
  if (order2 != nullptr || result.clean_at(2)) {
    const std::uint64_t size = order2 != nullptr ? order2->code_size : result.hardened_code_size;
    point(2, size);
    if (has_order1) {
      out += " (+" + support::format_fixed(result.order2_overhead_delta_percent(), 1) +
             " points for closing the order-2 gap)";
    }
    if (final_order == 2 && final_clean && size == result.hardened_code_size) return out;
  }
  point(final_order, result.hardened_code_size);
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

std::string fixpoint_report(const std::string& binary_name,
                            const patch::PipelineResult& result, std::string_view format) {
  if (format == "json") return result.to_json();
  const unsigned max_order = swept_order(result);

  TextTable table;
  table.add_row({"iteration", "order", "faults", max_order == 2 ? "pairs" : "sets",
                 "sites", "patched", "code bytes"});
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const patch::IterationReport& it = result.iterations[i];
    table.add_row({std::to_string(i), std::to_string(it.order),
                   std::to_string(it.successful_faults), residual_cell(it),
                   sites_cell(it), std::to_string(it.patches_applied),
                   std::to_string(it.code_size)});
  }

  // The verdicts: fix-point, then clean at order 2 (order 1 for an order-1
  // run) and at the highest order swept.
  std::vector<std::pair<std::string, std::string>> clauses = {
      {"fix-point", result.fixpoint() ? "yes" : "NO (cap hit)"}};
  const auto clean_clause = [&](unsigned order) {
    clauses.emplace_back("order-" + std::to_string(order) + " clean",
                         result.clean_at(order) ? "yes" : "NO");
  };
  clean_clause(std::min(max_order, 2u));
  if (max_order >= 3) clean_clause(max_order);
  const std::string overhead = overhead_line(result);
  const std::string trajectory = max_order >= 3 ? milestone_line(result) : std::string{};

  std::string out;
  if (format == "markdown") {
    out = "### Faulter+Patcher fix-point: " + binary_name + "\n\n" +
          table.render_markdown() + "\n";
    for (std::size_t i = 0; i < clauses.size(); ++i) {
      std::string label = clauses[i].first;
      if (i == 0) label[0] = static_cast<char>(std::toupper(label[0]));
      out += (i == 0 ? "" : "; ") + label + ": **" + clauses[i].second + "**";
    }
    out += ". Overhead (Table-V style): " + overhead + ".";
    if (!trajectory.empty()) out += " Overhead vs k: " + trajectory + ".";
    return out + "\n";
  }
  out = "order-" + std::to_string(max_order) + " fix-point trajectory: " + binary_name +
        "\n" + table.render() + "  ";
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    out += (i == 0 ? "" : ", ") + clauses[i].first + ": " + clauses[i].second;
  }
  out += "\n  overhead (Table-V style): " + overhead + "\n";
  if (!trajectory.empty()) out += "  overhead vs k:  " + trajectory + "\n";
  return out;
}

std::string faulter_patcher_summary(const patch::PipelineResult& result) {
  const fault::CampaignResult& final_campaign = result.final_campaign;
  std::string out = "faulter+patcher: " + std::to_string(result.iterations.size()) +
                    " iteration(s), fix-point " +
                    (result.fixpoint() ? "reached" : "NOT reached (cap hit)") +
                    ", residual " + std::to_string(final_campaign.successful_at(1)) +
                    " fault(s) / " + std::to_string(final_campaign.successful_at(2)) +
                    " pair(s)";
  if (final_campaign.order >= 3) {
    out += " / " + std::to_string(final_campaign.successful_at(final_campaign.order)) +
           " tuple(s)";
  }
  return out + "\n";
}

}  // namespace r2r::harden
