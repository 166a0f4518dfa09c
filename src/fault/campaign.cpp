#include "fault/campaign.h"

#include <algorithm>
#include <utility>

#include "support/error.h"
#include "support/strings.h"

namespace r2r::fault {

std::vector<std::uint64_t> CampaignResult::vulnerable_addresses() const {
  std::vector<std::uint64_t> addresses;
  for (const Vulnerability& v : vulnerabilities) addresses.push_back(v.address);
  std::sort(addresses.begin(), addresses.end());
  addresses.erase(std::unique(addresses.begin(), addresses.end()), addresses.end());
  return addresses;
}

std::uint64_t CampaignResult::strictly_second_order_count() const {
  return strictly_order_k(vulnerabilities, pair_vulnerabilities).size();
}

std::uint64_t CampaignResult::successful_at(unsigned level) const {
  if (level == 1) return vulnerabilities.size();
  if (level > order) return 0;
  if (level == order) {
    return order == 2 ? pair_vulnerabilities.size() : tuple_vulnerabilities.size();
  }
  for (const TupleLevelSummary& summary : tuple_levels) {
    if (summary.order == level) return summary.successful;
  }
  return 0;
}

unsigned CampaignResult::lowest_successful_order() const {
  for (unsigned level = 1; level <= order; ++level) {
    if (successful_at(level) != 0) return level;
  }
  return 0;
}

std::uint64_t CampaignResult::successful_lower_tuples() const {
  std::uint64_t successful = 0;
  for (std::size_t i = 0; i + 1 < tuple_levels.size(); ++i) {
    successful += tuple_levels[i].successful;
  }
  return successful;
}

std::uint64_t CampaignResult::strictly_order_k_count() const {
  return strictly_order_k(vulnerabilities, tuple_vulnerabilities).size();
}

std::string CampaignResult::to_json() const {
  const auto outcome_map = [](const std::map<Outcome, std::uint64_t>& counts) {
    std::string json = "{";
    bool first = true;
    for (const auto& [outcome, count] : counts) {
      if (!first) json += ", ";
      first = false;
      json += support::json_quote(to_string(outcome)) + ": " + std::to_string(count);
    }
    return json + "}";
  };

  std::string json = "{\n";
  json += "  \"trace_length\": " + std::to_string(trace_length) + ",\n";
  json += "  \"total_faults\": " + std::to_string(total_faults) + ",\n";
  json += "  \"successful_faults\": " + std::to_string(count(Outcome::kSuccess)) + ",\n";
  json += "  \"outcomes\": " + outcome_map(outcome_counts) + ",\n";
  json += "  \"vulnerable_addresses\": [";
  bool first = true;
  for (const std::uint64_t address : vulnerable_addresses()) {
    if (!first) json += ", ";
    first = false;
    json += support::json_quote(support::hex_string(address));
  }
  json += "]";
  if (total_pairs != 0 || !pair_vulnerabilities.empty()) {
    json += ",\n  \"total_pairs\": " + std::to_string(total_pairs) + ",\n";
    json += "  \"successful_pairs\": " + std::to_string(pair_count(Outcome::kSuccess)) +
            ",\n";
    json += "  \"reused_pairs\": " + std::to_string(reused_pairs) + ",\n";
    json += "  \"strictly_second_order\": " + std::to_string(strictly_second_order_count()) +
            ",\n";
    json += "  \"pair_outcomes\": " + outcome_map(pair_outcome_counts) + ",\n";
    json += "  \"pair_patch_sites\": [";
    first = true;
    for (const std::uint64_t site :
         tuple_patch_sites(strictly_order_k(vulnerabilities, pair_vulnerabilities))) {
      if (!first) json += ", ";
      first = false;
      json += support::json_quote(support::hex_string(site));
    }
    json += "]";
  }
  if (order >= 3) {
    json += ",\n  \"tuple_order\": " + std::to_string(order) + ",\n";
    json += "  \"total_tuples\": " + std::to_string(total_tuples) + ",\n";
    json += "  \"enumerated_tuples\": " + std::to_string(enumerated_tuples) + ",\n";
    json += "  \"successful_tuples\": " + std::to_string(tuple_count(Outcome::kSuccess)) +
            ",\n";
    json += "  \"reused_tuples\": " + std::to_string(reused_tuples) + ",\n";
    json += std::string("  \"tuples_sampled\": ") + (tuples_sampled ? "true" : "false") +
            ",\n";
    json += "  \"strictly_order_k\": " + std::to_string(strictly_order_k_count()) + ",\n";
    json += "  \"successful_lower_tuples\": " + std::to_string(successful_lower_tuples()) +
            ",\n";
    json += "  \"tuple_levels\": [";
    first = true;
    for (const TupleLevelSummary& level : tuple_levels) {
      if (!first) json += ", ";
      first = false;
      json += "{\"order\": " + std::to_string(level.order) +
              ", \"classified\": " + std::to_string(level.classified) +
              ", \"successful\": " + std::to_string(level.successful) + "}";
    }
    json += "],\n";
    json += "  \"tuple_outcomes\": " + outcome_map(tuple_outcome_counts) + ",\n";
    json += "  \"tuple_patch_sites\": [";
    first = true;
    for (const std::uint64_t site :
         tuple_patch_sites(strictly_order_k(vulnerabilities, tuple_vulnerabilities))) {
      if (!first) json += ", ";
      first = false;
      json += support::json_quote(support::hex_string(site));
    }
    json += "]";
  }
  json += "\n}\n";
  return json;
}

Outcome Oracle::classify(const emu::RunResult& run, int detected_exit_code) const {
  return sim::classify(good_reference, bad_reference, run, detected_exit_code);
}

Oracle make_oracle(const elf::Image& image, const std::string& good_input,
                   const std::string& bad_input) {
  sim::References refs = sim::make_references(image, good_input, bad_input);
  Oracle oracle;
  oracle.good_reference = std::move(refs.good_reference);
  oracle.bad_reference = std::move(refs.bad_reference);
  oracle.bad_trace = std::move(refs.bad_trace);
  return oracle;
}

sim::EngineConfig engine_config(const CampaignConfig& config) {
  sim::EngineConfig engine;
  engine.threads = config.threads;
  engine.detected_exit_code = config.detected_exit_code;
  engine.fuel_multiplier = config.fuel_multiplier;
  engine.fuel_slack = config.fuel_slack;
  engine.pair_outcome_reuse = config.pair_outcome_reuse;
  return engine;
}

CampaignResult run_campaign(const elf::Image& image, const std::string& good_input,
                            const std::string& bad_input, const CampaignConfig& config) {
  if (config.models.order < 1 || config.models.order > kMaxCampaignOrder) {
    support::fail(support::ErrorKind::kExecution,
                  "campaign order must be 1 (single faults), 2 (fault pairs), or 3.." +
                      std::to_string(kMaxCampaignOrder) + " (fault k-tuples)");
  }
  const sim::Engine engine(image, good_input, bad_input, engine_config(config));

  // The models go to the engine verbatim — CampaignConfig embeds the
  // engine's own struct precisely so there is no per-field copy to drift.
  CampaignResult result;
  result.order = config.models.order;
  if (config.models.order >= 2) {
    sim::TupleCampaignResult swept = engine.run_tuples(config.models);
    result.vulnerabilities = std::move(swept.order1.vulnerabilities);
    result.outcome_counts = std::move(swept.order1.outcome_counts);
    result.total_faults = swept.order1.total_faults;
    result.trace_length = swept.trace_length;
    if (swept.order == 2) {
      result.pair_vulnerabilities = std::move(swept.vulnerabilities);
      result.pair_outcome_counts = std::move(swept.outcome_counts);
      result.total_pairs = swept.total_tuples;
      result.reused_pairs = swept.reused_tuples();
      return result;
    }
    result.tuple_vulnerabilities = std::move(swept.vulnerabilities);
    result.tuple_outcome_counts = std::move(swept.outcome_counts);
    result.total_tuples = swept.total_tuples;
    result.enumerated_tuples = swept.enumerated_tuples;
    result.reused_tuples = swept.reused_tuples();
    result.tuples_sampled = swept.sampled;
    result.tuple_levels = std::move(swept.levels);
    return result;
  }

  sim::CampaignResult swept = engine.run(config.models);
  result.vulnerabilities = std::move(swept.vulnerabilities);
  result.outcome_counts = std::move(swept.outcome_counts);
  result.total_faults = swept.total_faults;
  result.trace_length = swept.trace_length;
  return result;
}

}  // namespace r2r::fault
