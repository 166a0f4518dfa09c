// r2r::fault — the faulter (Fig. 2 of the paper).
//
// Runs a differential fault-injection campaign: record the golden traces of
// a "good" (authorized) and "bad" (attacker) input, then for every dynamic
// instruction of the bad-input trace inject each fault the chosen model
// allows and classify the observable outcome. A fault is a vulnerability
// ("successful fault") when the bad-input run becomes observably identical
// to the good-input run.
//
// This layer is a thin client of the sim:: engine, which executes the
// sweep from copy-on-write snapshots (optionally across worker threads)
// instead of replaying every faulted run from entry. A single-threaded
// campaign classifies bit-identically to the seed full-replay faulter.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "elf/image.h"
#include "emu/machine.h"
#include "patch/detected_exit.h"
#include "sim/engine.h"

namespace r2r::fault {

// The classification vocabulary and vulnerability record are defined by
// the engine; fault:: re-exports them as its public campaign API.
using sim::Outcome;
using sim::strictly_order_k;
using sim::to_string;
using sim::tuple_patch_sites;
using sim::TupleLevelSummary;
using sim::TupleVulnerability;
using sim::Vulnerability;

/// Highest campaign order the surfaces accept (protection patterns, CLI
/// flags and the service agree on this bound; the sim engine itself is
/// order-agnostic).
inline constexpr unsigned kMaxCampaignOrder = 4;

struct CampaignConfig {
  /// The fault models the campaign sweeps, handed to the sim:: engine
  /// verbatim — one struct shared with the engine, so a model added to
  /// sim::FaultModels is automatically campaign-visible (the previous
  /// field-by-field copy silently dropped any knob it didn't know about).
  /// Covers the paper's models (skip, bit_flip), the r2r extension models,
  /// and the campaign order / pair_window of order-2 sweeps.
  sim::FaultModels models;
  /// Exit code the injected fault handler uses; defaults to the one
  /// patch-layer constant so the faulter and the patcher cannot drift.
  int detected_exit_code = patch::kDetectedExit;
  /// Extra fuel multiplier over the golden bad-input run (faulted runs that
  /// exceed golden_steps * multiplier + slack are classified kHang).
  std::uint64_t fuel_multiplier = 8;
  std::uint64_t fuel_slack = 4096;
  /// Worker threads for the sweep (0 = hardware concurrency). Results are
  /// bit-identical for every thread count.
  unsigned threads = 1;
  /// Order >= 2: classify fault sets from the order-1 profiles where
  /// provably equivalent instead of simulating them (exact; see
  /// sim::EngineConfig).
  bool pair_outcome_reuse = true;
};

/// The engine configuration a campaign runs under — the one place every
/// shared knob crosses from CampaignConfig to sim::EngineConfig, so
/// run_campaign, `r2r campaign` and the r2rd campaign job cannot drift.
sim::EngineConfig engine_config(const CampaignConfig& config);

struct CampaignResult {
  /// The campaign order this result swept (CampaignConfig::models.order):
  /// which of the extensions below are filled.
  unsigned order = 1;
  std::vector<Vulnerability> vulnerabilities;
  std::map<Outcome, std::uint64_t> outcome_counts;
  std::uint64_t total_faults = 0;
  std::uint64_t trace_length = 0;

  /// Order-2 extension: filled only when CampaignConfig::models.order == 2
  /// (the level-2 sets of the tuple sweep, two faults each). The order-1
  /// fields above are still populated (phase A of the sweep).
  std::vector<TupleVulnerability> pair_vulnerabilities;
  std::map<Outcome, std::uint64_t> pair_outcome_counts;
  std::uint64_t total_pairs = 0;
  std::uint64_t reused_pairs = 0;  ///< pairs classified without simulation

  /// Order-k (>= 3) extension: filled only when models.order >= 3. The
  /// order-1 fields above are still populated; the pair fields stay empty —
  /// `tuple_levels` carries the per-level (order 2..k) residue instead.
  std::vector<TupleVulnerability> tuple_vulnerabilities;
  std::map<Outcome, std::uint64_t> tuple_outcome_counts;
  std::uint64_t total_tuples = 0;       ///< classified at the top level
  std::uint64_t enumerated_tuples = 0;  ///< full top-level space
  std::uint64_t reused_tuples = 0;      ///< top-level tuples classified without simulation
  bool tuples_sampled = false;          ///< the top level ran under a max_tuples budget
  std::vector<TupleLevelSummary> tuple_levels;

  [[nodiscard]] std::uint64_t count(Outcome outcome) const {
    const auto it = outcome_counts.find(outcome);
    return it == outcome_counts.end() ? 0 : it->second;
  }
  [[nodiscard]] std::uint64_t pair_count(Outcome outcome) const {
    const auto it = pair_outcome_counts.find(outcome);
    return it == pair_outcome_counts.end() ? 0 : it->second;
  }
  [[nodiscard]] std::uint64_t tuple_count(Outcome outcome) const {
    const auto it = tuple_outcome_counts.find(outcome);
    return it == tuple_outcome_counts.end() ? 0 : it->second;
  }
  /// Successful fault sets of exactly `level` faults: singles at level 1,
  /// the top level's pairs or tuples, an intermediate level's summary count;
  /// 0 for a level above the swept order.
  [[nodiscard]] std::uint64_t successful_at(unsigned level) const;
  /// Lowest level 1..order with a successful fault set, or 0 when the
  /// campaign is clean at every level it swept.
  [[nodiscard]] unsigned lowest_successful_order() const;
  /// Successful tuples at the intermediate levels (orders 2..k-1) of an
  /// order-k campaign — lower-order residue the recursion surfaced anyway.
  [[nodiscard]] std::uint64_t successful_lower_tuples() const;
  /// Successful top-level tuples none of whose faults succeeds alone.
  [[nodiscard]] std::uint64_t strictly_order_k_count() const;
  /// Distinct static instruction addresses with at least one successful
  /// fault — the paper's "number of vulnerable points".
  [[nodiscard]] std::vector<std::uint64_t> vulnerable_addresses() const;
  /// Successful pairs neither of whose component faults succeeds alone —
  /// the flattened analogue of sim::TupleCampaignResult::strictly_higher_order
  /// at order 2.
  [[nodiscard]] std::uint64_t strictly_second_order_count() const;

  /// JSON document for downstream tooling: the order-1 counters and
  /// vulnerable addresses, plus the pair counters / implicated patch sites
  /// when the campaign ran at order 2, plus the tuple counters / level
  /// summaries when it ran at order >= 3 (schema in docs/formats.md).
  [[nodiscard]] std::string to_json() const;
};

/// Golden (fault-free) references for both inputs. Throws Error{kExecution}
/// if the binary does not show the expected differential behaviour.
struct Oracle {
  emu::RunResult good_reference;
  emu::RunResult bad_reference;
  std::vector<emu::TraceEntry> bad_trace;

  Outcome classify(const emu::RunResult& run, int detected_exit_code) const;
};

Oracle make_oracle(const elf::Image& image, const std::string& good_input,
                   const std::string& bad_input);

CampaignResult run_campaign(const elf::Image& image, const std::string& good_input,
                            const std::string& bad_input,
                            const CampaignConfig& config = {});

}  // namespace r2r::fault
