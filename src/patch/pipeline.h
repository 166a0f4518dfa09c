// r2r::patch — the Faulter+Patcher loop of Fig. 2.
//
//   binary -> faulter -> vulnerabilities -> patcher -> patched binary
//      ^                                                    |
//      +----------------------------------------------------+
//
// Iterates until no patchable vulnerability remains (fix-point) or the
// iteration cap is hit. Patching changes distances between instructions and
// can surface new vulnerabilities, exactly as Section IV-B.3 describes. When
// the cap stops the loop, the last patched module is swept once more at the
// requested order, and a clean sweep there is still a fix-point.
//
// Order-k mode (campaign.models.order == k >= 2): the same loop climbs an
// order ladder. Rung 1 is the paper's loop; a campaign at rung m maps every
// residual strictly-order-m fault set back to its static patch sites and
// reinforces them at redundancy degree m (reinforce_instruction), advancing
// to rung m+1 only when order m is clean and dropping back to the lowest
// dirty rung whenever reinforcement regresses a cheaper order. This closes
// the gap the paper's Fig. 2 leaves open: its loop only ever re-runs order-1
// campaigns, so it declares victory on binaries a k-glitch attacker still
// breaks.
#pragma once

#include <cstdint>
#include <vector>

#include "bir/module.h"
#include "elf/image.h"
#include "fault/campaign.h"
#include "patch/patcher.h"

namespace r2r::patch {

struct PipelineConfig {
  /// campaign.models.order selects the fix-point target: 1 = the paper's
  /// loop, k >= 2 = the order ladder up to order-k reinforcement
  /// (campaign.models.max_tuples / sample_seed bound the order-3+ sweeps).
  /// The iteration cap counts the sweeps of every rung.
  fault::CampaignConfig campaign;
  unsigned max_iterations = 12;
};

struct IterationReport {
  unsigned order = 1;                    ///< campaign order this iteration ran at
  std::uint64_t successful_faults = 0;   ///< dynamic successful faults found
  std::uint64_t vulnerable_points = 0;   ///< distinct static addresses
  std::uint64_t patches_applied = 0;
  std::uint64_t unpatchable_points = 0;
  std::uint64_t code_size = 0;           ///< bytes of .text at this iteration
  // Order-2 iterations only:
  std::uint64_t total_pairs = 0;             ///< pairs swept this iteration
  std::uint64_t successful_pairs = 0;        ///< residual pairs found
  std::uint64_t strictly_second_order = 0;   ///< invisible to any order-1 sweep
  std::uint64_t pair_patch_sites = 0;        ///< distinct static sites implicated
  // Order-3+ iterations only:
  std::uint64_t total_tuples = 0;        ///< k-tuples in the swept space
  std::uint64_t successful_tuples = 0;   ///< residual top-level tuples found
  std::uint64_t strictly_order_k = 0;    ///< sharing no fault with an order-1 vuln
  std::uint64_t tuple_patch_sites = 0;   ///< distinct static sites implicated
};

/// One point of the overhead-vs-k trajectory: the code size at which a
/// ladder rung was last left behind — order 1 when the ladder climbed past
/// it (clean, or with unpatchable residue), order m >= 2 when a sweep proved
/// it clean.
struct OrderMilestone {
  unsigned order = 0;
  std::uint64_t code_size = 0;   ///< bytes of .text at that milestone
};

/// What a Faulter+Patcher run stores is what it did: the trajectory, the
/// final image and the campaign against it, the requested order and whether
/// the iteration cap stopped it. Every fix-point status is derived from
/// those, so no flag can contradict the final sweep it describes.
struct PipelineResult {
  bir::Module module;            ///< final (hardened) module
  elf::Image hardened;           ///< final image
  std::vector<IterationReport> iterations;
  /// Campaign against the final image, at the rung the loop stopped on; the
  /// cap-hit exit sweeps at the requested order.
  fault::CampaignResult final_campaign;
  unsigned requested_order = 1;  ///< the fix-point target (campaign.models.order)
  bool cap_hit = false;          ///< the iteration cap stopped the loop
  std::uint64_t original_code_size = 0;
  std::uint64_t hardened_code_size = 0;
  /// Overhead-vs-k trajectory, ascending by order (latest wins when the
  /// ladder drops back and re-proves a rung). Empty when order 1 was
  /// requested.
  std::vector<OrderMilestone> order_milestones;

  /// Table-V-style overhead of a `code_size`-byte .text over the original.
  [[nodiscard]] double overhead_percent_at(std::uint64_t code_size) const noexcept {
    if (original_code_size == 0) return 0.0;
    return 100.0 *
           (static_cast<double>(code_size) - static_cast<double>(original_code_size)) /
           static_cast<double>(original_code_size);
  }

  /// Code-size overhead percentage — the paper's Table V metric.
  [[nodiscard]] double overhead_percent() const noexcept {
    return overhead_percent_at(hardened_code_size);
  }

  /// The milestone of `order`, or null when the ladder never recorded it.
  [[nodiscard]] const OrderMilestone* milestone(unsigned order) const noexcept {
    for (const OrderMilestone& m : order_milestones) {
      if (m.order == order) return &m;
    }
    return nullptr;
  }

  /// Bytes of .text when the ladder left rung 1 — the baseline of the
  /// order-2 overhead delta; 0 when it never did (order-1 runs).
  [[nodiscard]] std::uint64_t order1_code_size() const noexcept {
    const OrderMilestone* order1 = milestone(1);
    return order1 == nullptr ? 0 : order1->code_size;
  }

  /// Table-V-style overhead at order1_code_size(), 0 without it.
  [[nodiscard]] double order1_overhead_percent() const noexcept {
    return order1_code_size() == 0 ? 0.0 : overhead_percent_at(order1_code_size());
  }

  /// The final campaign swept order >= `order` and found no successful
  /// fault set at any level 1..order.
  [[nodiscard]] bool clean_at(unsigned order) const;

  /// No patchable vulnerability remains: the loop stopped on its own, or
  /// the cap stopped it and the final sweep is clean.
  [[nodiscard]] bool fixpoint() const { return !cap_hit || clean_at(requested_order); }

  /// The run's verdict (its exit status everywhere): at order 1 the paper's
  /// fix-point — unpatchable residue is reported, not a failure; at order
  /// k >= 2 a final sweep clean at k.
  [[nodiscard]] bool succeeded() const {
    return requested_order >= 2 ? clean_at(requested_order) : fixpoint();
  }

  /// What closing the order-2 gap cost on top of order-1 hardening, in
  /// percentage points of the original code size (order-2 mode only):
  /// measured at the order-2 milestone, or at the final image when the
  /// ladder recorded none. The difference of the two overheads as reports
  /// print them (one decimal), so "28.0% -> 31.2% (+3.2 points)" adds up.
  [[nodiscard]] double order2_overhead_delta_percent() const;

  /// JSON document for downstream tooling: the per-iteration trajectory,
  /// the derived fix-point statuses, Table-V overhead split, and the final
  /// campaign (schema in docs/formats.md).
  [[nodiscard]] std::string to_json() const;
};

/// Runs the full Faulter+Patcher loop on `input`.
PipelineResult faulter_patcher(const elf::Image& input, const std::string& good_input,
                               const std::string& bad_input,
                               const PipelineConfig& config = {});

}  // namespace r2r::patch
