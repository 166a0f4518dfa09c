// r2r::harden — the report surfaces: plain-text and markdown sections for
// the CLI, the r2rd daemon and the benches; campaign_report() and
// fixpoint_report(), the one campaign and fix-point renderings both the CLI
// and the daemon call.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace r2r::elf {
struct Image;
}  // namespace r2r::elf

namespace r2r::fault {
struct CampaignConfig;
}  // namespace r2r::fault

namespace r2r::sim {
struct CampaignResult;
struct TupleCampaignResult;
}  // namespace r2r::sim

namespace r2r::patch {
struct PipelineResult;
}  // namespace r2r::patch

namespace r2r::harden {

/// Fixed-width text table: first row is the header.
class TextTable {
 public:
  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }
  [[nodiscard]] std::string render() const;
  /// GitHub-flavoured pipe table: compact (unpadded) cells with a `---`
  /// divider after the header — the `--markdown` rendering of every report
  /// surface, where the renderer handles alignment.
  [[nodiscard]] std::string render_markdown() const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

/// The single-fault campaign section of a hardening report: outcome
/// counters, engine telemetry, and the vulnerable points merged by static
/// address — the text rendering of sim::CampaignResult.
std::string campaign_section(const std::string& binary_name,
                             const sim::CampaignResult& campaign);

/// Markdown renderings of the report surfaces (same data as the text
/// sections, emitted as `###` headings + pipe tables) — what `r2r
/// --markdown` and the batch summary artifact are built from.
std::string campaign_markdown_section(const std::string& binary_name,
                                      const sim::CampaignResult& campaign);
std::string tuple_campaign_markdown_section(const std::string& binary_name,
                                            const sim::TupleCampaignResult& tuples);

/// The residual-k-tuple section: what an order-k (k >= 2) campaign still
/// finds on a binary after (single-fault) hardening — the per-level
/// reuse/sampling telemetry of the recursive sweep and the successful
/// k-tuples no order-1 sweep can surface, merged by static address chain.
std::string residual_tuple_fault_section(const std::string& binary_name,
                                         const sim::TupleCampaignResult& tuples);

/// Runs the campaign `config` describes against `image` and renders it as
/// `format` ("json", "markdown", anything else text): order 1 through the
/// sim::CampaignResult renderers, order k >= 2 through the tuple ones. The
/// one order × format dispatch shared by `r2r campaign` and the r2rd
/// campaign job, so a daemon report is byte-identical to the one-shot
/// subcommand's by construction.
std::string campaign_report(const std::string& binary_name, const elf::Image& image,
                            const std::string& good_input, const std::string& bad_input,
                            const fault::CampaignConfig& config, std::string_view format);

/// The fix-point report of a Faulter+Patcher run as `format` ("json",
/// "markdown", anything else text): one per-iteration table (campaign
/// order, faults and residual pairs/sets found, implicated sites, patches
/// applied, code size) and one list of clauses — the fix-point verdict, the
/// clean status at order 2 (order 1 for an order-1 run) and at the highest
/// order swept, the Table-V overhead with each figure labelled by its order
/// and "(residual risk)" where that order is not clean, and for order-3+
/// runs the overhead-vs-k milestones. JSON is PipelineResult::to_json().
/// Shared by `r2r fixpoint`, the r2rd fixpoint job and the benches, so a
/// daemon answer is byte-identical to the one-shot subcommand's.
std::string fixpoint_report(const std::string& binary_name,
                            const patch::PipelineResult& result, std::string_view format);

/// The one-line verdict `harden --patterns` prints (CLI and r2rd alike):
/// iterations, fix-point, and the final campaign's residue — singles,
/// pairs (an order-3+ sweep's level 2 included) and, at order >= 3, the
/// top-level tuples.
std::string faulter_patcher_summary(const patch::PipelineResult& result);

}  // namespace r2r::harden
