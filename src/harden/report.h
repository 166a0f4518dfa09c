// r2r::harden — the report surfaces: plain-text and markdown sections for
// the CLI, the r2rd daemon and the benches, and campaign_report(), the one
// campaign run-and-render both the CLI and the daemon call.
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
std::string fixpoint_markdown_section(const std::string& binary_name,
                                      const patch::PipelineResult& result);

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

/// The fix-point trajectory section for a Faulter+Patcher run — the text
/// rendering of patch::PipelineResult. Order-2 runs (order1_code_size set)
/// delegate to order2_fixpoint_section; order-1 runs render the same
/// per-iteration table without the pair columns. Shared by `r2r fixpoint`
/// and the r2rd campaign service, so a daemon answer is byte-identical to
/// the one-shot subcommand's.
std::string fixpoint_section(const std::string& binary_name,
                             const patch::PipelineResult& result);

/// The order-2+ fix-point section of a hardening report: the per-iteration
/// trajectory of the ladder-aware Faulter+Patcher loop (campaign order,
/// faults and residual pairs/tuples found, implicated sites, patches
/// applied, code size) plus the Table-V-style overhead split — what order-1
/// hardening cost, what closing the order-2 gap added on top, and the final
/// overhead under its own order, marked "(residual risk)" when that order
/// is not clean. Runs that climbed past order 2 get an extra order-k clean
/// flag and the overhead-vs-k milestone trajectory.
std::string order2_fixpoint_section(const std::string& binary_name,
                                    const patch::PipelineResult& result);

}  // namespace r2r::harden
