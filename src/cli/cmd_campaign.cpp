// r2r campaign — drive the sim:: engine against one guest: order-1 fault
// sweeps or order-k (k >= 2) fault-set sweeps, with text/JSON/markdown
// reports rendered by harden::campaign_report (shared with the r2rd
// campaign job).
#include <ostream>

#include "cli/cli.h"
#include "harden/report.h"

namespace r2r::cli {

ArgParser make_campaign_parser() {
  ArgParser parser(
      "campaign", "<guest>",
      "Run a differential fault-injection campaign against the guest: record\n"
      "the golden good/bad-input runs, then classify every allowed fault (at\n"
      "--order 2, every fault pair; at --order 3+, every fault k-tuple) of\n"
      "the bad-input trace. Exits 0 when the sweep completes, whatever it\n"
      "finds — a campaign is a measurement.");
  add_campaign_flags(parser);
  add_guest_flags(parser);
  add_format_flags(parser);
  return parser;
}

int run_campaign_cmd(const ArgParser& args, std::ostream& out, std::ostream& err) {
  if (args.positionals().size() != 1) {
    err << "r2r campaign: expected exactly one guest spec (try 'r2r campaign --help')\n";
    return 2;
  }
  format_from(args);  // validated before the sweep
  const guests::Guest guest = load_guest(args.positionals()[0], overrides_from(args));
  const elf::Image image = guests::build_image(guest);
  const fault::CampaignConfig config = campaign_config_from(args);
  const std::string text =
      harden::campaign_report(guest.name, image, guest.good_input, guest.bad_input, config,
                              args.value_or("--format", "text"));
  emit_output(args, out, text);
  return 0;
}

}  // namespace r2r::cli
