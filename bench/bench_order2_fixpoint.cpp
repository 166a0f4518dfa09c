// Order-2 fix-point: the pair-aware Faulter+Patcher loop on all three
// guests — pairs patched per iteration, the Table-V-style overhead split
// (order-1 hardening vs the order-2 delta), and the pruning telemetry of
// the final clean sweep.
//
// Self-checking (CI gates on the exit code):
//   * every guest must reach the order-2 fix point — zero residual pairs
//     (skip model, pair window 8) within the iteration cap;
//   * on the final hardened binary, the pruned and exhaustive order-2
//     sweeps must be bit-identical at 1 and 8 threads (the reinforcement
//     patterns must not break the engine's pruning soundness).
//
// Emits bench_order2_fixpoint.json for the CI artifact.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "patch/pipeline.h"
#include "sim/engine.h"

namespace {

using namespace r2r;

patch::PipelineConfig order2_config() {
  patch::PipelineConfig config;
  config.campaign.models.bit_flip = false;  // the paper's skip model
  config.campaign.models.order = 2;
  config.campaign.models.pair_window = 8;
  config.campaign.threads = 0;
  return config;
}

/// Pruned vs exhaustive order-2 sweeps on `image`, at 1 and 8 threads: all
/// four runs must agree bit for bit. Returns false on divergence.
bool sweeps_bit_identical(const elf::Image& image, const guests::Guest& guest) {
  sim::FaultModels models;
  models.bit_flip = false;
  models.order = 2;
  models.pair_window = 8;

  bool have_reference = false;
  sim::TupleCampaignResult reference;
  for (const unsigned threads : {1u, 8u}) {
    for (const bool exhaustive : {false, true}) {
      sim::EngineConfig config;
      config.threads = threads;
      config.convergence_pruning = !exhaustive;
      config.pair_outcome_reuse = !exhaustive;
      const sim::Engine engine(image, guest.good_input, guest.bad_input, config);
      sim::TupleCampaignResult result = engine.run_tuples(models);
      if (!have_reference) {
        reference = std::move(result);
        have_reference = true;
        continue;
      }
      if (result.vulnerabilities != reference.vulnerabilities ||
          result.outcome_counts != reference.outcome_counts ||
          result.patch_sites() != reference.patch_sites() ||
          result.order1.vulnerabilities != reference.order1.vulnerabilities ||
          result.order1.outcome_counts != reference.order1.outcome_counts) {
        std::printf("FAILED: order-2 sweep diverged on %s (threads=%u "
                    "exhaustive=%d)\n",
                    guest.name.c_str(), threads, exhaustive ? 1 : 0);
        return false;
      }
    }
  }
  return true;
}

std::string iteration_json(const patch::IterationReport& it) {
  std::string json = "{";
  json += "\"order\": " + std::to_string(it.order);
  json += ", \"successful_faults\": " + std::to_string(it.successful_faults);
  json += ", \"successful_pairs\": " + std::to_string(it.successful_pairs);
  json += ", \"total_pairs\": " + std::to_string(it.total_pairs);
  json += ", \"pair_patch_sites\": " + std::to_string(it.pair_patch_sites);
  json += ", \"patches_applied\": " + std::to_string(it.patches_applied);
  json += ", \"code_size\": " + std::to_string(it.code_size);
  json += "}";
  return json;
}

void BM_Order2FixpointToymov(benchmark::State& state) {
  const guests::Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(patch::faulter_patcher(image, guest.good_input,
                                                    guest.bad_input, order2_config()));
  }
}
BENCHMARK(BM_Order2FixpointToymov)->Unit(benchmark::kMillisecond);

void BM_PairPatchAttribution(benchmark::State& state) {
  // The pair -> site attribution path alone: one order-2 campaign on the
  // order-1-hardened pincheck, then the reinforcement pass over its sites.
  const guests::Guest& guest = guests::pincheck();
  const elf::Image input = guests::build_image(guest);
  patch::PipelineConfig config;
  config.campaign.models.bit_flip = false;
  const patch::PipelineResult order1 =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);
  fault::CampaignConfig campaign = order2_config().campaign;
  campaign.threads = 1;
  const fault::CampaignResult residue = fault::run_campaign(
      order1.hardened, guest.good_input, guest.bad_input, campaign);
  for (auto _ : state) {
    bir::Module module = order1.module;
    benchmark::DoNotOptimize(patch::apply_tuple_patches(
        module, residue.pair_vulnerabilities, campaign.models.pair_window, 2));
  }
}
BENCHMARK(BM_PairPatchAttribution)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::enable_observability();
  bench::print_header(
      "Order-2 fix point: pair-aware Faulter+Patcher on the guest corpus",
      "Fig. 2 loop extended to the multi-fault scenario (Boespflug et al.)");

  bool ok = true;
  std::string json = "{\n  " + bench::target_field(isa::Arch::kX64) +
                     ",\n  \"pair_window\": 8,\n  \"guests\": [";
  bool first_guest = true;
  for (const guests::Guest* guest : guests::all_guests()) {
    const elf::Image input = guests::build_image(*guest);

    bench::Phase fixpoint_phase("bench.fixpoint");
    const patch::PipelineResult result = patch::faulter_patcher(
        input, guest->good_input, guest->bad_input, order2_config());
    const double seconds = fixpoint_phase.stop();

    const std::uint64_t residual = result.final_campaign.pair_vulnerabilities.size();
    const bool identical = sweeps_bit_identical(result.hardened, *guest);
    std::printf(
        "%-10s iterations=%zu residual-pairs=%llu order2-fixpoint=%s "
        "overhead=%5.1f%% (order-1 %5.1f%% + delta %4.1f) %6.2fs "
        "pruned-vs-exhaustive=%s\n",
        guest->name.c_str(), result.iterations.size(),
        static_cast<unsigned long long>(residual),
        result.clean_at(2) ? "yes" : "NO", result.overhead_percent(),
        result.order1_overhead_percent(), result.order2_overhead_delta_percent(),
        seconds, identical ? "identical" : "DIVERGED");
    std::printf("%s\n", harden::fixpoint_report(guest->name, result, "text").c_str());
    if (!result.clean_at(2) || residual != 0 || !identical) ok = false;

    if (!first_guest) json += ", ";
    first_guest = false;
    json += "{\n    \"guest\": \"" + guest->name + "\"";
    json += ",\n    \"order2_fixpoint\": " +
            std::string(result.clean_at(2) ? "true" : "false");
    json += ",\n    \"residual_pairs\": " + std::to_string(residual);
    json += ",\n    \"seconds\": " + support::format_fixed(seconds, 3);
    json += ",\n    \"overhead_percent\": " +
            support::format_fixed(result.overhead_percent(), 2);
    json += ",\n    \"order1_overhead_percent\": " +
            support::format_fixed(result.order1_overhead_percent(), 2);
    json += ",\n    \"order2_overhead_delta_percent\": " +
            support::format_fixed(result.order2_overhead_delta_percent(), 2);
    json += ",\n    \"iterations\": [";
    for (std::size_t i = 0; i < result.iterations.size(); ++i) {
      if (i != 0) json += ", ";
      json += iteration_json(result.iterations[i]);
    }
    json += "]\n  }";
  }
  json += "]\n}\n";

  const char* json_path = "bench_order2_fixpoint.json";
  std::ofstream out(json_path);
  out << bench::with_metrics_snapshot(json);
  out.close();
  std::printf("JSON written to %s\n", json_path);

  if (!ok) {
    std::printf("FAILED: a guest kept residual pairs (or sweeps diverged)\n");
    return 1;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
