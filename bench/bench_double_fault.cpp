// Order-2 (double fault) campaign throughput: outcome-reuse pruning vs
// exhaustive pair enumeration on the pincheck case study, through the one
// fault-set sweep (sim::Engine::run_tuples at order 2).
//
// The order-1 sweep is phase A of the pair sweep, so its profiles come for
// free; the interesting number is how many of the |plan|·window pairs the
// reuse rules classify without touching the simulator, and what that does
// to wall clock. Pruned and exhaustive sweeps are asserted bit-identical
// before any number is reported. Emits bench_double_fault.json for CI.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "bench_util.h"
#include "harden/report.h"
#include "sim/engine.h"

namespace {

using namespace r2r;

sim::FaultModels pair_models() {
  sim::FaultModels models;
  models.bit_flip = false;  // skip pairs; bit-flip pairs square the plan
  models.order = 2;
  models.pair_window = 8;
  return models;
}

struct SweepNumbers {
  sim::TupleCampaignResult pruned;
  double pruned_seconds = 0;
  double exhaustive_seconds = 0;
  double pairs_per_second = 0;
  double prune_rate = 0;
  double speedup = 0;
};

SweepNumbers compare_sweeps(const elf::Image& image, const guests::Guest& guest,
                            unsigned threads) {
  sim::EngineConfig pruned_config;
  pruned_config.threads = threads;
  sim::EngineConfig exhaustive_config = pruned_config;
  exhaustive_config.convergence_pruning = false;
  exhaustive_config.pair_outcome_reuse = false;

  const sim::Engine pruned_engine(image, guest.good_input, guest.bad_input,
                                  pruned_config);
  const sim::Engine exhaustive_engine(image, guest.good_input, guest.bad_input,
                                      exhaustive_config);

  SweepNumbers numbers;
  bench::Phase pruned_phase("bench.pair_sweep_pruned");
  numbers.pruned = pruned_engine.run_tuples(pair_models());
  const double pruned_seconds = pruned_phase.stop();
  bench::Phase exhaustive_phase("bench.pair_sweep_exhaustive");
  const sim::TupleCampaignResult exhaustive = exhaustive_engine.run_tuples(pair_models());
  const double exhaustive_seconds = exhaustive_phase.stop();

  if (numbers.pruned.vulnerabilities != exhaustive.vulnerabilities ||
      numbers.pruned.outcome_counts != exhaustive.outcome_counts ||
      numbers.pruned.patch_sites() != exhaustive.patch_sites()) {
    std::printf("FAILED: pruned and exhaustive order-2 sweeps diverged on %s\n",
                guest.name.c_str());
    std::exit(1);
  }

  numbers.pruned_seconds = pruned_seconds;
  numbers.exhaustive_seconds = exhaustive_seconds;
  numbers.pairs_per_second =
      numbers.pruned_seconds > 0
          ? static_cast<double>(numbers.pruned.total_tuples) / numbers.pruned_seconds
          : 0.0;
  numbers.prune_rate =
      numbers.pruned.total_tuples == 0
          ? 0.0
          : 100.0 * static_cast<double>(numbers.pruned.reused_tuples()) /
                static_cast<double>(numbers.pruned.total_tuples);
  numbers.speedup = numbers.pruned_seconds > 0
                        ? numbers.exhaustive_seconds / numbers.pruned_seconds
                        : 0.0;
  return numbers;
}

void BM_PairSweepPruned(benchmark::State& state) {
  const guests::Guest& guest = guests::pincheck();
  const elf::Image image = guests::build_image(guest);
  const sim::Engine engine(image, guest.good_input, guest.bad_input);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_tuples(pair_models()));
  }
}
BENCHMARK(BM_PairSweepPruned)->Unit(benchmark::kMillisecond);

void BM_PairSweepExhaustive(benchmark::State& state) {
  const guests::Guest& guest = guests::pincheck();
  const elf::Image image = guests::build_image(guest);
  sim::EngineConfig config;
  config.convergence_pruning = false;
  config.pair_outcome_reuse = false;
  const sim::Engine engine(image, guest.good_input, guest.bad_input, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_tuples(pair_models()));
  }
}
BENCHMARK(BM_PairSweepExhaustive)->Unit(benchmark::kMillisecond);

void BM_PairEnumeration(benchmark::State& state) {
  const guests::Guest& guest = guests::pincheck();
  const elf::Image image = guests::build_image(guest);
  const sim::Engine engine(image, guest.good_input, guest.bad_input);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::enumerate_fault_pairs(pair_models(), engine.references().bad_trace));
  }
}
BENCHMARK(BM_PairEnumeration);

}  // namespace

int main(int argc, char** argv) {
  r2r::bench::enable_observability();
  r2r::bench::print_header(
      "Order-2 fault campaigns: outcome-reuse pruning vs exhaustive pairs",
      "multi-fault scenario (Boespflug et al.) on the Fig. 2 faulter");

  const guests::Guest& guest = guests::pincheck();
  const elf::Image image = guests::build_image(guest);

  std::string json = "{\n  " + bench::target_field(isa::Arch::kX64) +
                     ",\n  \"guest\": \"" + guest.name + "\",\n  \"threads\": [";
  bool first = true;
  std::optional<SweepNumbers> serial_numbers;
  for (const unsigned threads : {1u, 8u}) {
    const SweepNumbers n = compare_sweeps(image, guest, threads);
    if (threads == 1) serial_numbers = n;
    std::printf(
        "threads=%u pairs=%-6llu pruned=%8.3fs exhaustive=%8.3fs speedup=%5.2fx "
        "pairs/s=%9.0f prune-rate=%5.1f%% reused(first=%llu second=%llu) "
        "identical=yes\n",
        threads, static_cast<unsigned long long>(n.pruned.total_tuples),
        n.pruned_seconds, n.exhaustive_seconds, n.speedup, n.pairs_per_second,
        n.prune_rate, static_cast<unsigned long long>(n.pruned.levels.back().reused_prefix),
        static_cast<unsigned long long>(n.pruned.levels.back().reused_suffix));

    if (!first) json += ", ";
    first = false;
    json += "{\"threads\": " + std::to_string(threads) +
            ", \"pruned_seconds\": " + support::format_fixed(n.pruned_seconds, 4) +
            ", \"exhaustive_seconds\": " +
            support::format_fixed(n.exhaustive_seconds, 4) +
            ", \"speedup\": " + support::format_fixed(n.speedup, 2) +
            ", \"pairs_per_second\": " + support::format_fixed(n.pairs_per_second, 0) +
            ", \"prune_rate_percent\": " + support::format_fixed(n.prune_rate, 1) +
            ", \"campaign\": " + n.pruned.to_json() + "}";
  }
  json += "]\n}\n";

  const char* json_path = "bench_double_fault.json";
  std::ofstream out(json_path);
  out << bench::with_metrics_snapshot(json);
  out.close();
  std::printf("JSON written to %s\n", json_path);

  std::printf("\n%s\n",
              harden::residual_tuple_fault_section(guest.name, serial_numbers->pruned)
                  .c_str());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
