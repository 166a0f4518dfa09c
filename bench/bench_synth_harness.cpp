// Synthetic-guest generator + property-harness throughput.
//
// The property harness (tests/test_synth_pipeline.cpp) is only useful as a
// PR gate while a full seed's chain — generate, build, campaign, hybrid
// harden, faulter+patcher, ELF round-trip — stays cheap. This bench
// measures the per-stage cost on a representative seed window, checks the
// self-checking acceptance bar (every swept seed reaches the order-1
// fix-point with behaviour preserved), and writes a JSON artifact with
// seeds/sec so CI trends regressions in harness cost.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_util.h"
#include "guests/synth.h"
#include "harden/hybrid.h"
#include "patch/pipeline.h"

namespace {

using namespace r2r;

constexpr std::uint64_t kSweepBase = 1;
constexpr std::uint64_t kSweepCount = 24;

fault::CampaignConfig skip_campaign() {
  fault::CampaignConfig config;
  config.models.bit_flip = false;
  return config;
}

void BM_Generate(benchmark::State& state) {
  std::uint64_t seed = kSweepBase;
  for (auto _ : state) {
    benchmark::DoNotOptimize(guests::synth::generate(seed++));
  }
}
BENCHMARK(BM_Generate)->Unit(benchmark::kMicrosecond);

void BM_GenerateAndBuildImage(benchmark::State& state) {
  std::uint64_t seed = kSweepBase;
  for (auto _ : state) {
    const guests::Guest guest = guests::synth::generate(seed++);
    benchmark::DoNotOptimize(guests::build_image(guest));
  }
}
BENCHMARK(BM_GenerateAndBuildImage)->Unit(benchmark::kMicrosecond);

void BM_FullChainOneSeed(benchmark::State& state) {
  const guests::Guest guest = guests::synth::generate(8);  // corpus: call-heavy
  const elf::Image input = guests::build_image(guest);
  for (auto _ : state) {
    const harden::HybridResult hybrid = harden::hybrid_harden(input);
    patch::PipelineConfig config;
    config.campaign = skip_campaign();
    benchmark::DoNotOptimize(patch::faulter_patcher(
        hybrid.hardened, guest.good_input, guest.bad_input, config));
  }
}
BENCHMARK(BM_FullChainOneSeed)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  r2r::bench::enable_observability();
  r2r::bench::print_header(
      "Synthetic-guest property-harness throughput",
      "ARMORY-style breadth: full-pipeline invariants swept across "
      "generated program shapes");

  // Self-check + seeds/sec over the sweep window: every seed must reach the
  // order-1 fix-point with behaviour preserved (the harness invariants).
  r2r::bench::Phase sweep_phase("bench.full_chain_sweep");
  unsigned violations = 0;
  for (std::uint64_t seed = kSweepBase; seed < kSweepBase + kSweepCount; ++seed) {
    const guests::Guest guest = guests::synth::generate(seed);
    const elf::Image input = guests::build_image(guest);
    const harden::HybridResult hybrid = harden::hybrid_harden(input);
    patch::PipelineConfig config;
    config.campaign = skip_campaign();
    const patch::PipelineResult patched = patch::faulter_patcher(
        hybrid.hardened, guest.good_input, guest.bad_input, config);
    const emu::RunResult good = emu::run_image(patched.hardened, guest.good_input);
    const emu::RunResult bad = emu::run_image(patched.hardened, guest.bad_input);
    const bool ok = patched.fixpoint() && good.output == guest.good_output &&
                    good.exit_code == guest.good_exit &&
                    bad.output == guest.bad_output &&
                    bad.exit_code == guest.bad_exit;
    if (!ok) {
      ++violations;
      std::printf("VIOLATION at seed %llu (repro: ./test_synth_pipeline "
                  "--seed=%llu)\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(seed));
    }
  }
  const double elapsed = sweep_phase.stop();
  const double seeds_per_sec = static_cast<double>(kSweepCount) / elapsed;
  std::printf("full-chain sweep: %llu seeds in %.2fs (%.1f seeds/sec), "
              "%u invariant violations\n",
              static_cast<unsigned long long>(kSweepCount), elapsed,
              seeds_per_sec, violations);

  const char* json_path = "bench_synth_harness.json";
  {
    std::ostringstream body;
    body << "{\n"
         << "  " << r2r::bench::target_field(isa::Arch::kX64) << ",\n"
         << "  \"sweep_base\": " << kSweepBase << ",\n"
         << "  \"sweep_count\": " << kSweepCount << ",\n"
         << "  \"full_chain_seconds\": " << elapsed << ",\n"
         << "  \"seeds_per_second\": " << seeds_per_sec << ",\n"
         << "  \"invariant_violations\": " << violations << "\n"
         << "}\n";
    std::ofstream out(json_path);
    out << r2r::bench::with_metrics_snapshot(body.str());
  }
  std::printf("JSON written to %s\n\n", json_path);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return violations == 0 ? 0 : 1;
}
