// sim:: engine — snapshot round-trips, copy-on-write page isolation,
// checkpoint policy, scheduler determinism across thread counts, and
// bit-identical classification against the seed full-replay sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "fault/campaign.h"
#include "guests/guests.h"
#include "patch/pipeline.h"
#include "sim/engine.h"
#include "sim/snapshot.h"
#include "support/error.h"
#include "support/rng.h"

namespace r2r::sim {
namespace {

using guests::Guest;

TEST(MachineSnapshot, RoundTripRestoresFullState) {
  const Guest& guest = guests::pincheck();
  const elf::Image image = guests::build_image(guest);
  emu::Machine machine(image, guest.bad_input);

  emu::RunConfig config;
  config.fuel = 8;
  ASSERT_EQ(machine.run(config).reason, emu::StopReason::kFuelExhausted);

  const MachineSnapshot snapshot = capture(machine);
  EXPECT_TRUE(same_state(snapshot, machine));
  EXPECT_EQ(snapshot.steps, 8u);

  config.fuel = 16;
  ASSERT_EQ(machine.run(config).reason, emu::StopReason::kFuelExhausted);
  EXPECT_FALSE(same_state(snapshot, machine));

  restore(snapshot, machine);
  EXPECT_TRUE(same_state(snapshot, machine));
  EXPECT_EQ(machine.steps(), 8u);

  // The resumed continuation is indistinguishable from an untouched replay.
  emu::RunConfig full;
  const emu::RunResult resumed = machine.run(full);
  const emu::RunResult replayed = emu::run_image(image, guest.bad_input, full);
  EXPECT_TRUE(resumed.observably_equal(replayed));
  EXPECT_EQ(resumed.steps, replayed.steps);
}

TEST(MachineSnapshot, PagesAreSharedUntilWritten) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  emu::Machine machine(image, guest.bad_input);

  const MachineSnapshot first = capture(machine);
  const MachineSnapshot second = capture(machine);
  ASSERT_EQ(first.memory.regions.size(), second.memory.regions.size());
  for (std::size_t r = 0; r < first.memory.regions.size(); ++r) {
    const auto& a = first.memory.regions[r];
    const auto& b = second.memory.regions[r];
    ASSERT_EQ(a.pages.size(), b.pages.size());
    for (std::size_t p = 0; p < a.pages.size(); ++p) {
      EXPECT_EQ(a.pages[p].get(), b.pages[p].get())
          << "untouched page copied instead of shared";
    }
  }

  // One write dirties exactly one page; the next capture copies only it.
  const std::uint64_t address = emu::Machine::kStackBase - 64;
  machine.memory().write(address, 0xAB, 1);
  const MachineSnapshot third = capture(machine);
  std::size_t copied_pages = 0;
  for (std::size_t r = 0; r < third.memory.regions.size(); ++r) {
    const auto& before = second.memory.regions[r];
    const auto& after = third.memory.regions[r];
    for (std::size_t p = 0; p < after.pages.size(); ++p) {
      if (before.pages[p].get() != after.pages[p].get()) ++copied_pages;
    }
  }
  EXPECT_EQ(copied_pages, 1u);
}

TEST(MachineSnapshot, CowIsolatesWorkerMachines) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  emu::Machine recorder(image, guest.bad_input);
  const MachineSnapshot snapshot = capture(recorder);

  emu::Machine worker(image, guest.bad_input);
  restore(snapshot, worker);
  ASSERT_TRUE(same_state(snapshot, worker));

  // A worker scribbling over shared pages must not leak into the snapshot
  // or into the machine the snapshot was captured from.
  const std::uint64_t address = emu::Machine::kStackBase - 128;
  worker.memory().write(address, 0xDEAD, 2);
  EXPECT_FALSE(same_state(snapshot, worker));
  EXPECT_TRUE(same_state(snapshot, recorder));
  EXPECT_NE(worker.memory().read(address, 2), recorder.memory().read(address, 2));

  // Restoring rewinds the scribble.
  restore(snapshot, worker);
  EXPECT_TRUE(same_state(snapshot, worker));
}

// A restore of the snapshot the memory is synced to visits only the pages
// written since; any other snapshot takes the full page scan. Randomized
// writes, captures and restores (of the synced snapshot, of older ones, of
// copies, and of snapshots captured on another machine) must leave exactly
// the bytes a fresh machine's full-scan restore leaves.
TEST(MachineSnapshot, FastRestoreMatchesFullScan) {
  const Guest& guest = guests::pincheck();
  const elf::Image image = guests::build_image(guest);
  struct Span {
    std::uint64_t base = 0;
    std::uint64_t size = 0;
    bool code = false;
  };
  std::vector<Span> layout;  // in mapping order: segments, then the stack
  for (const auto& segment : image.segments) {
    if (segment.size_in_memory() == 0) continue;
    layout.push_back({segment.vaddr, segment.size_in_memory(),
                      (segment.flags & elf::kExecute) != 0});
  }
  {
    const emu::Machine probe(image, guest.bad_input);
    const std::uint64_t top = probe.target().stack_base();
    layout.push_back({top - emu::Machine::kStackSize, emu::Machine::kStackSize, false});
  }
  using Bytes = std::vector<std::vector<std::uint8_t>>;
  const auto bytes_of = [&](const emu::Memory& memory) {
    Bytes out;
    for (const Span& span : layout) out.push_back(memory.read_block(span.base, span.size));
    return out;
  };
  struct Taken {
    emu::Memory::Snapshot snapshot;
    Bytes bytes;
  };

  std::size_t fast_restores = 0;
  std::size_t fast_code_restores = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    support::Rng rng(seed);
    emu::Machine machine(image, guest.bad_input);
    emu::Machine other(image, guest.bad_input);
    Bytes shadow = bytes_of(machine.memory());
    Bytes other_shadow = shadow;
    std::vector<Taken> taken;
    std::optional<std::size_t> synced;  // index into `taken`
    bool code_written = false;           // a code page written since the sync point

    // Scribbles 1-6 short writes, a quarter of them into code.
    const auto scribble = [&](emu::Memory& memory, Bytes& bytes) {
      bool code = false;
      for (std::uint64_t n = 1 + rng.next_below(6); n > 0; --n) {
        std::size_t r = layout.size() - 1;  // the stack by default
        if (rng.next_below(4) == 0) {
          r = 0;
          while (!layout[r].code) ++r;
        } else if (rng.next_bool()) {
          r = rng.next_below(layout.size());
        }
        const Span& span = layout[r];
        const std::uint64_t offset = rng.next_below(span.size);
        std::vector<std::uint8_t> data(
            std::min<std::uint64_t>(1 + rng.next_below(16), span.size - offset));
        for (std::uint8_t& byte : data) byte = static_cast<std::uint8_t>(rng.next());
        memory.write_block(span.base + offset, data);
        std::copy(data.begin(), data.end(),
                  bytes[r].begin() + static_cast<std::ptrdiff_t>(offset));
        code = code || span.code;
      }
      return code;
    };

    for (int step = 0; step < 300; ++step) {
      const std::uint64_t op = rng.next_below(taken.empty() ? 2 : 6);
      if (op == 0) {
        code_written = scribble(machine.memory(), shadow) || code_written;
      } else if (op == 1) {
        taken.push_back({machine.memory().capture(), shadow});
        synced = taken.size() - 1;
        code_written = false;
      } else if (op == 2) {
        scribble(other.memory(), other_shadow);
        taken.push_back({other.memory().capture(), other_shadow});
      } else {
        // 3: the synced snapshot (when there is one); 4: any snapshot;
        // 5: a copy of any snapshot, which keeps its identity.
        const std::size_t index =
            op == 3 && synced.has_value() ? *synced : rng.next_below(taken.size());
        const emu::Memory::Snapshot copy = taken[index].snapshot;
        const emu::Memory::Snapshot& target = op == 5 ? copy : taken[index].snapshot;
        const bool fast = synced == index;
        const std::uint64_t epoch = machine.memory().code_write_epoch();
        machine.memory().restore(target);
        fast_restores += fast ? 1 : 0;
        if (fast && code_written) {
          ++fast_code_restores;
          EXPECT_GT(machine.memory().code_write_epoch(), epoch)
              << "fast restore rewrote code without bumping the epoch";
        }
        emu::Machine fresh(image, guest.bad_input);
        fresh.memory().restore(target);
        ASSERT_EQ(bytes_of(machine.memory()), bytes_of(fresh.memory())) << "step " << step;
        shadow = taken[index].bytes;
        synced = index;
        code_written = false;
      }
      ASSERT_EQ(bytes_of(machine.memory()), shadow) << "step " << step;
      for (const Taken& t : taken) {
        ASSERT_EQ(machine.memory().equals(t.snapshot), t.bytes == shadow) << "step " << step;
      }
    }
  }
  // Both paths were exercised, the fast one also over rewritten code.
  EXPECT_GT(fast_restores, 30u);
  EXPECT_GT(fast_code_restores, 5u);
}

TEST(SnapshotPolicy, TunesIntervalToTraceLength) {
  const SnapshotPolicy policy;
  EXPECT_EQ(policy.interval_for(0), policy.min_interval);
  EXPECT_EQ(policy.interval_for(100), policy.min_interval);  // sqrt(100) < min
  EXPECT_EQ(policy.interval_for(10'000), 100u);
  EXPECT_EQ(policy.interval_for(1'000'000), 1000u);
  EXPECT_EQ(policy.interval_for(~0ULL), policy.max_interval);

  SnapshotPolicy fixed;
  fixed.fixed_interval = 7;
  EXPECT_EQ(fixed.interval_for(1'000'000), 7u);
}

FaultModels paper_models() {
  FaultModels models;
  models.skip = true;
  models.bit_flip = true;
  return models;
}

TEST(Engine, SerialSweepMatchesFullReplaySeedSemantics) {
  // Reference implementation: the seed faulter's O(trace²) loop — a fresh
  // machine replayed from entry for every planned fault.
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  const fault::Oracle oracle =
      fault::make_oracle(image, guest.good_input, guest.bad_input);

  const Engine engine(image, guest.good_input, guest.bad_input, EngineConfig{});
  const std::vector<PlannedFault> plan =
      enumerate_faults(paper_models(), oracle.bad_trace);

  emu::RunConfig replay;
  replay.fuel = oracle.bad_reference.steps * 8 + 4096;
  std::vector<Vulnerability> expected_vulnerabilities;
  std::map<Outcome, std::uint64_t> expected_counts;
  for (const PlannedFault& fault : plan) {
    replay.fault = fault.spec;
    const emu::RunResult run = emu::run_image(image, guest.bad_input, replay);
    const Outcome outcome = oracle.classify(run, 42);
    ++expected_counts[outcome];
    if (outcome == Outcome::kSuccess) {
      expected_vulnerabilities.push_back(Vulnerability{fault.spec, fault.address});
    }
  }

  const CampaignResult result = engine.run(paper_models());
  EXPECT_EQ(result.total_faults, plan.size());
  EXPECT_EQ(result.outcome_counts, expected_counts);
  EXPECT_EQ(result.vulnerabilities, expected_vulnerabilities);
  EXPECT_GT(result.count(Outcome::kSuccess), 0u);
}

TEST(Engine, ConvergencePruningDoesNotChangeClassification) {
  const Guest& guest = guests::pincheck();
  const elf::Image image = guests::build_image(guest);

  EngineConfig pruned_config;
  pruned_config.convergence_pruning = true;
  EngineConfig full_config;
  full_config.convergence_pruning = false;

  const Engine pruned(image, guest.good_input, guest.bad_input, pruned_config);
  const Engine full(image, guest.good_input, guest.bad_input, full_config);
  const CampaignResult a = pruned.run(paper_models());
  const CampaignResult b = full.run(paper_models());

  EXPECT_EQ(a.outcome_counts, b.outcome_counts);
  EXPECT_EQ(a.vulnerabilities, b.vulnerabilities);
  EXPECT_GT(a.pruned_faults, 0u) << "pruning never fired on a real guest";
  EXPECT_EQ(b.pruned_faults, 0u);
}

TEST(Engine, FixedIntervalPartialFinalSegmentMatchesFullReplay) {
  // Regression for the checkpoint-chain recording loop's cumulative fuel
  // bound (chain.size() * interval): when the interval does not divide the
  // trace length, the final segment is partial and has no checkpoint at its
  // end — faults injected there must still rehydrate from the last full
  // checkpoint and classify exactly like a replay from entry.
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  const fault::Oracle oracle =
      fault::make_oracle(image, guest.good_input, guest.bad_input);
  const std::uint64_t length = oracle.bad_trace.size();
  ASSERT_GT(length, 8u);

  // Ground truth once: the seed full-replay sweep.
  const std::vector<PlannedFault> plan =
      enumerate_faults(paper_models(), oracle.bad_trace);
  emu::RunConfig replay;
  replay.fuel = oracle.bad_reference.steps * 8 + 4096;
  std::map<Outcome, std::uint64_t> expected_counts;
  std::vector<Vulnerability> expected_vulnerabilities;
  for (const PlannedFault& fault : plan) {
    replay.fault = fault.spec;
    const emu::RunResult run = emu::run_image(image, guest.bad_input, replay);
    const Outcome outcome = oracle.classify(run, 42);
    ++expected_counts[outcome];
    if (outcome == Outcome::kSuccess) {
      expected_vulnerabilities.push_back(Vulnerability{fault.spec, fault.address});
    }
  }

  for (const std::uint64_t interval :
       std::vector<std::uint64_t>{3, 7, length - 1, length + 5}) {
    SCOPED_TRACE("fixed_interval=" + std::to_string(interval));
    EngineConfig config;
    config.policy.fixed_interval = interval;
    const Engine engine(image, guest.good_input, guest.bad_input, config);
    // chain_[k] freezes step k * interval; the final partial segment (when
    // the interval does not divide the trace) has no trailing checkpoint.
    const std::uint64_t expected_snapshots = (length + interval - 1) / interval;
    EXPECT_EQ(engine.snapshot_count(), expected_snapshots);

    const CampaignResult result = engine.run(paper_models());
    EXPECT_EQ(result.outcome_counts, expected_counts);
    EXPECT_EQ(result.vulnerabilities, expected_vulnerabilities);
  }
}

TEST(Engine, FixedIntervalPartialFinalSegmentMatchesDefaultPairSweep) {
  // The order-2 analogue: pairs whose second fault lands in the final
  // partial segment classify identically under a misaligned fixed interval
  // and under the default policy (itself validated against brute force).
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);

  FaultModels models;
  models.bit_flip = false;
  models.order = 2;
  models.pair_window = 5;

  EngineConfig reference_config;
  const Engine reference(image, guest.good_input, guest.bad_input, reference_config);
  const TupleCampaignResult expected = reference.run_tuples(models);

  EngineConfig fixed;
  fixed.policy.fixed_interval = 7;
  const Engine engine(image, guest.good_input, guest.bad_input, fixed);
  ASSERT_NE(engine.references().bad_trace.size() % 7, 0u)
      << "trace length became a multiple of the interval; pick another";
  const TupleCampaignResult result = engine.run_tuples(models);
  EXPECT_EQ(result.outcome_counts, expected.outcome_counts);
  EXPECT_EQ(result.vulnerabilities, expected.vulnerabilities);
}

TEST(Scheduler, ThreadCountDoesNotChangeResults) {
  for (const Guest* guest : guests::all_guests()) {
    const elf::Image image = guests::build_image(*guest);
    fault::CampaignConfig serial;
    serial.threads = 1;
    fault::CampaignConfig parallel;
    parallel.threads = 8;
    const fault::CampaignResult one =
        fault::run_campaign(image, guest->good_input, guest->bad_input, serial);
    const fault::CampaignResult eight =
        fault::run_campaign(image, guest->good_input, guest->bad_input, parallel);
    EXPECT_EQ(one.vulnerabilities, eight.vulnerabilities) << guest->name;
    EXPECT_EQ(one.outcome_counts, eight.outcome_counts) << guest->name;
    EXPECT_EQ(one.total_faults, eight.total_faults) << guest->name;
    EXPECT_EQ(one.trace_length, eight.trace_length) << guest->name;
  }
}

// ---- order-2 (double fault) campaigns ---------------------------------------

FaultModels pair_models(std::uint64_t window) {
  FaultModels models;
  models.order = 2;
  models.pair_window = window;
  return models;
}

TEST(PairEnumeration, RespectsWindowAndCanonicalOrder) {
  std::vector<emu::TraceEntry> trace = {{0x10, 2}, {0x12, 1}, {0x13, 3}, {0x16, 1}};
  FaultModels skip_only = pair_models(2);
  skip_only.bit_flip = false;

  const std::vector<PlannedPair> pairs = enumerate_fault_pairs(skip_only, trace);
  // skip-only: one fault per index; pairs (t1, t2) with 0 < t2 - t1 <= 2.
  ASSERT_EQ(pairs.size(), 5u);  // (0,1) (0,2) (1,2) (1,3) (2,3)
  for (const PlannedPair& pair : pairs) {
    EXPECT_LT(pair.first.trace_index, pair.second.trace_index);
    EXPECT_LE(pair.second.trace_index - pair.first.trace_index, 2u);
    EXPECT_EQ(pair.first.kind, emu::FaultSpec::Kind::kSkip);
    EXPECT_EQ(pair.first_address, trace[pair.first.trace_index].address);
    EXPECT_EQ(pair.second_address, trace[pair.second.trace_index].address);
  }
  // Canonical order: ascending first fault, then ascending second.
  EXPECT_EQ(pairs[0].second.trace_index, 1u);
  EXPECT_EQ(pairs[1].second.trace_index, 2u);
  EXPECT_EQ(pairs[4].first.trace_index, 2u);

  // A zero window enumerates no pairs (0 < t2 - t1 <= 0 is unsatisfiable).
  EXPECT_TRUE(enumerate_fault_pairs(pair_models(0), trace).empty());

  // With bit flips on, every pair of the per-index fault groups appears.
  const std::vector<PlannedPair> full = enumerate_fault_pairs(pair_models(1), trace);
  std::uint64_t expected = 0;
  const auto faults_at = [&](std::size_t i) { return 1ULL + trace[i].length * 8ULL; };
  for (std::size_t t = 0; t + 1 < trace.size(); ++t) {
    expected += faults_at(t) * faults_at(t + 1);
  }
  EXPECT_EQ(full.size(), expected);
}

TEST(Engine, PairSweepMatchesBruteForceDoubleReplay) {
  // Ground truth: a fresh machine replayed from entry for every single fault
  // and every pair — for a pair, run with the first fault armed up to the
  // second injection point, then resume with the second fault armed. No
  // snapshots, no forks, no pruning. Skip + bit flip puts dozens of faults
  // on one step, so the sweep restores its forks at every step.
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  const fault::Oracle oracle =
      fault::make_oracle(image, guest.good_input, guest.bad_input);

  const FaultModels models = pair_models(3);
  const std::uint64_t fuel = oracle.bad_reference.steps * 8 + 4096;

  std::map<Outcome, std::uint64_t> expected_singles;
  std::vector<Vulnerability> expected_single_vulnerabilities;
  for (const PlannedFault& fault : enumerate_faults(models, oracle.bad_trace)) {
    emu::Machine machine(image, guest.bad_input);
    emu::RunConfig config;
    config.fault = fault.spec;
    config.fuel = fuel;
    const Outcome outcome = oracle.classify(machine.run(config), patch::kDetectedExit);
    ++expected_singles[outcome];
    if (outcome == Outcome::kSuccess) {
      expected_single_vulnerabilities.push_back(Vulnerability{fault.spec, fault.address});
    }
  }

  const std::vector<PlannedPair> plan = enumerate_fault_pairs(models, oracle.bad_trace);
  std::map<Outcome, std::uint64_t> expected_counts;
  std::vector<TupleVulnerability> expected_vulnerabilities;
  for (const PlannedPair& pair : plan) {
    emu::Machine machine(image, guest.bad_input);
    emu::RunConfig leg1;
    leg1.fault = pair.first;
    leg1.fuel = pair.second.trace_index;
    emu::RunResult run = machine.run(leg1);
    // Where the second fault actually lands: the paused machine's rip, or
    // the golden address when the first fault's run already terminated.
    std::uint64_t second_hit = pair.second_address;
    if (run.reason == emu::StopReason::kFuelExhausted) {
      second_hit = machine.cpu().rip;
      emu::RunConfig leg2;
      leg2.fault = pair.second;
      leg2.fuel = fuel;
      run = machine.run(leg2);
    }
    const Outcome outcome = oracle.classify(run, patch::kDetectedExit);
    ++expected_counts[outcome];
    if (outcome == Outcome::kSuccess) {
      expected_vulnerabilities.push_back(
          TupleVulnerability{{pair.first, pair.second},
                             {pair.first_address, pair.second_address},
                             {pair.first_address, second_hit}});
    }
  }
  // Attribution: both sites of every pair neither of whose faults succeeds
  // alone, the second one where it actually struck.
  std::vector<std::uint64_t> expected_sites;
  for (const TupleVulnerability& pair : expected_vulnerabilities) {
    const auto alone = [&](const emu::FaultSpec& spec) {
      return std::any_of(expected_single_vulnerabilities.begin(),
                         expected_single_vulnerabilities.end(),
                         [&](const Vulnerability& v) { return v.spec == spec; });
    };
    if (alone(pair.faults[0]) || alone(pair.faults[1])) continue;
    expected_sites.insert(expected_sites.end(), pair.hit_addresses.begin(),
                          pair.hit_addresses.end());
  }
  std::sort(expected_sites.begin(), expected_sites.end());
  expected_sites.erase(std::unique(expected_sites.begin(), expected_sites.end()),
                       expected_sites.end());

  const Engine engine(image, guest.good_input, guest.bad_input, EngineConfig{});
  const TupleCampaignResult result = engine.run_tuples(models);
  EXPECT_EQ(result.order, 2u);
  EXPECT_EQ(result.outcome_counts, expected_counts);
  EXPECT_EQ(result.vulnerabilities, expected_vulnerabilities);
  EXPECT_EQ(result.total_tuples, plan.size());
  EXPECT_EQ(result.enumerated_tuples, plan.size());
  EXPECT_FALSE(result.sampled);
  ASSERT_EQ(result.levels.size(), 1u);
  EXPECT_EQ(result.levels[0].order, 2u);
  EXPECT_EQ(result.levels[0].successful, expected_vulnerabilities.size());
  EXPECT_EQ(result.order1.outcome_counts, expected_singles);
  EXPECT_EQ(result.order1.vulnerabilities, expected_single_vulnerabilities);
  EXPECT_EQ(result.patch_sites(), expected_sites);
  EXPECT_GT(result.count(Outcome::kSuccess), 0u);
  EXPECT_FALSE(expected_sites.empty())
      << "no strictly second-order pair; attribution untested";
}

TEST(Engine, PairSweepEmbedsTheOrderOneSweep) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  const Engine engine(image, guest.good_input, guest.bad_input, EngineConfig{});

  const FaultModels models = pair_models(4);
  FaultModels single = models;
  single.order = 1;
  const CampaignResult order1 = engine.run(single);
  const TupleCampaignResult order2 = engine.run_tuples(models);
  EXPECT_EQ(order2.order1.outcome_counts, order1.outcome_counts);
  EXPECT_EQ(order2.order1.vulnerabilities, order1.vulnerabilities);
  EXPECT_EQ(order2.order1.total_faults, order1.total_faults);
  EXPECT_EQ(order2.order1.pruned_faults, order1.pruned_faults);

  // Each entry point rejects models of the other order — an order-2
  // request can never silently degrade into an order-1 sweep.
  EXPECT_THROW(engine.run(models), support::Error);
  EXPECT_THROW(engine.run_tuples(single), support::Error);
}

TEST(Engine, PairOutcomeReuseIsExact) {
  // Pruning soundness: outcome reuse + convergence pruning vs the fully
  // exhaustive order-2 sweep must agree bit for bit — same pair
  // vulnerability list, same per-pair outcome counts, same patch sites.
  const Guest& guest = guests::pincheck();
  const elf::Image image = guests::build_image(guest);

  EngineConfig pruned_config;
  EngineConfig exhaustive_config;
  exhaustive_config.convergence_pruning = false;
  exhaustive_config.pair_outcome_reuse = false;

  FaultModels models = pair_models(8);
  models.bit_flip = false;  // skip-only keeps the exhaustive sweep tractable

  const Engine pruned(image, guest.good_input, guest.bad_input, pruned_config);
  const Engine exhaustive(image, guest.good_input, guest.bad_input, exhaustive_config);
  const TupleCampaignResult a = pruned.run_tuples(models);
  const TupleCampaignResult b = exhaustive.run_tuples(models);

  EXPECT_EQ(a.outcome_counts, b.outcome_counts);
  EXPECT_EQ(a.vulnerabilities, b.vulnerabilities);
  EXPECT_EQ(a.patch_sites(), b.patch_sites());
  EXPECT_EQ(a.order1.outcome_counts, b.order1.outcome_counts);
  EXPECT_EQ(a.order1.vulnerabilities, b.order1.vulnerabilities);
  EXPECT_GT(a.reused_tuples(), 0u) << "outcome reuse never fired on a real guest";
  EXPECT_LT(a.simulated_tuples(), a.total_tuples);
  EXPECT_EQ(b.reused_tuples(), 0u);
  EXPECT_EQ(b.simulated_tuples(), b.total_tuples);
}

TEST(Scheduler, ThreadCountDoesNotChangePairResults) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);

  EngineConfig serial;
  serial.threads = 1;
  EngineConfig parallel;
  parallel.threads = 8;
  const Engine one(image, guest.good_input, guest.bad_input, serial);
  const Engine eight(image, guest.good_input, guest.bad_input, parallel);

  const FaultModels models = pair_models(4);
  const TupleCampaignResult a = one.run_tuples(models);
  const TupleCampaignResult b = eight.run_tuples(models);
  EXPECT_EQ(a.vulnerabilities, b.vulnerabilities);
  EXPECT_EQ(a.outcome_counts, b.outcome_counts);
  EXPECT_EQ(a.patch_sites(), b.patch_sites());
  EXPECT_EQ(a.order1.vulnerabilities, b.order1.vulnerabilities);
  EXPECT_EQ(a.reused_tuples(), b.reused_tuples());
  EXPECT_EQ(a.total_tuples, b.total_tuples);
  EXPECT_EQ(b.threads_used, 8u);
}

TEST(Engine, HardenedPincheckFallsOnlyToDoubleFaults) {
  // The acceptance scenario: pincheck hardened with the paper's duplication
  // patterns (the Faulter+Patcher loop) is clean under single skip faults,
  // yet the order-2 sweep still finds vulnerabilities — identically for
  // pruned vs exhaustive enumeration at 1 and 8 threads.
  const Guest& guest = guests::pincheck();
  patch::PipelineConfig pipeline_config;
  pipeline_config.campaign.models.bit_flip = false;
  pipeline_config.campaign.threads = 0;
  const patch::PipelineResult patched = patch::faulter_patcher(
      guests::build_image(guest), guest.good_input, guest.bad_input, pipeline_config);

  FaultModels models = pair_models(8);
  models.bit_flip = false;

  std::optional<TupleCampaignResult> reference;
  for (const unsigned threads : {1u, 8u}) {
    for (const bool exhaustive : {false, true}) {
      EngineConfig config;
      config.threads = threads;
      config.convergence_pruning = !exhaustive;
      config.pair_outcome_reuse = !exhaustive;
      const Engine engine(patched.hardened, guest.good_input, guest.bad_input, config);
      const TupleCampaignResult result = engine.run_tuples(models);
      if (!reference) {
        reference = result;
        continue;
      }
      EXPECT_EQ(result.vulnerabilities, reference->vulnerabilities)
          << "threads=" << threads << " exhaustive=" << exhaustive;
      EXPECT_EQ(result.outcome_counts, reference->outcome_counts)
          << "threads=" << threads << " exhaustive=" << exhaustive;
      EXPECT_EQ(result.order1.vulnerabilities, reference->order1.vulnerabilities);
    }
  }
  ASSERT_TRUE(reference.has_value());
  EXPECT_EQ(reference->order1.count(Outcome::kSuccess), 0u)
      << "hardened pincheck is not order-1 clean";
  EXPECT_GE(reference->count(Outcome::kSuccess), 1u)
      << "order-2 sweep found no residual double-fault vulnerability";
  EXPECT_GE(reference->strictly_higher_order().size(), 1u)
      << "every residual pair was already visible to order 1";

  // Pair → site attribution: on this binary some residual pairs start by
  // skipping a branch, so the second fault lands off the golden trace —
  // its hit address must track the diverged control flow (it feeds the
  // order-2 patcher), and patch_sites() merges both ends of every pair.
  bool any_diverged = false;
  for (const TupleVulnerability& pair : reference->vulnerabilities) {
    if (pair.hit_addresses[1] != pair.addresses[1]) any_diverged = true;
  }
  EXPECT_TRUE(any_diverged)
      << "no pair diverged from the golden trace; hit attribution untested";
  const auto sites = reference->patch_sites();
  ASSERT_FALSE(sites.empty());
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
  EXPECT_EQ(std::adjacent_find(sites.begin(), sites.end()), sites.end());
  for (const TupleVulnerability& pair : reference->strictly_higher_order()) {
    EXPECT_TRUE(std::binary_search(sites.begin(), sites.end(), pair.addresses[0]));
    EXPECT_TRUE(std::binary_search(sites.begin(), sites.end(), pair.hit_addresses[1]));
  }
}

TEST(Engine, PairResultExportsJsonAndDerivedViews) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  const Engine engine(image, guest.good_input, guest.bad_input, EngineConfig{});
  const TupleCampaignResult result = engine.run_tuples(pair_models(4));

  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"order\": 2,"), std::string::npos);
  EXPECT_NE(json.find("\"total_tuples\""), std::string::npos);
  EXPECT_NE(json.find("\"vulnerable_tuples\""), std::string::npos);
  EXPECT_NE(json.find("\"order1_total_faults\""), std::string::npos);

  const auto merged = result.merged_vulnerable_tuples();
  EXPECT_LE(merged.size(), result.vulnerabilities.size());
  EXPECT_EQ(merged.empty(), result.vulnerabilities.empty());
  // Every strictly-second-order pair is a successful pair whose halves both
  // fail alone.
  for (const TupleVulnerability& pair : result.strictly_higher_order()) {
    for (const Vulnerability& single : result.order1.vulnerabilities) {
      EXPECT_FALSE(single.spec == pair.faults[0]);
      EXPECT_FALSE(single.spec == pair.faults[1]);
    }
  }
}

TEST(Engine, ExportsJsonForDownstreamTooling) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  const Engine engine(image, guest.good_input, guest.bad_input, EngineConfig{});
  const CampaignResult result = engine.run(paper_models());

  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"total_faults\""), std::string::npos);
  EXPECT_NE(json.find("\"outcomes\""), std::string::npos);
  EXPECT_NE(json.find("\"vulnerable_points\""), std::string::npos);
  EXPECT_NE(json.find("successful-fault"), std::string::npos);

  const auto merged = result.merged_by_address();
  ASSERT_FALSE(merged.empty());
  std::uint64_t merged_hits = 0;
  for (const auto& report : merged) merged_hits += report.hits;
  EXPECT_EQ(merged_hits, result.vulnerabilities.size());
  EXPECT_EQ(merged.size(), result.vulnerable_addresses().size());
}

TEST(Engine, TelemetryReflectsCheckpointChain) {
  const Guest& guest = guests::bootloader();
  const elf::Image image = guests::build_image(guest);
  const Engine engine(image, guest.good_input, guest.bad_input, EngineConfig{});
  EXPECT_GE(engine.snapshot_count(), 2u) << "trace long enough for checkpoints";
  EXPECT_EQ(engine.checkpoint_interval(),
            EngineConfig{}.policy.interval_for(engine.references().bad_trace.size()));

  // COW effectiveness: the chain's resident set must be far below what
  // snapshot_count full address-space copies would occupy.
  emu::Machine machine(image, guest.bad_input);
  const MachineSnapshot one_copy = capture(machine);
  std::size_t address_space_bytes = 0;
  for (const auto& region : one_copy.memory.regions) address_space_bytes += region.size;
  const std::size_t full_copies = engine.snapshot_count() * address_space_bytes;
  EXPECT_GT(engine.chain_unique_pages(), 0u);
  EXPECT_GT(engine.chain_resident_bytes(), 0u);
  EXPECT_LT(engine.chain_resident_bytes(), full_copies / 4)
      << "checkpoint chain is not sharing pages";
}

}  // namespace
}  // namespace r2r::sim
