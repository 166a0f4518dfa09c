// r2rbench — runs one benchmark workload through r2r's public entry points
// and prints its metrics as one JSON line (the last line of stdout).
//
//   r2rbench --workload pairs|ladder|rewrite|daemon --seed N --seconds S
//            --trace 0|1 [--spawn-ns T] [--setup-only] [--r2rd PATH]
//
// Every workload is a closed loop of identical ops after one untimed
// warm-up op; see NOTES.md for what each workload exercises and why the
// figures are medians over ops, reported in units of a reference workload
// timed beside them (reference_ms()). `--spawn-ns` is the CLOCK_MONOTONIC
// time at which the caller spawned this process, so setup_s covers process
// start to the end of the warm-up op, scaled to a host whose reference takes
// kNominalRefMs; `--setup-only` stops right there and prints only setup_s
// (run.py repeats set-up that way and reports the median).
// `--trace 1` alternates traced and untraced ops and prints the per-layer
// table instead of the end-to-end metrics. `--daemon-pool N` and
// `--daemon-cache N` shrink the daemon's spec pool and r2rd's result cache
// (the self-test uses them to exhaust the pool and force cache evictions).
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bir/assemble.h"
#include "bir/recover.h"
#include "elf/image.h"
#include "emu/machine.h"
#include "fault/campaign.h"
#include "guests/guests.h"
#include "guests/synth.h"
#include "harden/hybrid.h"
#include "obs/obs.h"
#include "patch/patcher.h"
#include "patch/pipeline.h"
#include "support/rng.h"
#include "svc/client.h"
#include "svc/job.h"
#include "svc/wire.h"

namespace {

using namespace r2r;

// ---- clocks and statistics ---------------------------------------------------

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// A fixed reference workload built from the same ingredients as r2r's hot
/// paths (string-keyed maps, hashing, many small allocations) but none of its
/// code, so no change to r2r can speed it up. Returns its wall time in ms.
/// The host this benchmark runs on slows memory-heavy code by 20-40% for
/// tens of seconds at a time; timing this next to the ops measures that
/// slowdown so it can be divided out (see NOTES.md).
double reference_ms() {
  static volatile std::uint64_t sink = 0;
  const std::uint64_t begin = mono_ns();
  std::map<std::string, std::uint64_t> tree;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::vector<std::unique_ptr<std::vector<std::uint64_t>>> blocks;
  constexpr std::uint64_t kKeys = 12000;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    tree["key" + std::to_string(i * 7919 % 12007)] = i;
    table[i * 2654435761ULL] = i;
    blocks.push_back(std::make_unique<std::vector<std::uint64_t>>(16 + i % 48, i));
    if (i % 3 == 0) blocks[i / 2].reset();
  }
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 2 * kKeys; ++i) {
    const auto it = tree.find("key" + std::to_string(i % kKeys));
    acc += (it == tree.end() ? 0 : it->second) + table.count(i * 2654435761ULL);
  }
  sink = sink + acc;
  return ms(mono_ns() - begin);
}

void pin_this_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  if (::sched_setaffinity(0, sizeof set, &set) != 0) throw std::runtime_error("cannot pin to CPUs");
}

/// Pins this thread, and every thread and child it starts later, to the
/// last `count` CPUs it may run on, and returns them. The host's cores
/// differ in speed from minute to minute, so an op and the reference it is
/// divided by must run on the same cores.
std::vector<int> pin_to_last_cpus(unsigned count) {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) throw std::runtime_error("sched_getaffinity");
  std::vector<int> cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && cpus.size() < count; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  pin_this_thread(cpus);
  return cpus;
}

/// One reference sample on each of `cpus` at once (on the CPU this thread
/// is on when `cpus` is empty), averaged: per CPU, the median of five
/// reference_ms() runs. A single ~10 ms run carries ±20% of momentary host
/// noise; ops last far longer. Each sample runs in a forked child pinned to
/// its CPU, so the reference's few MB of allocations never count in this
/// process's peak RSS (they made up a third of rewrite's); all are reaped.
double reference_sample_ms(std::vector<int> cpus) {
  if (cpus.empty()) cpus.push_back(::sched_getcpu());
  std::vector<std::pair<pid_t, int>> children;  // pid, read end of its pipe
  for (const int cpu : cpus) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("cannot create a pipe for the reference");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("cannot fork for the reference");
    if (pid == 0) {
      ::close(fds[0]);
      pin_this_thread({cpu});
      std::vector<double> runs;
      for (int i = 0; i < 5; ++i) runs.push_back(reference_ms());
      const double median = quantile(runs, 0.5);
      ::_exit(::write(fds[1], &median, sizeof median) == sizeof median ? 0 : 1);
    }
    ::close(fds[1]);
    children.emplace_back(pid, fds[0]);
  }
  double total = 0;
  bool ok = true;
  for (const auto& [pid, fd] : children) {
    double median = 0;
    ok = ::read(fd, &median, sizeof median) == sizeof median && ok;
    ::close(fd);
    int status = 0;
    ::waitpid(pid, &status, 0);
    ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    total += median;
  }
  if (!ok) throw std::runtime_error("a reference child failed");
  return total / static_cast<double>(children.size());
}

/// The reference time setup_s is scaled to: close to the median
/// reference_ms() of the 4-core Xeon VM the benchmark was tuned on, so
/// setup_s reads as seconds on that host at its usual speed.
constexpr double kNominalRefMs = 10.0;

/// Peak RSS in MiB of a process ("self" or a pid), read from VmHWM. Not
/// getrusage's ru_maxrss: Linux carries that across exec, so a process
/// would report at least the RSS of whatever spawned it (run.py's Python,
/// ~15 MB, above ladder's and rewrite's own peaks).
double peak_rss_mb(const std::string& process) {
  std::FILE* status = std::fopen(("/proc/" + process + "/status").c_str(), "r");
  if (status == nullptr) throw std::runtime_error("cannot read /proc/" + process + "/status");
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  if (kib <= 0) throw std::runtime_error("no VmHWM in /proc/" + process + "/status");
  return kib / 1024.0;
}

// ---- per-op layer clock --------------------------------------------------------

/// Time the benchmark itself spends inside each layer's public functions,
/// plus instructions run through emu::run_image. Reset before every op.
struct LayerClock {
  std::map<std::string, std::uint64_t> ns;
  std::uint64_t emu_steps = 0;

  void clear() {
    ns.clear();
    emu_steps = 0;
  }
  template <class F>
  auto time(const char* layer, F&& body) {
    const std::uint64_t begin = mono_ns();
    if constexpr (std::is_void_v<decltype(body())>) {
      body();
      ns[layer] += mono_ns() - begin;
    } else {
      auto value = body();
      ns[layer] += mono_ns() - begin;
      return value;
    }
  }
};

LayerClock g_clock;

/// Runs `image` on `input` and checks the observable behaviour against the
/// expected output and exit code (the guest's oracle).
bool behaves(const elf::Image& image, const std::string& input,
             const std::string& output, int exit_code) {
  const emu::RunResult run =
      g_clock.time("emu.run_image", [&] { return emu::run_image(image, input); });
  g_clock.emu_steps += run.steps;
  return run.reason == emu::StopReason::kExited && run.exit_code == exit_code &&
         run.output == output;
}

bool behaves_like(const elf::Image& image, const guests::Guest& guest) {
  return behaves(image, guest.good_input, guest.good_output, guest.good_exit) &&
         behaves(image, guest.bad_input, guest.bad_output, guest.bad_exit);
}

std::uint64_t counter(const char* name) {
  return obs::Metrics::instance().counter(name).value();
}

/// Fault sets the sim engine classified so far (singles, pairs and the top
/// level of every order-k sweep) — a work-derived, deterministic total.
std::uint64_t classified_fault_sets() {
  return counter("sim.faults_planned") + counter("sim.pairs_planned") +
         counter("sim.tuples_planned");
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  support::Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return rng.next();
}

/// pincheck with a seed-drawn wrong PIN that shares no digit position with
/// the right one. pincheck compares without early exit, so every such PIN
/// takes the same path: the fault-set count is fixed and the fix-point
/// patches the same sites (a near-miss PIN such as 7390 would not).
guests::Guest pincheck_with_wrong_pin(std::uint64_t seed) {
  guests::Guest guest = guests::pincheck();
  support::Rng rng(derive_seed(seed, 1));
  guest.bad_input = guest.good_input;
  for (char& digit : guest.bad_input) {
    digit = static_cast<char>('0' + (digit - '0' + 1 + rng.next_below(9)) % 10);
  }
  return guest;
}

std::vector<guests::Guest> synth_guests(std::uint64_t seed, std::uint64_t stream,
                                        std::size_t count) {
  std::vector<guests::Guest> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Bounded so guest names stay readable; distinct within a workload.
    out.push_back(guests::synth::generate(derive_seed(seed, stream + i) % 1'000'000'007ULL));
  }
  return out;
}

// ---- tracing --------------------------------------------------------------------

/// Sums over the traced ops of a --trace 1 run: library spans, counter
/// deltas and the benchmark's own layer clock.
struct Traced {
  std::size_t ops = 0;
  std::map<std::string, double> span_ns;
  std::map<std::string, double> clock_ns;
  std::map<std::string, double> counters;
  double emu_steps = 0;
  double restores = 0;
  double restore_ns = 0;
  double chain_bytes = 0;

  [[nodiscard]] double span_ms(const char* name) const { return per_op(span_ns, name) * 1e-6; }
  [[nodiscard]] double clock_ms(const char* name) const { return per_op(clock_ns, name) * 1e-6; }
  [[nodiscard]] double count(const char* name) const { return per_op(counters, name); }
  [[nodiscard]] double per_op(const std::map<std::string, double>& sums,
                              const char* name) const {
    return ratio(sum(sums, name), static_cast<double>(ops));
  }
  [[nodiscard]] static double sum(const std::map<std::string, double>& sums, const char* name) {
    const auto it = sums.find(name);
    return it == sums.end() ? 0.0 : it->second;
  }
};

/// The library spans the per-layer metrics read.
constexpr const char* kSpans[] = {
    "sim.references", "sim.checkpoint_chain", "sim.run_order1", "sim.run_pairs",
    "sim.run_tuples", "fixpoint.campaign",    "fixpoint.patch", "bir.recover",
    "bir.assemble",   "harden.hybrid",        "lift.lift",      "lower.lower",
};

void arm_trace() {
  obs::Tracer::instance().clear();
  obs::set_timing_enabled(true);
  obs::Tracer::instance().set_enabled(true);
}

void collect_trace(Traced& traced, const obs::MetricsSnapshot& before) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_enabled(false);
  obs::set_timing_enabled(false);
  const obs::MetricsSnapshot after = obs::Metrics::instance().snapshot();
  ++traced.ops;
  for (const char* name : kSpans) {
    traced.span_ns[name] += static_cast<double>(tracer.total_duration_ns(name));
  }
  for (const auto& [name, ns] : g_clock.ns) traced.clock_ns[name] += static_cast<double>(ns);
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    traced.counters[name] +=
        static_cast<double>(value - (it == before.counters.end() ? 0 : it->second));
  }
  traced.emu_steps += static_cast<double>(g_clock.emu_steps);
  const auto hist = [](const obs::MetricsSnapshot& snap) {
    const auto it = snap.histograms.find("sim.restore_ns");
    return it == snap.histograms.end() ? obs::MetricsSnapshot::HistogramData{} : it->second;
  };
  traced.restores += static_cast<double>(hist(after).count - hist(before).count);
  traced.restore_ns += static_cast<double>(hist(after).sum - hist(before).sum);
  const auto gauge = after.gauges.find("sim.chain_resident_bytes");
  if (gauge != after.gauges.end()) {
    traced.chain_bytes = std::max(traced.chain_bytes, static_cast<double>(gauge->second));
  }
  tracer.clear();
}

// ---- the closed loop ----------------------------------------------------------------

/// What a workload's timed loop measured.
struct Loop {
  std::vector<double> op_ms;      ///< untraced op wall times
  std::vector<double> ref_ms;     ///< reference samples taken between ops
  std::vector<double> traced_ms;  ///< traced op wall times (--trace 1)
  Traced traced;
  double ops_per_s = 0;  ///< requests (or ops) per second, from the median op
  double op_p90_ms = 0;  ///< request tail; 0 where every op is identical work
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The closed loop of identical ops shared by pairs, ladder and rewrite:
/// `op` runs back to back on this thread until `seconds` pass, with a
/// reference sample on `cpus` before each untraced op and after the last.
/// --trace 1
/// alternates untraced and traced ops so both see the same host conditions;
/// the untraced ones give tracing's own overhead.
template <class Op>
Loop closed_loop(double seconds, bool trace, const std::vector<int>& cpus, Op&& op) {
  Loop loop;
  const std::uint64_t begin = mono_ns();
  for (std::size_t i = 0;; ++i) {
    const bool traced_op = trace && i % 2 == 1;
    obs::MetricsSnapshot before;
    if (traced_op) {
      before = obs::Metrics::instance().snapshot();
      arm_trace();
    } else {
      loop.ref_ms.push_back(reference_sample_ms(cpus));
    }
    g_clock.clear();
    const std::uint64_t op_begin = mono_ns();
    const bool ok = op();
    const double took = ms(mono_ns() - op_begin);
    if (traced_op) {
      collect_trace(loop.traced, before);
      loop.traced_ms.push_back(took);
    } else {
      loop.op_ms.push_back(took);
    }
    ++loop.attempted;
    if (!ok) ++loop.failed;
    const bool done = static_cast<double>(mono_ns() - begin) * 1e-9 >= seconds;
    if (done && (!trace || !loop.traced_ms.empty())) break;
  }
  loop.ref_ms.push_back(reference_sample_ms(cpus));
  loop.ops_per_s = ratio(1e3, quantile(loop.op_ms, 0.5));
  return loop;
}

// ---- report --------------------------------------------------------------------

/// Figures a workload hands back after its loop. Every field the workload
/// does not exercise stays 0 (its layer does no work there).
struct Figures {
  double peak_rss_mb = 0;        ///< of the process that does the work
  double fault_sets_per_op = 0;  ///< fault sets classified per op (deterministic)
  double overhead_pct = 0;       ///< Σhardened/Σoriginal − 1, in percent
  double residual_fault_sets = 0;
  double unpatchable_sites = 0;
  double ir_ops_after = 0;
  double hit_p50_ms = 0;
  double miss_p50_ms = 0;
  double cache_hit_ratio = 0;
  double refused = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// How many CPUs the process is pinned to: as many as an op keeps busy,
  /// or 0 to leave it unpinned.
  virtual unsigned cpu_count() const = 0;
  /// Builds the inputs (timed as guests.build_ms).
  virtual void setup(std::uint64_t seed) = 0;
  /// The untimed warm-up op; records the references later ops must match.
  virtual bool warmup() = 0;
  /// The timed closed loop of ops; each output check that fails counts.
  virtual Loop loop(double seconds, bool trace) = 0;
  /// Whole-run checks after the loop (false = the run is not correct).
  virtual bool finish(Figures& figures) = 0;
  std::uint64_t build_ns = 0;
  std::vector<int> cpus;  ///< the CPUs pinned to, set before setup()
};

// ---- pairs: order-2 campaign ------------------------------------------------------

class PairsWorkload final : public Workload {
 public:
  unsigned cpu_count() const override { return 2; }  // the sweep threads
  void setup(std::uint64_t seed) override {
    const std::uint64_t begin = mono_ns();
    guest_ = pincheck_with_wrong_pin(seed);
    image_ = guests::build_image(guest_);
    build_ns = mono_ns() - begin;
    config_.models.skip = true;
    config_.models.bit_flip = true;
    config_.models.order = 2;
    config_.models.pair_window = 8;
  }
  bool warmup() override {
    config_.threads = 1;
    const fault::CampaignResult result = campaign();
    reference_ = result.to_json();
    fault_sets_ = static_cast<double>(result.total_faults + result.total_pairs +
                                      result.total_tuples);
    residual_ = static_cast<double>(result.vulnerabilities.size() +
                                    result.pair_vulnerabilities.size() +
                                    result.tuple_vulnerabilities.size());
    config_.threads = 2;
    return behaves_like(image_, guest_) && result.total_pairs > 0;
  }
  Loop loop(double seconds, bool trace) override {
    return closed_loop(seconds, trace, cpus, [this] { return op(); });
  }
  bool finish(Figures& figures) override {
    figures.peak_rss_mb = peak_rss_mb("self");
    figures.fault_sets_per_op = fault_sets_;
    figures.residual_fault_sets = residual_;
    return true;
  }

 private:
  bool op() {
    const bool golden = behaves_like(image_, guest_);
    const fault::CampaignResult result = campaign();
    // 1 thread ≡ N threads: every 2-thread op reproduces the 1-thread
    // warm-up's counts and vulnerability lists exactly.
    return g_clock.time("check", [&] { return golden && result.to_json() == reference_; });
  }
  fault::CampaignResult campaign() {
    return g_clock.time("fault.campaign", [&] {
      return fault::run_campaign(image_, guest_.good_input, guest_.bad_input, config_);
    });
  }
  guests::Guest guest_;
  elf::Image image_;
  fault::CampaignConfig config_;
  std::string reference_;
  double fault_sets_ = 0;
  double residual_ = 0;
};

// ---- ladder: order-3 Faulter+Patcher fix-point -----------------------------------

class LadderWorkload final : public Workload {
 public:
  unsigned cpu_count() const override { return 1; }
  void setup(std::uint64_t seed) override {
    const std::uint64_t begin = mono_ns();
    // The synth guests are fixed: their fix-point costs differ by more than
    // 20x from one generator seed to the next, so drawing them from the
    // workload seed would make the op's size a function of the seed.
    guests_ = {pincheck_with_wrong_pin(seed), guests::toymov()};
    for (std::uint64_t synth_seed = 1; synth_seed <= 4; ++synth_seed) {
      guests_.push_back(guests::synth::generate(synth_seed));
    }
    for (const auto& guest : guests_) images_.push_back(guests::build_image(guest));
    build_ns = mono_ns() - begin;
    config_.campaign.models.skip = true;
    config_.campaign.models.bit_flip = false;
    config_.campaign.models.order = 3;
    config_.campaign.models.pair_window = 8;
    config_.campaign.threads = 1;
    config_.max_iterations = 32;
  }
  bool warmup() override {
    const std::uint64_t before = classified_fault_sets();
    const bool ok = run(reference_);
    fault_sets_ = classified_fault_sets() - before;
    return ok;
  }
  Loop loop(double seconds, bool trace) override {
    return closed_loop(seconds, trace, cpus, [this] {
      Pass pass;
      const bool ok = run(pass);
      // Deterministic: the same hardened bytes, overhead and residue every op.
      return ok && pass.elves == reference_.elves &&
             pass.residual == reference_.residual && pass.overhead == reference_.overhead;
    });
  }
  bool finish(Figures& figures) override {
    figures.peak_rss_mb = peak_rss_mb("self");
    figures.fault_sets_per_op = static_cast<double>(fault_sets_);
    figures.overhead_pct = reference_.overhead;
    figures.residual_fault_sets = static_cast<double>(reference_.residual);
    figures.unpatchable_sites = static_cast<double>(reference_.unpatchable);
    return true;
  }

 private:
  struct Pass {
    std::vector<std::vector<std::uint8_t>> elves;
    std::uint64_t residual = 0;
    std::uint64_t unpatchable = 0;
    double overhead = 0;
  };
  bool run(Pass& pass) {
    bool ok = true;
    std::uint64_t original = 0;
    std::uint64_t hardened = 0;
    for (std::size_t i = 0; i < guests_.size(); ++i) {
      const guests::Guest& guest = guests_[i];
      const patch::PipelineResult result =
          patch::faulter_patcher(images_[i], guest.good_input, guest.bad_input, config_);
      ok = behaves_like(result.hardened, guest) && ok;
      g_clock.time("check", [&] {
        const fault::CampaignResult& last = result.final_campaign;
        // Residue counted from the vulnerability lists (plus the counted
        // intermediate tuple levels), never from the fix-point flags.
        pass.residual += last.vulnerabilities.size() + last.pair_vulnerabilities.size() +
                         last.tuple_vulnerabilities.size() + last.successful_lower_tuples();
        if (!result.iterations.empty()) {
          pass.unpatchable += result.iterations.back().unpatchable_points;
        }
        original += result.original_code_size;
        hardened += result.hardened_code_size;
        pass.elves.push_back(elf::write_elf(result.hardened));
      });
    }
    pass.overhead = 100.0 * (static_cast<double>(hardened) / static_cast<double>(original) - 1.0);
    return ok;
  }

  std::vector<guests::Guest> guests_;
  std::vector<elf::Image> images_;
  patch::PipelineConfig config_;
  Pass reference_;
  std::uint64_t fault_sets_ = 0;
};

// ---- rewrite: both rewriting methodologies, no fault simulation -------------------

class RewriteWorkload final : public Workload {
 public:
  unsigned cpu_count() const override { return 1; }
  void setup(std::uint64_t seed) override {
    const std::uint64_t begin = mono_ns();
    // Fixed synth guests, as in the ladder: drawn from the workload seed,
    // they changed the op's cost and the peak RSS with the seed.
    guests_ = {pincheck_with_wrong_pin(seed), guests::toymov(), guests::bootloader()};
    for (std::uint64_t synth_seed = 1; synth_seed <= kSynthGuests; ++synth_seed) {
      guests_.push_back(guests::synth::generate(synth_seed));
    }
    for (const auto& guest : guests_) images_.push_back(guests::build_image(guest));
    build_ns = mono_ns() - begin;
  }
  bool warmup() override { return run(reference_); }
  Loop loop(double seconds, bool trace) override {
    return closed_loop(seconds, trace, cpus, [this] {
      Pass pass;
      const bool ok = run(pass);
      return ok && pass.hybrid_size == reference_.hybrid_size &&
             pass.reinforced_size == reference_.reinforced_size &&
             pass.ir_ops_after == reference_.ir_ops_after;
    });
  }
  bool finish(Figures& figures) override {
    figures.peak_rss_mb = peak_rss_mb("self");
    figures.overhead_pct =
        100.0 * (static_cast<double>(reference_.hybrid_size) /
                     static_cast<double>(reference_.original_size) -
                 1.0);
    figures.ir_ops_after = static_cast<double>(reference_.ir_ops_after);
    return true;
  }

 private:
  static constexpr std::uint64_t kSynthGuests = 100;
  struct Pass {
    std::uint64_t original_size = 0;
    std::uint64_t hybrid_size = 0;
    std::uint64_t reinforced_size = 0;
    std::uint64_t ir_ops_after = 0;
  };
  bool run(Pass& pass) {
    bool ok = true;
    for (std::size_t i = 0; i < guests_.size(); ++i) {
      const guests::Guest& guest = guests_[i];
      const elf::Image image = g_clock.time("elf.roundtrip", [&] {
        return elf::read_elf(elf::write_elf(images_[i]));
      });
      const harden::HybridResult hybrid =
          g_clock.time("harden.hybrid", [&] { return harden::hybrid_harden(image); });
      bir::Module module = g_clock.time("bir.recover", [&] { return bir::recover(image); });
      std::vector<std::uint64_t> sites;
      for (const bir::CodeItem& item : module.text) {
        if (item.is_instruction()) sites.push_back(item.address);
      }
      g_clock.time("patch.reinforce", [&] {
        (void)patch::reinforce_sites(module, std::move(sites), 8);
      });
      const elf::Image reinforced =
          g_clock.time("bir.assemble", [&] { return bir::assemble(module); });
      ok = behaves_like(hybrid.hardened, guest) && ok;
      ok = behaves_like(reinforced, guest) && ok;
      pass.original_size += hybrid.original_code_size;
      pass.hybrid_size += hybrid.hardened_code_size;
      pass.reinforced_size += reinforced.code_size();
      pass.ir_ops_after += hybrid.ir_after.total;
    }
    return ok;
  }

  std::vector<guests::Guest> guests_;
  std::vector<elf::Image> images_;
  Pass reference_;
};

// ---- daemon: r2rd under a closed loop of two connections --------------------------

/// The spawned r2rd, always stopped and reaped. It runs in its own process
/// group, so an abnormal exit can kill its workers too, and dies with this
/// process even when that is killed outright (a timed-out run).
class Daemon {
 public:
  Daemon(const std::string& binary, std::string socket, std::size_t cache_capacity)
      : socket_(std::move(socket)) {
    ::unlink(socket_.c_str());
    std::vector<std::string> args = {binary, "--socket", socket_, "--workers", "2",
                                     "--cache-capacity", std::to_string(cache_capacity)};
    std::vector<char*> argv;
    for (auto& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    // Forked before any thread of this process starts.
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("cannot fork for " + binary);
    if (pid_ == 0) {
      ::setpgid(0, 0);
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(-pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    ::unlink(socket_.c_str());
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] svc::Client connect() const { return svc::Client::connect(socket_, 10'000); }

  /// Graceful drain; returns the daemon's peak RSS in MiB (VmHWM, read
  /// while it still runs).
  double shutdown() {
    const double peak_mb = peak_rss_mb(std::to_string(pid_));
    {
      svc::Client client = connect();
      svc::Message request;
      request.set("op", "shutdown");
      (void)client.request(request);
    }
    int status = 0;
    if (::waitpid(pid_, &status, 0) != pid_) throw std::runtime_error("waitpid r2rd");
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("r2rd exited abnormally");
    }
    return peak_mb;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

class DaemonWorkload final : public Workload {
 public:
  /// Unpinned: r2rd and its workers would inherit the mask.
  unsigned cpu_count() const override { return 0; }
  DaemonWorkload(std::string r2rd, std::size_t pool_size, std::size_t cache_capacity)
      : r2rd_(std::move(r2rd)), pool_size_(pool_size), cache_capacity_(cache_capacity) {
    if (cache_capacity_ <= kCacheSlack) {
      throw std::runtime_error("--daemon-cache must exceed " + std::to_string(kCacheSlack));
    }
  }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    // Started first, so it is listening by the time the pool is built (the
    // client's connect retries sleep in 20 ms steps). The socket sits next
    // to the daemon binary, relative to the working directory: a Unix
    // socket path must fit in 108 bytes wherever the checkout lives.
    const std::size_t slash = r2rd_.rfind('/');
    const std::string dir = slash == std::string::npos ? "." : r2rd_.substr(0, slash);
    daemon_ = std::make_unique<Daemon>(
        r2rd_, dir + "/r2rbench-" + std::to_string(::getpid()) + ".sock", cache_capacity_);
    const std::uint64_t begin = mono_ns();
    // The warm-up guest is fixed: a miss costs 15-170 ms depending on the
    // guest, and set-up must not vary with the seed.
    warm_guest_ = guests::synth::generate(1);
    pool_ = synth_guests(seed, 400, pool_size_);
    build_ns = mono_ns() - begin;
  }
  bool warmup() override {
    svc::Client client = daemon_->connect();
    const svc::JobSpec spec = make_spec(warm_guest_);
    const auto first = submit(client, spec);
    const auto again = submit(client, spec);
    return first && again && !first->cached && again->cached && again->report == first->report;
  }

  /// Rounds on kConnections connections until `seconds` pass or the pool
  /// runs out of fresh specs. Every kRefInterval the connections park
  /// between rounds and this thread times the reference with no request in
  /// flight, so the reference measures the host, not r2rd's own load. r2rd
  /// runs in processes the tracer does not see, so `trace` changes nothing:
  /// the daemon's layers are timed from the client.
  Loop loop(double seconds, bool /*trace*/) override {
    deadline_ = mono_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    Loop loop;
    loop.ref_ms.push_back(reference_sample_ms(cpus));
    active_ = kConnections;
    std::vector<std::thread> connections;
    for (unsigned c = 0; c < kConnections; ++c) {
      connections.emplace_back([this, c] { connection(c); });
    }
    for (bool done = false; !done;) {
      std::this_thread::sleep_for(kRefInterval);
      std::unique_lock<std::mutex> lock(mutex_);
      park_ = true;
      gate_.wait(lock, [this] { return parked_ == active_; });
      lock.unlock();
      loop.ref_ms.push_back(reference_sample_ms(cpus));
      lock.lock();
      done = active_ == 0;
      park_ = false;
      parked_ = 0;
      ++generation_;
      lock.unlock();
      gate_.notify_all();
    }
    for (auto& thread : connections) thread.join();

    loop.op_ms = round_ms_;
    std::vector<double> request_ms;
    for (const Request& request : requests_) request_ms.push_back(request.ms);
    // Rates come from the median op: each connection completes one round
    // of kRoundRequests requests per median round time.
    loop.ops_per_s = ratio(kConnections * kRoundRequests * 1e3, quantile(loop.op_ms, 0.5));
    loop.op_p90_ms = quantile(request_ms, 0.9);
    loop.attempted = attempted_;
    loop.failed = failed_;
    return loop;
  }

  bool finish(Figures& figures) override {
    bool ok = error_.empty();
    if (!ok) std::fprintf(stderr, "r2rbench: daemon: %s\n", error_.c_str());
    // A seeded sample of the answered specs must equal an in-process run.
    support::Rng rng(derive_seed(seed_, 500));
    for (int i = 0; i < 3 && !answered_.empty(); ++i) {
      const std::size_t index = answered_[rng.next_below(answered_.size())];
      const svc::JobResult local = svc::run_job(make_spec(pool_[index]));
      if (local.report != first_[index].report || local.exit_code != first_[index].exit_code) {
        std::fprintf(stderr, "r2rbench: daemon report for %s differs from run_job\n",
                     pool_[index].name.c_str());
        ok = false;
      }
    }
    figures.peak_rss_mb = daemon_->shutdown();
    std::vector<double> hits;
    std::vector<double> misses;
    for (const Request& request : requests_) (request.cached ? hits : misses).push_back(request.ms);
    figures.hit_p50_ms = quantile(hits, 0.5);
    figures.miss_p50_ms = quantile(misses, 0.5);
    figures.cache_hit_ratio = ratio(static_cast<double>(hits.size()),
                                    static_cast<double>(requests_.size()));
    figures.refused = static_cast<double>(refused_);
    std::uint64_t fault_sets = 0;
    for (const std::size_t index : answered_) fault_sets += fault_sets_of(first_[index].report);
    figures.fault_sets_per_op =
        ratio(static_cast<double>(fault_sets), static_cast<double>(answered_.size()));
    return ok;
  }

 private:
  static constexpr unsigned kConnections = 2;
  static constexpr unsigned kRoundRequests = 4;  ///< one fresh spec, three repeats
  static constexpr auto kRefInterval = std::chrono::milliseconds(200);
  /// Repeats are drawn from the last (cache capacity - kCacheSlack) answered
  /// specs. r2rd's cache evicts first-in first-out, and fewer than
  /// kCacheSlack fresh specs can be inserted between a spec's answer and a
  /// repeat of it (one per other connection, with room to spare), so every
  /// repeat is still cached. The bounded cache also keeps r2rd's peak RSS
  /// independent of how many fresh specs a run gets through.
  static constexpr std::size_t kCacheSlack = 8;

  struct Answer {
    bool cached = false;
    int exit_code = 0;
    std::string report;
  };
  struct Request {
    double ms = 0;
    bool cached = false;
  };

  static svc::JobSpec make_spec(const guests::Guest& guest) {
    svc::JobSpec spec;
    spec.kind = svc::JobKind::kCampaign;
    spec.guest = guest;
    spec.campaign.models.skip = true;
    spec.campaign.models.bit_flip = true;
    spec.campaign.models.order = 1;
    spec.format = "json";
    return spec;
  }
  /// "total_faults": N from a campaign JSON report (0 when absent).
  static std::uint64_t fault_sets_of(const std::string& report) {
    const std::string key = "\"total_faults\": ";
    const std::size_t at = report.find(key);
    return at == std::string::npos ? 0 : std::strtoull(report.c_str() + at + key.size(), nullptr, 10);
  }

  std::optional<Answer> submit(svc::Client& client, const svc::JobSpec& spec) {
    svc::Message request = spec.to_message();
    request.set("op", "submit");
    const svc::Message response = client.request(request);
    if (response.get_or("ok", "0") != "1") return std::nullopt;
    const svc::JobResult result = svc::JobResult::from_message(response);
    if (result.infra) return std::nullopt;
    return Answer{response.get_or("cached", "0") == "1", result.exit_code, result.report};
  }

  /// One connection's closed loop of rounds. Between rounds it parks when
  /// the reference is due; it ends at the deadline or when the pool has no
  /// fresh spec left (a run ends early rather than re-send a spec as fresh).
  void connection(unsigned id) {
    support::Rng rng(derive_seed(seed_, 600 + id));
    try {
      svc::Client client = daemon_->connect();
      for (;;) {
        std::size_t fresh = 0;
        {
          std::unique_lock<std::mutex> lock(mutex_);
          if (park_) {
            ++parked_;
            gate_.notify_all();
            const std::uint64_t generation = generation_;
            gate_.wait(lock, [&] { return generation_ != generation; });
          }
          if (mono_ns() >= deadline_ || next_fresh_ >= pool_.size()) break;
          fresh = next_fresh_++;
        }
        round(client, rng, fresh);
      }
    } catch (const std::exception& error) {
      std::lock_guard<std::mutex> lock(mutex_);
      error_ = error.what();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    --active_;
    gate_.notify_all();
  }

  /// One round: the fresh spec, answered uncached, then three repeats of
  /// answered specs, each answered cached and byte-identical to its first
  /// answer — so exactly three quarters of the requests are cache hits.
  void round(svc::Client& client, support::Rng& rng, std::size_t fresh) {
    const std::uint64_t begin = mono_ns();
    bool complete = true;
    for (unsigned slot = 0; slot < kRoundRequests; ++slot) {
      std::size_t index = fresh;
      if (slot > 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        const std::size_t window = std::min(answered_.size(), cache_capacity_ - kCacheSlack);
        index = answered_[answered_.size() - window + rng.next_below(window)];
      }
      const svc::JobSpec spec = make_spec(pool_[index]);
      const std::uint64_t sent = mono_ns();
      const std::optional<Answer> answer = submit(client, spec);
      const double took = ms(mono_ns() - sent);
      std::lock_guard<std::mutex> lock(mutex_);
      ++attempted_;
      if (!answer) {  // refused, or the worker failed
        ++refused_;
        ++failed_;
        complete = false;
        if (slot == 0) return;  // nothing of this round may be repeated yet
        continue;
      }
      requests_.push_back({took, answer->cached});
      bool ok = answer->cached == (slot > 0);
      if (slot == 0) {
        first_[index] = *answer;
        answered_.push_back(index);
      } else {
        const Answer& first = first_[index];
        ok = ok && answer->report == first.report && answer->exit_code == first.exit_code;
      }
      if (!ok) {
        ++failed_;
        complete = false;
      }
    }
    if (complete) {
      std::lock_guard<std::mutex> lock(mutex_);
      round_ms_.push_back(ms(mono_ns() - begin));
    }
  }

  std::string r2rd_;
  std::size_t pool_size_;
  std::size_t cache_capacity_;
  std::uint64_t seed_ = 0;
  guests::Guest warm_guest_;
  std::vector<guests::Guest> pool_;
  std::unique_ptr<Daemon> daemon_;
  std::uint64_t deadline_ = 0;
  // Shared by the connections and the reference thread, under mutex_.
  std::mutex mutex_;
  std::condition_variable gate_;
  bool park_ = false;
  unsigned parked_ = 0;
  unsigned active_ = 0;
  std::uint64_t generation_ = 0;
  std::size_t next_fresh_ = 0;
  std::vector<std::size_t> answered_;
  std::map<std::size_t, Answer> first_;
  std::vector<Request> requests_;
  std::vector<double> round_ms_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t refused_ = 0;
  std::string error_;
};

// ---- metrics ------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json lists, in its order.
constexpr MetricDef kEndToEnd[] = {
    {"op_p50_ref", "ref"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},
    {"ops_per_s", "1/s"},
    {"ref_p50_ms", "ms"},
    {"fault_sets_per_op", "count"},
    {"fault_sets_per_s", "1/s"},
    {"overhead_pct", "%"},
    {"residual_fault_sets", "count"},
    {"guests.build_ms", "ms"},
    {"emu.insns_per_s", "1/s"},
    {"emu.block_cache_hit_ratio", "ratio"},
    {"sim.engine_build_ms", "ms"},
    {"sim.sweep_ms", "ms"},
    {"sim.restores", "count"},
    {"sim.restore_ns_mean", "ns"},
    {"sim.simulated_sets", "count"},
    {"sim.reuse_ratio.l2", "ratio"},
    {"sim.reuse_ratio.l3", "ratio"},
    {"sim.converged_ratio", "ratio"},
    {"sim.chain_resident_mb", "MB"},
    {"sim.fault_sets_per_s", "1/s"},
    {"fault.campaign_self_ms", "ms"},
    {"patch.iterations", "count"},
    {"patch.patch_ms", "ms"},
    {"patch.reinforce_ms", "ms"},
    {"patch.unpatchable_sites", "count"},
    {"bir.recover_ms", "ms"},
    {"bir.assemble_ms", "ms"},
    {"elf.roundtrip_ms", "ms"},
    {"lift.lift_ms", "ms"},
    {"lower.lower_ms", "ms"},
    {"passes.self_ms", "ms"},
    {"harden.ir_ops_after", "count"},
    {"svc.hit_p50_ms", "ms"},
    {"svc.miss_p50_ms", "ms"},
    {"svc.cache_hit_ratio", "ratio"},
    {"svc.refused", "count"},
    {"bench.check_ms", "ms"},
    {"obs.span_coverage_pct", "%"},
    {"obs.tracing_overhead_pct", "%"},
};

std::string format_value(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [def, value] = metrics[i];
    line += std::string(i == 0 ? "" : ", ") + "\"" + def.name + "\": {\"value\": " +
            format_value(value) + ", \"unit\": \"" + def.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Per-layer values of a traced run, keyed by kPerLayer name.
std::map<std::string, double> per_layer(const std::string& workload, const Loop& loop,
                                        const Figures& f, std::uint64_t build_ns) {
  const Traced& t = loop.traced;
  const double op_p50_ms = quantile(loop.op_ms, 0.5);
  std::map<std::string, double> v;
  v["op_p50_ms"] = op_p50_ms;
  v["ops_per_s"] = loop.ops_per_s;
  v["ref_p50_ms"] = quantile(loop.ref_ms, 0.5);
  v["op_p90_ms"] = loop.op_p90_ms;
  const double engine_ms = t.span_ms("sim.references") + t.span_ms("sim.checkpoint_chain");
  const double sweep_ms = t.span_ms("sim.run_order1") + t.span_ms("sim.run_pairs") +
                          t.span_ms("sim.run_tuples");
  const bool rewrite = workload == "rewrite";
  v["fault_sets_per_op"] = f.fault_sets_per_op;
  // Rates come from the median op (daemon: fault sets answered per request).
  v["fault_sets_per_s"] = f.fault_sets_per_op * loop.ops_per_s;
  v["overhead_pct"] = f.overhead_pct;
  v["residual_fault_sets"] = f.residual_fault_sets;
  v["guests.build_ms"] = ms(build_ns);
  v["emu.insns_per_s"] = ratio(t.emu_steps * 1e9, t.sum(t.clock_ns, "emu.run_image"));
  v["emu.block_cache_hit_ratio"] =
      ratio(t.count("emu.block_cache.hits"),
            t.count("emu.block_cache.hits") + t.count("emu.block_cache.misses"));
  v["sim.engine_build_ms"] = engine_ms;
  v["sim.sweep_ms"] = sweep_ms;
  v["sim.restores"] = ratio(t.restores, static_cast<double>(t.ops));
  v["sim.restore_ns_mean"] = ratio(t.restore_ns, t.restores);
  v["sim.simulated_sets"] = t.count("sim.faults_planned") + t.count("sim.pairs_simulated") +
                            t.count("sim.tuples_simulated");
  v["sim.reuse_ratio.l2"] =
      ratio(t.count("sim.pairs_reused_first") + t.count("sim.pairs_reused_second"),
            t.count("sim.pairs_planned"));
  v["sim.reuse_ratio.l3"] =
      ratio(t.count("sim.tuples_reused_suffix") + t.count("sim.tuples_reused_prefix"),
            t.count("sim.tuples_planned"));
  v["sim.converged_ratio"] =
      ratio(t.count("sim.pairs_converged") + t.count("sim.tuples_converged"),
            t.count("sim.pairs_simulated") + t.count("sim.tuples_simulated"));
  v["sim.chain_resident_mb"] = t.chain_bytes / (1024.0 * 1024.0);
  v["sim.fault_sets_per_s"] =
      ratio((t.count("sim.faults_planned") + t.count("sim.pairs_planned") +
             t.count("sim.tuples_planned")) * 1e3,
            sweep_ms);
  v["fault.campaign_self_ms"] =
      t.clock_ms("fault.campaign") > 0 ? t.clock_ms("fault.campaign") - engine_ms - sweep_ms : 0;
  v["patch.iterations"] = t.count("fixpoint.iterations");
  v["patch.patch_ms"] = t.span_ms("fixpoint.patch");
  v["patch.reinforce_ms"] = t.clock_ms("patch.reinforce");
  v["patch.unpatchable_sites"] = f.unpatchable_sites;
  // rewrite times its own bir calls (lowering also assembles, inside
  // lower.lower); elsewhere the library's bir.* spans carry them.
  v["bir.recover_ms"] = rewrite ? t.clock_ms("bir.recover") : t.span_ms("bir.recover");
  v["bir.assemble_ms"] = rewrite ? t.clock_ms("bir.assemble") : t.span_ms("bir.assemble");
  v["elf.roundtrip_ms"] = t.clock_ms("elf.roundtrip");
  v["lift.lift_ms"] = t.span_ms("lift.lift");
  v["lower.lower_ms"] = t.span_ms("lower.lower");
  v["passes.self_ms"] = t.span_ms("harden.hybrid") > 0
                            ? t.span_ms("harden.hybrid") - t.span_ms("lift.lift") -
                                  t.span_ms("lower.lower")
                            : 0;
  v["harden.ir_ops_after"] = f.ir_ops_after;
  v["svc.hit_p50_ms"] = f.hit_p50_ms;
  v["svc.miss_p50_ms"] = f.miss_p50_ms;
  v["svc.cache_hit_ratio"] = f.cache_hit_ratio;
  v["svc.refused"] = f.refused;
  v["bench.check_ms"] = t.clock_ms("check") + t.clock_ms("emu.run_image");
  v["obs.tracing_overhead_pct"] =
      loop.traced_ms.empty() ? 0.0 : 100.0 * (quantile(loop.traced_ms, 0.5) / op_p50_ms - 1.0);
  return v;
}

/// Disjoint parts of one traced op, for the coverage table: each row is a
/// layer the op spends time in; what they leave is the named remainder.
struct Coverage {
  std::vector<std::pair<std::string, double>> rows;
  std::string remainder;
};

Coverage coverage(const std::string& workload, const Traced& t,
                  const std::map<std::string, double>& v) {
  Coverage c;
  auto& rows = c.rows;
  const double check = v.at("bench.check_ms");
  if (workload == "pairs") {
    c.remainder = "fault::run_campaign aggregation outside sim spans";
    rows = {{"sim engine build", v.at("sim.engine_build_ms")},
            {"sim sweep", v.at("sim.sweep_ms")},
            {"benchmark checks (emu + compare)", check}};
  } else if (workload == "ladder") {
    c.remainder = "faulter_patcher bookkeeping (reports, vulnerability filtering)";
    const double sim = v.at("sim.engine_build_ms") + v.at("sim.sweep_ms");
    rows = {{"sim engine build", v.at("sim.engine_build_ms")},
            {"sim sweep", v.at("sim.sweep_ms")},
            {"fault campaign outside sim", t.span_ms("fixpoint.campaign") - sim},
            {"patch (apply + reinforce)", v.at("patch.patch_ms")},
            {"bir recover", v.at("bir.recover_ms")},
            {"bir assemble", v.at("bir.assemble_ms")},
            {"benchmark checks (emu + compare)", check}};
  } else if (workload == "rewrite") {
    c.remainder = "per-guest loop and site listing";
    rows = {{"elf write+read", v.at("elf.roundtrip_ms")},
            {"lift", v.at("lift.lift_ms")},
            {"passes (cleanup + countermeasure)", v.at("passes.self_ms")},
            {"lower (incl. its assemble)", v.at("lower.lower_ms")},
            {"bir recover", v.at("bir.recover_ms")},
            {"patch reinforce", v.at("patch.reinforce_ms")},
            {"bir assemble", v.at("bir.assemble_ms")},
            {"benchmark checks (emu)", check}};
  }
  return c;
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "r2rbench: %s\nusage: r2rbench --workload pairs|ladder|rewrite|daemon "
               "--seed N --seconds S --trace 0|1 [--spawn-ns T] [--setup-only] "
               "[--r2rd PATH] [--daemon-pool N] [--daemon-cache N]\n",
               message);
  std::exit(2);
}

int run(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::uint64_t spawn_ns = mono_ns();
  std::string r2rd = "r2rd";
  std::size_t daemon_pool = 4096;
  std::size_t daemon_cache = 256;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = value == "1";
    } else if (arg == "--spawn-ns") {
      spawn_ns = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--r2rd") {
      r2rd = value;
    } else if (arg == "--daemon-pool") {
      daemon_pool = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--daemon-cache") {
      daemon_cache = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }

  std::unique_ptr<Workload> workload;
  if (workload_name == "pairs") {
    workload = std::make_unique<PairsWorkload>();
  } else if (workload_name == "ladder") {
    workload = std::make_unique<LadderWorkload>();
  } else if (workload_name == "rewrite") {
    workload = std::make_unique<RewriteWorkload>();
  } else if (workload_name == "daemon") {
    workload = std::make_unique<DaemonWorkload>(r2rd, daemon_pool, daemon_cache);
  } else {
    usage("unknown --workload");
  }

  // Pinned before anything starts, so threads and children inherit the mask.
  if (workload->cpu_count() > 0) workload->cpus = pin_to_last_cpus(workload->cpu_count());

  // Set-up is timed in raw seconds, then scaled by the host's speed: the
  // reference is sampled before set-up (its time taken out again) and after
  // the warm-up, and the mean of the two stands for the whole set-up.
  const std::uint64_t ref_begin = mono_ns();
  const double ref_before = reference_sample_ms(workload->cpus);
  const std::uint64_t ref_ns = mono_ns() - ref_begin;
  workload->setup(seed);
  g_clock.clear();
  const bool warm_ok = workload->warmup();
  if (!warm_ok) std::fprintf(stderr, "r2rbench: %s: warm-up op failed its check\n", workload_name.c_str());
  const double raw_setup_s = static_cast<double>(mono_ns() - spawn_ns - ref_ns) * 1e-9;
  const double ref_after = reference_sample_ms(workload->cpus);
  const double setup_s = raw_setup_s * kNominalRefMs / ((ref_before + ref_after) / 2);
  std::fprintf(stderr, "r2rbench: %s: set-up %.4f s raw, reference %.3f / %.3f ms\n",
               workload_name.c_str(), raw_setup_s, ref_before, ref_after);
  if (setup_only) {
    std::printf("{\"setup_s\": %s}\n", format_value(setup_s).c_str());
    return warm_ok ? 0 : 1;
  }

  const Loop loop = workload->loop(seconds, trace);
  std::string times;
  for (const double op : loop.op_ms) {
    if (times.size() > 300) {
      times += " ...";
      break;
    }
    times += " " + format_value(std::round(op * 10) / 10);
  }
  std::fprintf(stderr, "r2rbench: %s: %zu untraced op(s), ms:%s\n", workload_name.c_str(),
               loop.op_ms.size(), times.c_str());

  Figures figures;
  const bool finish_ok = workload->finish(figures);
  const bool correct = warm_ok && finish_ok && loop.failed == 0 && loop.attempted > 0 &&
                       !loop.op_ms.empty();

  if (!trace) {
    // Medians of op and reference times over the whole run: a ratio per op
    // would carry each short reference sample's own noise.
    const double op_p50_ref = quantile(loop.op_ms, 0.5) / quantile(loop.ref_ms, 0.5);
    const double values[] = {op_p50_ref, figures.peak_rss_mb, setup_s};
    std::vector<std::pair<MetricDef, double>> metrics;
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) metrics.push_back({kEndToEnd[i], values[i]});
    print_result(correct, loop.attempted, loop.failed, metrics);
    return 0;
  }

  // ---- traced run: per-layer table ------------------------------------------------
  std::map<std::string, double> values = per_layer(workload_name, loop, figures, workload->build_ns);
  auto [rows, remainder] = coverage(workload_name, loop.traced, values);
  // The rows are means over the traced ops, so they are set against the
  // mean traced op; the remainder is what no span or timer covers.
  double traced_mean = 0;
  for (const double op : loop.traced_ms) traced_mean += op / static_cast<double>(loop.traced_ms.size());
  double covered = 0;
  for (const auto& [name, row_ms] : rows) covered += row_ms;
  values["obs.span_coverage_pct"] = rows.empty() ? 100.0 : 100.0 * covered / traced_mean;

  std::printf("%s: %zu traced op(s), mean %.3f ms; %zu untraced, median %.3f ms\n",
              workload_name.c_str(), loop.traced_ms.size(), traced_mean, loop.op_ms.size(),
              values.at("op_p50_ms"));
  if (!rows.empty()) {
    std::printf("  %-40s %12s %8s\n", "layer", "ms/op", "share");
    rows.push_back({"remainder: " + remainder, traced_mean - covered});
    for (const auto& [name, row_ms] : rows) {
      std::printf("  %-40s %12.3f %7.1f%%\n", name.c_str(), row_ms, 100.0 * row_ms / traced_mean);
    }
  }
  std::vector<std::pair<MetricDef, double>> metrics;
  for (const MetricDef& def : kPerLayer) {
    metrics.push_back({def, values.count(def.name) ? values.at(def.name) : 0.0});
    std::printf("  %-28s %16s %s\n", def.name, format_value(metrics.back().second).c_str(), def.unit);
  }
  print_result(correct, loop.attempted, loop.failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "r2rbench: %s\n", error.what());
    return 1;
  }
}
