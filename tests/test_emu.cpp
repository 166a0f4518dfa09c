// Emulator: flag semantics against a host-computed oracle (property
// sweeps), memory permissions, crash messages, syscalls, fault-injection
// mechanics, and the allocation-free restore+run hot path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

#include "bir/assemble.h"
#include "bir/module.h"
#include "emu/machine.h"
#include "guests/guests.h"
#include "sim/snapshot.h"
#include "support/bits.h"
#include "support/error.h"
#include "support/rng.h"

// Every call to the global operator new in this binary is counted, so the
// hot-path tests below can assert how often restore and run allocate.
// (new[] and the nothrow forms forward here.)
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace r2r::emu {
namespace {

using isa::Cond;
using isa::Reg;
using isa::Width;

/// Assembles a tiny program and returns the image.
elf::Image build(const std::string& text) {
  bir::Module module = bir::module_from_assembly(".global _start\n_start:\n" + text);
  return bir::assemble(module);
}

/// Runs `body` then exits with al as the code; returns the run.
RunResult run_and_exit_al(const std::string& body, std::string input = {}) {
  const elf::Image image = build(body +
                                 "    mov rdi, rax\n"
                                 "    and rdi, 0xff\n"
                                 "    mov rax, 60\n"
                                 "    syscall\n");
  return run_image(image, std::move(input));
}

// ---- flag oracle sweeps --------------------------------------------------------

struct FlagCase {
  std::uint64_t a;
  std::uint64_t b;
};

class FlagOracle : public testing::TestWithParam<FlagCase> {
 protected:
  /// Executes `mnemonic rbx, rcx` in a scratch program and returns the
  /// resulting RFLAGS (captured with pushfq/pop).
  Flags run_op(isa::Mnemonic m, std::uint64_t a, std::uint64_t b) {
    bir::Module op_module = bir::module_from_assembly(
        ".global _start\n_start:\n"
        "    mov rbx, 0x" + to_hex(a) + "\n"
        "    mov rcx, 0x" + to_hex(b) + "\n"
        "    " + std::string(isa::mnemonic_name(m)) + " rbx, rcx\n"
        "    pushfq\n"
        "    pop rdx\n"
        "    mov rax, 60\n"
        "    mov rdi, 0\n"
        "    syscall\n");
    elf::Image op_image = bir::assemble(op_module);
    Machine op_machine(op_image, "");
    RunConfig config;
    const RunResult result = op_machine.run(config);
    EXPECT_EQ(result.reason, StopReason::kExited) << result.crash_detail;
    return Flags::from_rflags(op_machine.cpu().read(Reg::rdx, Width::b64));
  }

  static std::string to_hex(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(v));
    return buf;
  }
};

TEST_P(FlagOracle, AddFlagsMatchHostComputation) {
  const auto [a, b] = GetParam();
  const Flags flags = run_op(isa::Mnemonic::kAdd, a, b);
  const std::uint64_t r = a + b;
  EXPECT_EQ(flags.zf, r == 0);
  EXPECT_EQ(flags.sf, (r >> 63) != 0);
  EXPECT_EQ(flags.cf, r < a);
  const bool of = (((a ^ ~b) & (a ^ r)) >> 63) != 0;
  EXPECT_EQ(flags.of, of);
  EXPECT_EQ(flags.pf, support::parity_even_low8(r));
}

TEST_P(FlagOracle, SubFlagsMatchHostComputation) {
  const auto [a, b] = GetParam();
  const Flags flags = run_op(isa::Mnemonic::kSub, a, b);
  const std::uint64_t r = a - b;
  EXPECT_EQ(flags.zf, r == 0);
  EXPECT_EQ(flags.sf, (r >> 63) != 0);
  EXPECT_EQ(flags.cf, a < b);
  const bool of = (((a ^ b) & (a ^ r)) >> 63) != 0;
  EXPECT_EQ(flags.of, of);
}

TEST_P(FlagOracle, LogicClearsCarryAndOverflow) {
  const auto [a, b] = GetParam();
  for (const isa::Mnemonic m : {isa::Mnemonic::kAnd, isa::Mnemonic::kOr,
                                isa::Mnemonic::kXor}) {
    const Flags flags = run_op(m, a, b);
    EXPECT_FALSE(flags.cf);
    EXPECT_FALSE(flags.of);
    std::uint64_t r = 0;
    if (m == isa::Mnemonic::kAnd) r = a & b;
    if (m == isa::Mnemonic::kOr) r = a | b;
    if (m == isa::Mnemonic::kXor) r = a ^ b;
    EXPECT_EQ(flags.zf, r == 0);
    EXPECT_EQ(flags.sf, (r >> 63) != 0);
  }
}

std::vector<FlagCase> flag_cases() {
  std::vector<FlagCase> cases = {
      {0, 0},
      {1, 1},
      {0xFFFFFFFFFFFFFFFFULL, 1},
      {0x7FFFFFFFFFFFFFFFULL, 1},
      {0x8000000000000000ULL, 1},
      {0x8000000000000000ULL, 0x8000000000000000ULL},
      {5, 3},
      {3, 5},
      {0xFF, 0x100},
  };
  support::Rng rng(2026);
  for (int i = 0; i < 24; ++i) cases.push_back(FlagCase{rng.next(), rng.next()});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FlagOracle, testing::ValuesIn(flag_cases()));

// ---- instruction semantics ---------------------------------------------------------

TEST(MachineSemantics, WidthWriteRules) {
  // 32-bit writes zero-extend; 8-bit writes merge.
  const RunResult r32 = run_and_exit_al(
      "    mov rax, 0x1122334455667788\n"
      "    mov eax, 0x99\n"
      "    cmp rax, 0x99\n"
      "    sete al\n"
      "    movzx rax, al\n");
  EXPECT_EQ(r32.exit_code, 1);

  const RunResult r8 = run_and_exit_al(
      "    mov rbx, 0x1100\n"
      "    mov bl, 0x22\n"
      "    cmp rbx, 0x1122\n"
      "    sete al\n"
      "    movzx rax, al\n");
  EXPECT_EQ(r8.exit_code, 1);
}

TEST(MachineSemantics, PushPopPreserveValues) {
  const RunResult result = run_and_exit_al(
      "    mov rbx, 0x12345678\n"
      "    push rbx\n"
      "    pop rcx\n"
      "    cmp rcx, rbx\n"
      "    sete al\n"
      "    movzx rax, al\n");
  EXPECT_EQ(result.exit_code, 1);
}

TEST(MachineSemantics, PushfqPopfqRoundTripsFlags) {
  const RunResult result = run_and_exit_al(
      "    cmp rax, rax\n"   // ZF=1
      "    pushfq\n"
      "    cmp rsp, 0\n"     // clobber flags (rsp != 0 so ZF=0)
      "    popfq\n"
      "    sete al\n"        // ZF restored to 1
      "    movzx rax, al\n");
  EXPECT_EQ(result.exit_code, 1);
}

TEST(MachineSemantics, CallRetRoundTrip) {
  const RunResult result = run_and_exit_al(
      "    call sub\n"
      "    jmp done\n"
      "sub:\n"
      "    mov rax, 7\n"
      "    ret\n"
      "done:\n");
  EXPECT_EQ(result.exit_code, 7);
}

TEST(MachineSemantics, CmovTakesOnlyWhenConditionHolds) {
  const RunResult result = run_and_exit_al(
      "    mov rax, 1\n"
      "    mov rbx, 9\n"
      "    cmp rax, 1\n"
      "    cmove rax, rbx\n"   // taken: rax = 9
      "    cmp rbx, 1\n"
      "    cmove rax, rbx\n"   // not taken
      );
  EXPECT_EQ(result.exit_code, 9);
}

TEST(MachineSemantics, ImulAndShifts) {
  const RunResult result = run_and_exit_al(
      "    mov rax, 6\n"
      "    mov rbx, 7\n"
      "    imul rax, rbx\n"   // 42
      "    shl rax, 2\n"      // 168
      "    shr rax, 1\n"      // 84
      );
  EXPECT_EQ(result.exit_code, 84);
}

TEST(MachineSemantics, IncDecPreserveCarry) {
  const RunResult result = run_and_exit_al(
      "    mov rbx, 0\n"
      "    cmp rbx, 1\n"      // CF=1 (0 < 1)
      "    inc rbx\n"          // must keep CF
      "    setb al\n"
      "    movzx rax, al\n");
  EXPECT_EQ(result.exit_code, 1);
}

TEST(MachineSemantics, SyscallClobbersRcxAndR11) {
  const elf::Image image = build(
      "    mov rcx, 5\n"
      "    mov r11, 5\n"
      "    mov rax, 1\n"
      "    mov rdi, 1\n"
      "    mov rsi, offset buf\n"
      "    mov rdx, 0\n"
      "    syscall\n"
      "    xor rax, rax\n"
      "    cmp rcx, 5\n"
      "    sete al\n"          // al=1 would mean rcx survived (it must not)
      "    movzx rdi, al\n"
      "    mov rax, 60\n"
      "    syscall\n"
      ".section .data\n"
      "buf: .zero 1\n");
  const RunResult result = run_image(image, "");
  ASSERT_EQ(result.reason, StopReason::kExited) << result.crash_detail;
  EXPECT_EQ(result.exit_code, 0);
}

// ---- memory model -------------------------------------------------------------------

TEST(Memory, PermissionEnforcement) {
  Memory memory;
  memory.map("ro", 0x1000, 0x100, elf::kRead);
  memory.map("rw", 0x2000, 0x100, elf::kRead | elf::kWrite);
  EXPECT_NO_THROW(memory.read(0x1000, 8));
  EXPECT_THROW(memory.write(0x1000, 1, 1), support::Error);
  EXPECT_NO_THROW(memory.write(0x2000, 1, 1));
  EXPECT_THROW(memory.read(0x3000, 1), support::Error);
  std::array<std::uint8_t, 4> window{};
  EXPECT_THROW(memory.fetch(0x2000, window), support::Error);
}

TEST(Memory, RejectsOverlappingMaps) {
  Memory memory;
  memory.map("a", 0x1000, 0x100, elf::kRead);
  EXPECT_THROW(memory.map("b", 0x1080, 0x100, elf::kRead), support::Error);
  EXPECT_NO_THROW(memory.map("c", 0x1100, 0x100, elf::kRead));
}

TEST(Memory, CrossBoundaryAccessFails) {
  Memory memory;
  memory.map("a", 0x1000, 0x10, elf::kRead | elf::kWrite);
  EXPECT_NO_THROW(memory.read(0x1008, 8));
  EXPECT_THROW(memory.read(0x1009, 8), support::Error);
}

TEST(Memory, LittleEndianValues) {
  Memory memory;
  memory.map("a", 0x1000, 0x10, elf::kRead | elf::kWrite);
  memory.write(0x1000, 0x1122334455667788ULL, 8);
  EXPECT_EQ(memory.read(0x1000, 1), 0x88u);
  EXPECT_EQ(memory.read(0x1007, 1), 0x11u);
  EXPECT_EQ(memory.read(0x1000, 4), 0x55667788u);
}

// ---- crash classification ------------------------------------------------------------

TEST(MachineCrashes, TrapsReportCrash) {
  for (const std::string body : {"    hlt\n", "    ud2\n", "    int3\n"}) {
    const elf::Image image = build(body);
    const RunResult result = run_image(image, "");
    EXPECT_EQ(result.reason, StopReason::kCrashed) << body;
    EXPECT_FALSE(result.crash_detail.empty());
  }
}

TEST(MachineCrashes, UnmappedAccessReportsCrash) {
  const elf::Image image = build("    mov rax, [0x1]\n");
  const RunResult result = run_image(image, "");
  EXPECT_EQ(result.reason, StopReason::kCrashed);
}

// Messages are formatted only once a check has failed; the crash detail a
// run reports must read exactly as before, byte for byte.
TEST(MachineCrashes, CrashDetailTextIsPinned) {
  const auto crash_detail = [](const std::string& body) {
    const RunResult result = run_image(build(body + ".section .data\nbuf: .zero 8\n"), "");
    EXPECT_EQ(result.reason, StopReason::kCrashed) << body;
    return result.crash_detail;
  };
  EXPECT_EQ(crash_detail("    mov rax, [0x1]\n"), "memory: unmapped read at 0x1");
  EXPECT_EQ(crash_detail("    mov rax, 0x10\n    mov [rax], rbx\n"),
            "memory: unmapped write at 0x10");
  EXPECT_EQ(crash_detail("    mov rax, 0x20\n    push rax\n    ret\n"),
            "memory: unmapped fetch at 0x20");
  EXPECT_EQ(crash_detail("    mov rax, offset _start\n    mov [rax], rbx\n"),
            "memory: permission violation writing 0x400000");
  EXPECT_EQ(crash_detail("    mov rax, offset buf\n    push rax\n    ret\n"),
            "memory: fetch from non-executable memory at 0x600000");

  // No loaded segment is unreadable, so the read violation is pinned on a
  // bare address space, through the same Error::what() a crash reports.
  Memory memory;
  memory.map("write-only", 0x1000, 0x100, elf::kWrite);
  const auto what = [](const auto& access) -> std::string {
    try {
      access();
    } catch (const support::Error& error) {
      return error.what();
    }
    return "no error";
  };
  EXPECT_EQ(what([&] { memory.read(0x1010, 4); }),
            "memory: permission violation reading 0x1010");
  EXPECT_EQ(what([&] { memory.read(0x1010, 4, Access::kExecute); }),
            "memory: permission violation reading 0x1010");
  EXPECT_EQ(what([&] { memory.write(0x2000, 1, 1); }), "memory: unmapped write at 0x2000");
}

TEST(MachineCrashes, FuelExhaustionOnInfiniteLoop) {
  const elf::Image image = build("spin:\n    jmp spin\n");
  RunConfig config;
  config.fuel = 1000;
  const RunResult result = run_image(image, "", config);
  EXPECT_EQ(result.reason, StopReason::kFuelExhausted);
  EXPECT_EQ(result.steps, 1000u);
}

// ---- fault injection mechanics ---------------------------------------------------------

TEST(FaultInjection, SkipFaultSkipsExactlyOneInstruction) {
  // Program: rax=1; rax=2; exit(rax). Skipping the second mov exits 1.
  const std::string body =
      "    mov rax, 1\n"
      "    mov rax, 2\n"
      "    mov rdi, rax\n"
      "    mov rax, 60\n"
      "    syscall\n";
  const elf::Image image = build(body);
  EXPECT_EQ(run_image(image, "").exit_code, 2);

  RunConfig config;
  config.fault = FaultSpec{FaultSpec::Kind::kSkip, 1, 0};
  const RunResult faulted = run_image(image, "", config);
  EXPECT_EQ(faulted.reason, StopReason::kExited);
  EXPECT_EQ(faulted.exit_code, 1);
}

TEST(FaultInjection, BitFlipIsTransient) {
  // Flip a bit in a loop-body instruction: only that dynamic instance is
  // affected, because the fault hits the fetch, not memory.
  const std::string body =
      "    mov rbx, 0\n"
      "    mov rcx, 3\n"
      "loop:\n"
      "    inc rbx\n"
      "    dec rcx\n"
      "    cmp rcx, 0\n"
      "    jne loop\n"
      "    mov rdi, rbx\n"
      "    mov rax, 60\n"
      "    syscall\n";
  const elf::Image image = build(body);
  EXPECT_EQ(run_image(image, "").exit_code, 3);

  // Skip the first `inc rbx` (trace index 2): one increment is lost but
  // later iterations still execute the original instruction.
  RunConfig config;
  config.fault = FaultSpec{FaultSpec::Kind::kSkip, 2, 0};
  const RunResult faulted = run_image(image, "", config);
  EXPECT_EQ(faulted.exit_code, 2);
}

TEST(FaultInjection, FaultedRunsAreDeterministic) {
  const elf::Image image = build(
      "    mov rax, 60\n"
      "    mov rdi, 9\n"
      "    syscall\n");
  RunConfig config;
  config.fault = FaultSpec{FaultSpec::Kind::kBitFlip, 1, 3};
  const RunResult a = run_image(image, "", config);
  const RunResult b = run_image(image, "", config);
  EXPECT_TRUE(a.observably_equal(b));
}

// ---- allocation-free hot path ----------------------------------------------------------

std::uint64_t allocations_during(const std::function<void()>& body) {
  const std::uint64_t before = g_allocations.load();
  body();
  return g_allocations.load() - before;
}

// Fault simulation restores a snapshot and re-runs the guest millions of
// times, so neither may allocate per emulated instruction: on a warm machine
// a restore allocates nothing, and a restore+run allocates the same number
// of times (the result's output copy) whatever the number of steps run.
TEST(HotPath, RestoreAndRunDoNotAllocatePerInstruction) {
  for (const guests::Guest* guest : {&guests::pincheck(), &guests::bootloader()}) {
    SCOPED_TRACE(guest->name);
    const elf::Image image = guests::build_image(*guest);
    Machine machine(image, guest->bad_input);
    const sim::MachineSnapshot entry = sim::capture(machine);
    const RunConfig full;
    const RunResult golden = machine.run(full);  // warms the block cache
    ASSERT_EQ(golden.reason, StopReason::kExited);
    ASSERT_GT(golden.steps, 100u);
    RunConfig half;
    half.fuel = golden.steps / 2;

    EXPECT_EQ(allocations_during([&] { sim::restore(entry, machine); }), 0u);
    EXPECT_EQ(allocations_during([&] { sim::restore(entry, machine); }), 0u);
    const std::uint64_t whole_run = allocations_during([&] {
      sim::restore(entry, machine);
      EXPECT_TRUE(machine.run(full).observably_equal(golden));
    });
    const std::uint64_t half_run = allocations_during([&] {
      sim::restore(entry, machine);
      EXPECT_EQ(machine.run(half).reason, StopReason::kFuelExhausted);
    });
    EXPECT_EQ(whole_run, half_run) << "allocations grow with the steps run";
    EXPECT_EQ(allocations_during([&] { sim::restore(entry, machine); }), 0u);
  }
}

}  // namespace
}  // namespace r2r::emu
