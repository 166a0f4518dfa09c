// r2r::support — error reporting primitives.
//
// The library throws r2r::support::Error for all recoverable failures
// (malformed assembly, undecodable bytes, unmappable addresses, ...).
// check()/require() are the throwing assertion helpers used throughout;
// they take only string literals (see Literal), fail() takes any message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace r2r::support {

/// Category of a library failure. Used by tests to assert on the precise
/// failure class and by tools to decide whether an error is retryable.
enum class ErrorKind : std::uint8_t {
  kInvalidArgument,   ///< caller violated an API precondition
  kParse,             ///< malformed assembly / textual input
  kEncode,            ///< instruction not representable in machine code
  kDecode,            ///< byte sequence is not a valid instruction
  kMemory,            ///< guest memory access violation
  kExecution,         ///< guest runtime failure (bad syscall, halt, ...)
  kElf,               ///< malformed or unsupported ELF image
  kRecovery,          ///< structural recovery (disassembly/CFG) failure
  kRewrite,           ///< reassembly / patching failure
  kIr,                ///< compiler-IR verification failure
  kLift,              ///< binary-to-IR translation failure
  kLower,             ///< IR-to-binary translation failure
  kInternal,          ///< invariant violation inside the library
};

/// Human-readable name of an ErrorKind ("parse", "decode", ...).
std::string_view to_string(ErrorKind kind) noexcept;

/// The exception type thrown by every r2r component.
class Error : public std::runtime_error {
 public:
  Error(ErrorKind kind, const std::string& message)
      : std::runtime_error(std::string(to_string(kind)) + ": " + message),
        kind_(kind) {}

  [[nodiscard]] ErrorKind kind() const noexcept { return kind_; }

 private:
  ErrorKind kind_;
};

[[noreturn]] inline void fail(ErrorKind kind, const std::string& message) {
  throw Error(kind, message);
}

/// A compile-time string literal — the only message check()/require()
/// take. The guards run on every guest memory access, so a message that
/// needs formatting (an address, a name) goes behind the failure test
/// instead, `if (!ok) fail(kind, "unmapped read at " + hex_string(a));`,
/// and the passing path never builds a string. The constructor is
/// consteval, so passing a runtime-built string is a compile error.
class Literal {
 public:
  template <std::size_t N>
  consteval Literal(const char (&text)[N]) noexcept : text_(text, N - 1) {}  // NOLINT

  [[nodiscard]] constexpr std::string_view view() const noexcept { return text_; }

 private:
  std::string_view text_;
};

/// Throws Error{kind, message} if `condition` is false.
inline void check(bool condition, ErrorKind kind, Literal message) {
  if (!condition) [[unlikely]] fail(kind, std::string(message.view()));
}

/// Throws Error{kInternal} if `condition` is false; use for invariants.
inline void require(bool condition, Literal message) {
  check(condition, ErrorKind::kInternal, message);
}

}  // namespace r2r::support
