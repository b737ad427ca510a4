// Error handling for the bsched library.
//
// Public API boundaries throw `bsched::error` on precondition violations;
// internal invariants use `BSCHED_ASSERT`, which is active in all build
// types (the library is a research artifact: silent corruption is worse
// than an abort).
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace bsched {

/// Exception thrown on violated preconditions at public API boundaries.
class error : public std::runtime_error {
 public:
  explicit error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws `bsched::error` with `message` unless `condition` holds.
///
/// Messages start with an origin prefix — "<module>: ", "<function>: " —
/// naming the throwing component, so an error surfaced through the API
/// (or a wire protocol) identifies its source without a stack trace.
/// scripts/lint_bsched.py (rule `require-prefix`) enforces this across
/// src/.
///
/// A literal message binds to the `const char*` overload, so a check that
/// holds costs only the compare. A message built by concatenation is
/// built on every call, holding or not: on hot paths, test first and
/// build it only when throwing (`if (!ok) throw error("mod: " + ...)`).
inline void require(bool condition, const std::string& message) {
  if (!condition) throw error(message);
}

inline void require(bool condition, const char* message) {
  if (!condition) throw error(message);
}

namespace detail {
[[noreturn]] void assert_fail(const char* expr, std::source_location loc);
}  // namespace detail

}  // namespace bsched

/// Internal invariant check; aborts with location info when violated.
/// Active in every build type.
#define BSCHED_ASSERT(expr)                                                  \
  ((expr) ? static_cast<void>(0)                                            \
          : ::bsched::detail::assert_fail(#expr,                            \
                                          std::source_location::current()))
