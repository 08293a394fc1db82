// Lightweight runtime checking. We prefer throwing over aborting so that
// library consumers (and tests) can observe contract violations.
#pragma once

#include <source_location>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mlsim {

/// Thrown when a library precondition or internal invariant is violated.
class CheckError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown for file-system level failures (cannot open, short write, rename
/// failed). Distinct from CheckError, which signals corrupt *content* or a
/// violated invariant — drivers map the two to different exit codes.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a graceful drain (SIGTERM/SIGINT) stops a run before it
/// completes. Not a failure: in-flight work was allowed to finish, progress
/// was journaled for `--resume`, and drivers map this to its own exit code
/// so supervisors can tell "drained on request" from every error class.
class DrainError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a bounded queue is at capacity: the producer gets explicit
/// backpressure instead of unbounded memory growth or a blocked engine.
class QueueFullError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Verify `cond`; throw CheckError annotated with the call site otherwise.
inline void check(bool cond, std::string_view msg,
                  std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] {
    std::ostringstream os;
    os << loc.file_name() << ':' << loc.line() << " check failed: " << msg;
    throw CheckError(os.str());
  }
}

/// Verify `lo <= v < hi` for index-style arguments.
inline void check_index(std::size_t v, std::size_t hi, std::string_view what,
                        std::source_location loc = std::source_location::current()) {
  if (v >= hi) [[unlikely]] {
    std::ostringstream os;
    os << loc.file_name() << ':' << loc.line() << " index check failed: " << what
       << " = " << v << " must be < " << hi;
    throw CheckError(os.str());
  }
}

}  // namespace mlsim
