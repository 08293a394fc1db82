// Declarative command-line flags: every flag of mlsim_cli and the bench
// binaries is one table row naming its spelling, value kind and destination
// field. One parser reads a command line against a table, one range rule
// checks every number, and the usage synopsis is rendered from the same
// rows.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace mlsim::flags {

/// Bad flag or operand. mlsim_cli and the benches exit 2 (bad usage) on it,
/// apart from I/O failures (3), corrupt data (4) and bugs (5).
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// How a row's text becomes a value. Integers are plain decimal (no sign,
/// no suffix) and, besides what their kind allows, must fit the field they
/// set: an `int` field takes at most 2147483647, a `std::uint16_t` one (a
/// TCP port) at most 65535.
enum class Kind : std::uint8_t {
  kCount,       // integer >= 0
  kPositive,    // integer >= 1
  kMs,          // milliseconds >= 0 the nanosecond steady clock can hold
  kPositiveMs,  // kMs >= 1
  kUs,          // microseconds >= 0 the nanosecond steady clock can hold
  kRate,        // finite real in [0, 1]
  kText,        // any string, empty included
  kPath,        // non-empty string
};

static_assert(std::is_same_v<std::size_t, std::uint64_t>,
              "size_t fields bind as std::uint64_t");

/// Where a row stores what it reads. A `bool` row is a switch (`--verify`)
/// and a string-list row repeats, taking its value as the next word
/// (`--axis key=v1,v2`) or after '='; every other flag takes `--name=value`.
using Field = std::variant<bool*, int*, std::uint16_t*, std::uint64_t*,
                           double*, std::string*, std::vector<std::string>*>;

/// One table row. `spec` is the row as the synopsis shows it:
///   "--gpus=G"            a value flag; the name ends at '=', '[' or ' ';
///   "--metrics[=path]"    a flag that may also appear bare, which leaves
///                         the field as it is and only sets `seen`;
///   "<benchmark>"         a required operand; "[instructions]" an optional
///                         one. Operands are filled in the order declared.
struct Flag {
  std::string_view spec;
  Field field;
  Kind kind = Kind::kCount;
  /// Set to true whenever the flag appears.
  bool* seen = nullptr;
};

/// Rows declared together, such as a group several commands share; a
/// table is a list of groups, and its rows point into the caller's fields.
using Group = std::vector<Flag>;

/// One command line and the flag table it is read against.
class CommandLine {
 public:
  /// `program` names the command in the synopsis ("mlsim_cli simulate");
  /// `args` are the words that follow it.
  CommandLine(std::string program, std::vector<std::string> args);

  /// Store each flag's value in its field (a repeated value flag keeps
  /// its last value) and each operand in its row. Throws UsageError for an
  /// unknown flag, a malformed or out-of-range value, a missing operand or
  /// an extra one.
  void parse(std::initializer_list<Group> table);

  /// "usage: <program> <operands> [flags]..." of the table last parsed;
  /// empty before the first parse().
  const std::string& usage() const { return usage_; }

 private:
  std::string program_;
  std::vector<std::string> args_;
  std::string usage_;
};

/// Parses a whole command line, argv[0] naming the program, against
/// `table`. On a UsageError it prints the error and the synopsis to stderr
/// and exits 2: for a main() whose rows need no further checks.
void parse_or_exit(int argc, char** argv, std::initializer_list<Group> table);

}  // namespace mlsim::flags
