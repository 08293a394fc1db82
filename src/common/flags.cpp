#include "common/flags.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace mlsim::flags {
namespace {

// The largest durations the nanosecond steady clock can hold: a deadline
// or wait converted past them would overflow std::chrono arithmetic.
constexpr auto kMaxMs = static_cast<std::uint64_t>(
    std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::nanoseconds::max()).count());
constexpr auto kMaxUs = static_cast<std::uint64_t>(
    std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::nanoseconds::max()).count());

/// "--gpus" of "--gpus=G"; an operand's spec is its name.
std::string_view name_of(std::string_view spec) {
  return spec.substr(0, spec.find_first_of("=[ ", 1));
}

[[noreturn]] void reject(std::string_view name, std::string_view text,
                         const std::string& why) {
  throw UsageError(std::string(name) + ": '" + std::string(text) + "' " + why);
}

std::uint64_t parse_integer(std::string_view name, std::string_view text,
                            Kind kind, std::uint64_t field_max) {
  if (text.empty()) throw UsageError(std::string(name) + " needs a value");
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::invalid_argument || stop != end) {
    reject(name, text, "is not a non-negative integer");
  }
  std::uint64_t max = field_max;
  if (kind == Kind::kMs || kind == Kind::kPositiveMs) {
    max = std::min(max, kMaxMs);
  }
  if (kind == Kind::kUs) max = std::min(max, kMaxUs);
  if (ec == std::errc::result_out_of_range || v > max) {
    reject(name, text, "exceeds " + std::to_string(max));
  }
  if (v == 0 && (kind == Kind::kPositive || kind == Kind::kPositiveMs)) {
    reject(name, text, "must be >= 1");
  }
  return v;
}

double parse_rate(std::string_view name, const std::string& text) {
  if (text.empty()) throw UsageError(std::string(name) + " needs a value");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(v) || v < 0.0 || v > 1.0) {
    reject(name, text, "is not a rate in [0, 1]");
  }
  return v;
}

void store(const Flag& f, std::string_view name, std::string_view text) {
  std::visit(
      [&](auto* field) {
        using T = std::remove_pointer_t<decltype(field)>;
        if constexpr (std::is_same_v<T, bool>) {
          throw UsageError(std::string(name) + " takes no value");
        } else if constexpr (std::is_same_v<T, std::string>) {
          if (f.kind == Kind::kPath && text.empty()) {
            throw UsageError(std::string(name) + " needs a path");
          }
          *field = text;
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          field->emplace_back(text);
        } else if constexpr (std::is_same_v<T, double>) {
          *field = f.kind == Kind::kRate
                       ? parse_rate(name, std::string(text))
                       : static_cast<double>(parse_integer(
                             name, text, f.kind,
                             std::numeric_limits<std::uint64_t>::max()));
        } else {
          *field = static_cast<T>(parse_integer(
              name, text, f.kind,
              static_cast<std::uint64_t>(std::numeric_limits<T>::max())));
        }
      },
      f.field);
}

}  // namespace

CommandLine::CommandLine(std::string program, std::vector<std::string> args)
    : program_(std::move(program)), args_(std::move(args)) {}

void CommandLine::parse(std::initializer_list<Group> table) {
  std::vector<const Flag*> flags, operands;
  std::string operand_usage, flag_usage;
  for (const Group& group : table) {
    for (const Flag& f : group) {
      if (f.spec[0] == '-') {
        flags.push_back(&f);
        flag_usage += " [" + std::string(f.spec) + "]";
        if (std::holds_alternative<std::vector<std::string>*>(f.field)) {
          flag_usage += "...";
        }
      } else {
        operands.push_back(&f);
        operand_usage += " " + std::string(f.spec);
      }
    }
  }
  usage_ = "usage: " + program_ + operand_usage + flag_usage;

  std::size_t next_operand = 0;
  for (std::size_t i = 0; i < args_.size(); ++i) {
    const std::string_view arg = args_[i];
    if (arg.empty() || arg[0] != '-') {
      if (next_operand == operands.size()) {
        throw UsageError("unexpected operand '" + args_[i] + "'");
      }
      const Flag& op = *operands[next_operand++];
      store(op, op.spec, arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const auto it = std::find_if(
        flags.begin(), flags.end(),
        [&](const Flag* f) { return name_of(f->spec) == name; });
    if (it == flags.end()) throw UsageError("unknown flag " + args_[i]);
    const Flag& f = **it;
    if (f.seen != nullptr) *f.seen = true;
    if (eq != std::string_view::npos) {
      store(f, name, arg.substr(eq + 1));
    } else if (bool* const* on = std::get_if<bool*>(&f.field)) {
      **on = true;
    } else if (std::holds_alternative<std::vector<std::string>*>(f.field)) {
      if (i + 1 == args_.size()) {
        throw UsageError(std::string(name) + " needs a value");
      }
      store(f, name, args_[++i]);
    } else if (f.spec.find("[=") == std::string_view::npos) {
      throw UsageError(std::string(name) + " needs =value");
    }
  }
  if (next_operand < operands.size() &&
      operands[next_operand]->spec[0] == '<') {
    throw UsageError("missing operand " +
                     std::string(operands[next_operand]->spec));
  }
}

}  // namespace mlsim::flags
