// The one command-line parser of the colex tools, colexctl and the benches.
// A command declares each flag once, in a table: name, value placeholder,
// one help line and a typed target. `parse` reads argv against the table
// and the usage text is generated from the same table, so the two cannot
// drift apart. A malformed invocation prints the error and the usage on
// stderr and exits 2 before any work starts (DESIGN.md §15).
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/contracts.hpp"
#include "util/json.hpp"

namespace colex::util::cli {

/// Exit status of a malformed invocation.
inline constexpr int kUsageExit = 2;

/// One declared flag. Build typed ones with the functions below; a flag
/// whose value a callback checks and stores (ID lists, name tables such as
/// co::from_string) is just {name, placeholder, help, set}.
struct Flag {
  std::string name;         ///< "--seeds"
  std::string placeholder;  ///< value name in the usage; empty = switch
  std::string help;         ///< one line
  std::function<bool(std::string_view)> set;  ///< false rejects the value
  std::string wants{};         ///< the accepted values, for error messages
  std::string default_text{};  ///< shown in the usage when non-empty
  bool required = false;

  /// The same flag, marked as one the command cannot run without.
  Flag require() && {
    required = true;
    default_text.clear();
    return std::move(*this);
  }
};

/// A switch: present sets `target` to true.
Flag flag(std::string name, bool& target, std::string help);

/// Decimal digits (no sign) in [min, max]; `max` defaults to the target's
/// width, so a value is never narrowed.
template <std::integral T>
Flag u64(std::string name, std::string placeholder, T& target,
         std::string help, std::uint64_t min = 0,
         std::uint64_t max =
             static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
  COLEX_EXPECTS(min <= max && std::cmp_less_equal(
                                  max, std::numeric_limits<T>::max()));
  // A default outside the accepted range is a "not given" sentinel.
  const bool shown =
      std::cmp_greater_equal(target, min) && std::cmp_less_equal(target, max);
  return {std::move(name), std::move(placeholder), std::move(help),
          [&target, min, max](std::string_view s) {
            std::uint64_t v = 0;
            if (!parse_u64(s, v) || v < min || v > max) return false;
            target = static_cast<T>(v);
            return true;
          },
          "an integer in [" + std::to_string(min) + ", " +
              std::to_string(max) + "]",
          shown ? std::to_string(target) : ""};
}

/// A finite number in [min, max] (no NaN, no infinity).
Flag f64(std::string name, std::string placeholder, double& target,
         std::string help, double min,
         double max = std::numeric_limits<double>::max());

Flag str(std::string name, std::string placeholder, std::string& target,
         std::string help);

/// Comma-separated decimals ("6,11,3"); no empty list, no empty item.
Flag u64_list(std::string name, std::string placeholder,
              std::vector<std::uint64_t>& target, std::string help);

/// Calls `item` on each comma-separated item of `list` ("" for an empty
/// one); false as soon as `item` rejects one.
bool split_list(std::string_view list,
                const std::function<bool(std::string_view)>& item);

/// A positional argument: exactly one value into `one`, or every remaining
/// value into `rest` (last, and possibly none), or at most one value parsed
/// by `typed` (see optional()).
struct Positional {
  std::string name;
  std::string* one = nullptr;
  std::vector<std::string>* rest = nullptr;
  Flag typed{};
};

/// An optional positional parsed by a typed flag (cli::u64, cli::f64, ...)
/// named after it; when absent, its target keeps its default.
inline Positional optional(Flag typed) {
  std::string name = typed.name;
  return {std::move(name), nullptr, nullptr, std::move(typed)};
}

/// The program itself (empty `name`) or one of its subcommands.
struct Command {
  std::string name{};   ///< subcommand word
  std::string alias{};  ///< optional second spelling of `name`
  std::vector<Flag> flags{};
  std::vector<Positional> positionals{};
  /// Cross-flag rule checked after parsing: the error, or "".
  std::function<std::string()> check{};
  std::function<int()> body{};  ///< what `run` calls after a clean parse
};

/// Parses `args` (argv past the program and subcommand words) into `cmd`'s
/// targets, then runs its `check`. Returns the error, or "" on success.
std::string parse(const Command& cmd, const std::vector<std::string>& args);

std::string usage(std::string_view program,
                  const std::vector<Command>& commands);

/// Picks the command argv[1] names (or the one unnamed command) and parses
/// the rest of argv into it. nullptr after printing the error and the usage
/// on stderr.
const Command* parse_argv(const std::vector<Command>& commands, int argc,
                          char** argv);

/// parse_argv, then the command's body; kUsageExit on a malformed argv.
int run(const std::vector<Command>& commands, int argc, char** argv);

}  // namespace colex::util::cli
