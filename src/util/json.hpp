// The one JSON string codec and flat-line reader behind every artifact the
// repo writes and reads back (colex-trace-v1, colex-repro-v1, Registry
// snapshots, BENCH_*.json, colex-lint --json), plus the overflow-checked
// decimal parser shared with the command-line tools.
//
// Strings: write_escaped emits `"` and `\` as \" and \\, newline and tab as
// \n and \t, any other byte below 0x20 as \u00XX, and every other byte
// verbatim. read_string decodes exactly that (and takes any other escaped
// character verbatim), so every byte string round-trips.
//
// The reader is not a general JSON parser: it reads flat objects of our own
// output, one per line, locating a value by the first `"key":` in the line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace colex::util {

/// Parses a decimal u64: one or more ASCII digits and nothing else (no
/// sign, no space), whose value is at most 2^64-1. Leaves `out` untouched
/// and returns false otherwise.
bool parse_u64(std::string_view s, std::uint64_t& out);

namespace json {

/// Writes `s` as a quoted JSON string (escape rules above).
void write_escaped(std::ostream& os, std::string_view s);

/// Value readers: each parses the value starting at `s[pos]` and, on
/// success, advances `pos` past it.
bool read_string(const std::string& s, std::size_t& pos, std::string& out);
bool read_u64(const std::string& s, std::size_t& pos, std::uint64_t& out);
bool read_double(const std::string& s, std::size_t& pos, double& out);

/// Sets `pos` to the start of `key`'s value; false if the key is absent.
bool find_raw(const std::string& line, std::string_view key,
              std::size_t& pos);

/// Keyed readers: false if the key is absent; a present value that does
/// not parse (a non-number, a number above 2^64-1, an unterminated string)
/// throws util::ContractViolation, so a loader never mistakes it for a
/// missing key.
bool find_string(const std::string& line, std::string_view key,
                 std::string& out);
bool find_u64(const std::string& line, std::string_view key,
              std::uint64_t& out);
bool find_double(const std::string& line, std::string_view key, double& out);
/// A `[n,n,...]` array of decimals.
bool find_u64_array(const std::string& line, std::string_view key,
                    std::vector<std::uint64_t>& out);

}  // namespace json
}  // namespace colex::util
