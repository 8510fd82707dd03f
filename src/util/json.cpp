#include "util/json.hpp"

#include <cstdlib>
#include <ostream>

#include "util/contracts.hpp"

namespace colex::util {

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (const char ch : s) {
    if (ch < '0' || ch > '9') return false;
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  out = v;
  return true;
}

namespace json {

namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

void write_escaped(std::ostream& os, std::string_view s) {
  constexpr const char* kHex = "0123456789abcdef";
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u00" << kHex[(c >> 4) & 0xF] << kHex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

bool read_string(const std::string& s, std::size_t& pos, std::string& out) {
  std::size_t i = pos;
  if (i >= s.size() || s[i] != '"') return false;
  std::string value;
  for (++i; i < s.size() && s[i] != '"'; ++i) {
    if (s[i] != '\\') {
      value += s[i];
      continue;
    }
    if (++i >= s.size()) return false;
    switch (s[i]) {
      case 'n': value += '\n'; break;
      case 't': value += '\t'; break;
      case 'u': {
        int code = 0;
        for (int k = 0; k < 4; ++k) {
          const int d = ++i < s.size() ? hex_digit(s[i]) : -1;
          if (d < 0) return false;
          code = code * 16 + d;
        }
        if (code >= 0x80) return false;  // never written: not a byte
        value += static_cast<char>(code);
        break;
      }
      default: value += s[i];  // \" \\ and any other escaped character
    }
  }
  if (i >= s.size()) return false;  // unterminated
  out = std::move(value);
  pos = i + 1;
  return true;
}

bool read_u64(const std::string& s, std::size_t& pos, std::uint64_t& out) {
  std::size_t end = pos;
  while (end < s.size() && s[end] >= '0' && s[end] <= '9') ++end;
  if (!parse_u64(std::string_view(s).substr(pos, end - pos), out)) {
    return false;
  }
  pos = end;
  return true;
}

bool read_double(const std::string& s, std::size_t& pos, double& out) {
  if (pos >= s.size()) return false;
  const char* begin = s.c_str() + pos;
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin) return false;
  out = v;
  pos += static_cast<std::size_t>(end - begin);
  return true;
}

bool find_raw(const std::string& line, std::string_view key,
              std::size_t& pos) {
  std::string needle = "\"";
  needle.append(key).append("\":");
  const auto at = line.find(needle);
  if (at == std::string::npos) return false;
  pos = at + needle.size();
  return true;
}

bool find_string(const std::string& line, std::string_view key,
                 std::string& out) {
  std::size_t pos = 0;
  if (!find_raw(line, key, pos)) return false;
  COLEX_EXPECTS(read_string(line, pos, out));
  return true;
}

bool find_u64(const std::string& line, std::string_view key,
              std::uint64_t& out) {
  std::size_t pos = 0;
  if (!find_raw(line, key, pos)) return false;
  COLEX_EXPECTS(read_u64(line, pos, out));
  return true;
}

bool find_double(const std::string& line, std::string_view key, double& out) {
  std::size_t pos = 0;
  if (!find_raw(line, key, pos)) return false;
  COLEX_EXPECTS(read_double(line, pos, out));
  return true;
}

bool find_u64_array(const std::string& line, std::string_view key,
                    std::vector<std::uint64_t>& out) {
  std::size_t pos = 0;
  if (!find_raw(line, key, pos)) return false;
  COLEX_EXPECTS(pos < line.size() && line[pos] == '[');
  std::vector<std::uint64_t> values;
  ++pos;
  if (pos < line.size() && line[pos] == ']') {
    out.clear();
    return true;
  }
  for (;;) {
    std::uint64_t v = 0;
    COLEX_EXPECTS(read_u64(line, pos, v));
    values.push_back(v);
    COLEX_EXPECTS(pos < line.size() && (line[pos] == ',' || line[pos] == ']'));
    if (line[pos++] == ']') break;
  }
  out = std::move(values);
  return true;
}

}  // namespace json
}  // namespace colex::util
