#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>

namespace colex::util::cli {

namespace {

std::string format_double(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
}

/// One command's synopsis (required flags, then [options] and the
/// positionals), then one line per flag.
void append_usage(std::string& out, std::string_view program,
                  const Command& cmd) {
  out += "  " + std::string(program);
  if (!cmd.name.empty()) out += " " + cmd.name;
  if (!cmd.alias.empty()) out += " | " + cmd.alias;
  bool optional = false;
  for (const Flag& f : cmd.flags) {
    if (f.required) out += " " + f.name + " " + f.placeholder;
    optional = optional || !f.required;
  }
  if (optional) out += " [options]";
  for (const Positional& p : cmd.positionals) {
    if (p.typed.set) out += " [<" + p.name + ">";
    else out += " <" + p.name + (p.rest != nullptr ? ">..." : ">");
  }
  for (const Positional& p : cmd.positionals) {
    if (p.typed.set) out += "]";
  }
  out += "\n";
  auto row = [&out](const std::string& head, const Flag& f) {
    std::string line = "    " + head;
    line.resize(std::max<std::size_t>(line.size() + 2, 26), ' ');
    out += line + f.help;
    if (!f.default_text.empty()) out += " (default " + f.default_text + ")";
    out += "\n";
  };
  for (const Flag& f : cmd.flags) row(f.name + " " + f.placeholder, f);
  for (const Positional& p : cmd.positionals) {
    if (p.typed.set) row("<" + p.name + ">", p.typed);
  }
}

}  // namespace

Flag flag(std::string name, bool& target, std::string help) {
  return {std::move(name), "", std::move(help),
          [&target](std::string_view) { return target = true; }};
}

Flag f64(std::string name, std::string placeholder, double& target,
         std::string help, double min, double max) {
  COLEX_EXPECTS(std::isfinite(min) && std::isfinite(max) && min <= max);
  auto set = [&target, min, max](std::string_view s) {
    double v = 0.0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (s.empty() || ec != std::errc() || end != s.data() + s.size() ||
        !std::isfinite(v) || v < min || v > max) {
      return false;
    }
    target = v;
    return true;
  };
  return {std::move(name), std::move(placeholder), std::move(help),
          std::move(set),
          "a finite number >= " + format_double(min) +
              (max < std::numeric_limits<double>::max()
                   ? " and <= " + format_double(max)
                   : ""),
          target >= min && target <= max ? format_double(target) : ""};
}

Flag str(std::string name, std::string placeholder, std::string& target,
         std::string help) {
  return {std::move(name), std::move(placeholder), std::move(help),
          [&target](std::string_view s) {
            target = std::string(s);
            return true;
          },
          "", target};
}

Flag u64_list(std::string name, std::string placeholder,
              std::vector<std::uint64_t>& target, std::string help) {
  return {std::move(name), std::move(placeholder), std::move(help),
          [&target](std::string_view list) {
            std::vector<std::uint64_t> values;
            const bool ok = split_list(list, [&values](std::string_view item) {
              return parse_u64(item, values.emplace_back());
            });
            if (ok) target = std::move(values);
            return ok;
          },
          "comma-separated decimals"};
}

bool split_list(std::string_view list,
                const std::function<bool(std::string_view)>& item) {
  for (;;) {
    const std::size_t comma = list.find(',');
    if (!item(list.substr(0, comma))) return false;
    if (comma == std::string_view::npos) return true;
    list.remove_prefix(comma + 1);
  }
}

std::string parse(const Command& cmd, const std::vector<std::string>& args) {
  std::vector<bool> seen(cmd.flags.size(), false);
  std::size_t next_positional = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.size() > 1 && a[0] == '-') {
      std::size_t k = 0;
      while (k < cmd.flags.size() && cmd.flags[k].name != a) ++k;
      if (k == cmd.flags.size()) return "unknown flag '" + a + "'";
      const Flag& f = cmd.flags[k];
      seen[k] = true;
      if (f.placeholder.empty()) {
        f.set("");
      } else if (i + 1 == args.size()) {
        return f.name + " needs a value " + f.placeholder;
      } else if (!f.set(args[++i])) {
        return f.name + " got '" + args[i] + "'" +
               (f.wants.empty() ? ", which it does not accept"
                                : "; it wants " + f.wants);
      }
    } else if (next_positional == cmd.positionals.size()) {
      return "unexpected argument '" + a + "'";
    } else if (const Positional& p = cmd.positionals[next_positional];
               p.rest != nullptr) {
      p.rest->push_back(a);
    } else if (p.typed.set && !p.typed.set(a)) {
      return "<" + p.name + "> got '" + a + "'; it wants " + p.typed.wants;
    } else {
      if (p.one != nullptr) *p.one = a;
      ++next_positional;
    }
  }
  for (std::size_t k = 0; k < cmd.flags.size(); ++k) {
    if (cmd.flags[k].required && !seen[k]) {
      return "missing " + cmd.flags[k].name + " " + cmd.flags[k].placeholder;
    }
  }
  for (; next_positional < cmd.positionals.size(); ++next_positional) {
    const Positional& p = cmd.positionals[next_positional];
    if (p.one != nullptr) return "missing <" + p.name + ">";
  }
  return cmd.check ? cmd.check() : "";
}

std::string usage(std::string_view program,
                  const std::vector<Command>& commands) {
  std::string out = "usage:\n";
  for (const Command& cmd : commands) append_usage(out, program, cmd);
  return out;
}

const Command* parse_argv(const std::vector<Command>& commands, int argc,
                          char** argv) {
  std::string program = argc > 0 ? argv[0] : "";
  program.erase(0, program.rfind('/') + 1);  // npos + 1 == 0: keep it all
  std::vector<std::string> args(argv + std::min(argc, 1), argv + argc);
  const Command* cmd = nullptr;
  std::string error;
  if (commands.size() == 1 && commands.front().name.empty()) {
    cmd = &commands.front();
  } else if (args.empty()) {
    error = "missing command";
  } else {
    const std::string& word = args.front();
    for (const Command& c : commands) {
      if (!word.empty() && (word == c.name || word == c.alias)) cmd = &c;
    }
    if (cmd == nullptr) error = "unknown command '" + word + "'";
    else args.erase(args.begin());
  }
  if (cmd != nullptr) error = parse(*cmd, args);
  if (error.empty()) return cmd;
  std::cerr << program << ": " << error << "\n"
            << usage(program, cmd != nullptr ? std::vector<Command>{*cmd}
                                             : commands);
  return nullptr;
}

int run(const std::vector<Command>& commands, int argc, char** argv) {
  const Command* cmd = parse_argv(commands, argc, argv);
  return cmd == nullptr ? kUsageExit : cmd->body();
}

}  // namespace colex::util::cli
