#include "qa/repro.hpp"

#include <cstdio>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/contracts.hpp"
#include "util/json.hpp"

namespace colex::qa {

namespace {

using util::json::find_double;
using util::json::find_string;
using util::json::find_u64;
using util::json::find_u64_array;
using util::json::write_escaped;

void write_double(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*g",
                std::numeric_limits<double>::max_digits10, v);
  os << buf;
}

void write_u64_array(std::ostream& os, const std::vector<std::uint64_t>& xs) {
  os << '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) os << ',';
    os << xs[i];
  }
  os << ']';
}

bool fault_kind_from_string(const std::string& s, sim::FaultKind& out) {
  for (const sim::FaultKind k :
       {sim::FaultKind::drop, sim::FaultKind::duplicate,
        sim::FaultKind::spurious, sim::FaultKind::crash,
        sim::FaultKind::recover, sim::FaultKind::corrupt}) {
    if (s == sim::to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

void write_profile_fields(std::ostream& os,
                          const sim::ChannelFaultProfile& p) {
  os << "\"drop\":";
  write_double(os, p.drop_prob);
  os << ",\"duplicate\":";
  write_double(os, p.duplicate_prob);
  os << ",\"spurious\":";
  write_double(os, p.spurious_prob);
}

sim::ChannelFaultProfile read_profile_fields(const std::string& line) {
  sim::ChannelFaultProfile p;
  find_double(line, "drop", p.drop_prob);
  find_double(line, "duplicate", p.duplicate_prob);
  find_double(line, "spurious", p.spurious_prob);
  return p;
}

}  // namespace

void write_repro(std::ostream& os, const ReproFile& repro) {
  const FuzzCase& c = repro.c;
  os << "{\"type\":\"repro\",\"format\":\"colex-repro-v1\",\"seed\":" << c.seed
     << ",\"algorithm\":\"" << to_string(c.alg) << "\",\"ids\":";
  write_u64_array(os, c.ids);
  os << ",\"port_flips\":[";
  for (std::size_t v = 0; v < c.port_flips.size(); ++v) {
    if (v) os << ',';
    os << (c.port_flips[v] ? 1 : 0);
  }
  os << "],\"schedule_seed\":" << c.schedule_seed
     << ",\"max_events\":" << c.max_events
     << ",\"planted\":" << (repro.props.planted_bound_bug ? 1 : 0)
     << ",\"check_replay\":" << (repro.props.check_replay ? 1 : 0)
     << ",\"failed_property\":";
  write_escaped(os, repro.failed_property);
  os << ",\"diagnostic\":";
  write_escaped(os, repro.diagnostic);
  os << "}\n";

  os << "{\"type\":\"tape\",\"choices\":";
  write_u64_array(
      os, std::vector<std::uint64_t>(c.tape.begin(), c.tape.end()));
  os << "}\n";

  os << "{\"type\":\"fault-plan\",\"plan_seed\":" << c.faults.seed << ",";
  write_profile_fields(os, c.faults.all_channels);
  os << "}\n";
  for (const auto& [channel, profile] : c.faults.channel_overrides) {
    os << "{\"type\":\"override\",\"channel\":" << channel << ",";
    write_profile_fields(os, profile);
    os << "}\n";
  }
  for (const auto& f : c.faults.script) {
    os << "{\"type\":\"scripted\",\"kind\":\"" << sim::to_string(f.kind)
       << "\",\"at_event\":" << f.at_event << ",\"channel\":" << f.channel
       << ",\"node\":" << f.node << "}\n";
  }
  for (const auto& [channel, count] : c.faults.preseed_channels) {
    os << "{\"type\":\"preseed\",\"channel\":" << channel
       << ",\"count\":" << count << "}\n";
  }
  if (c.corrupt.active) {
    os << "{\"type\":\"corrupt\",\"node\":" << c.corrupt.node
       << ",\"counters\":";
    write_u64_array(os, {c.corrupt.counters[0], c.corrupt.counters[1],
                         c.corrupt.counters[2], c.corrupt.counters[3]});
    os << "}\n";
  }
}

std::string to_repro(const ReproFile& repro) {
  std::ostringstream os;
  write_repro(os, repro);
  return os.str();
}

ReproFile load_repro(std::istream& is) {
  ReproFile out;
  std::string line;
  bool have_header = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::string type;
    COLEX_EXPECTS(find_string(line, "type", type));
    if (type == "repro") {
      COLEX_EXPECTS(!have_header);
      have_header = true;
      std::string format;
      COLEX_EXPECTS(find_string(line, "format", format) &&
                    format == "colex-repro-v1");
      find_u64(line, "seed", out.c.seed);
      std::string alg;
      COLEX_EXPECTS(find_string(line, "algorithm", alg));
      const auto parsed = co::from_string(alg);
      COLEX_EXPECTS(parsed.has_value());
      out.c.alg = *parsed;
      COLEX_EXPECTS(find_u64_array(line, "ids", out.c.ids) &&
                    !out.c.ids.empty());
      std::vector<std::uint64_t> flips;
      find_u64_array(line, "port_flips", flips);
      for (const std::uint64_t f : flips) {
        COLEX_EXPECTS(f <= 1);
        out.c.port_flips.push_back(f == 1);
      }
      find_u64(line, "schedule_seed", out.c.schedule_seed);
      find_u64(line, "max_events", out.c.max_events);
      std::uint64_t flag = 0;
      if (find_u64(line, "planted", flag)) {
        out.props.planted_bound_bug = flag != 0;
      }
      if (find_u64(line, "check_replay", flag)) {
        out.props.check_replay = flag != 0;
      }
      find_string(line, "failed_property", out.failed_property);
      find_string(line, "diagnostic", out.diagnostic);
    } else if (type == "tape") {
      std::vector<std::uint64_t> choices;
      COLEX_EXPECTS(find_u64_array(line, "choices", choices));
      out.c.tape.assign(choices.begin(), choices.end());
    } else if (type == "fault-plan") {
      find_u64(line, "plan_seed", out.c.faults.seed);
      out.c.faults.all_channels = read_profile_fields(line);
    } else if (type == "override") {
      std::uint64_t channel = 0;
      COLEX_EXPECTS(find_u64(line, "channel", channel));
      out.c.faults.channel_overrides.emplace_back(
          static_cast<std::size_t>(channel), read_profile_fields(line));
    } else if (type == "scripted") {
      sim::ScriptedFault f;
      std::string kind;
      COLEX_EXPECTS(find_string(line, "kind", kind) &&
                    fault_kind_from_string(kind, f.kind));
      find_u64(line, "at_event", f.at_event);
      std::uint64_t channel = 0, node = 0;
      if (find_u64(line, "channel", channel)) {
        f.channel = static_cast<std::size_t>(channel);
      }
      if (find_u64(line, "node", node)) {
        f.node = static_cast<sim::NodeId>(node);
      }
      out.c.faults.script.push_back(f);
    } else if (type == "preseed") {
      std::uint64_t channel = 0, count = 0;
      COLEX_EXPECTS(find_u64(line, "channel", channel) &&
                    find_u64(line, "count", count));
      out.c.faults.preseed_channels.emplace_back(
          static_cast<std::size_t>(channel), static_cast<std::size_t>(count));
    } else if (type == "corrupt") {
      std::uint64_t node = 0;
      std::vector<std::uint64_t> counters;
      COLEX_EXPECTS(find_u64(line, "node", node) &&
                    find_u64_array(line, "counters", counters) &&
                    counters.size() == 4);
      out.c.corrupt.active = true;
      out.c.corrupt.node = static_cast<sim::NodeId>(node);
      for (int i = 0; i < 4; ++i) {
        out.c.corrupt.counters[i] = counters[static_cast<std::size_t>(i)];
      }
    }
    // Unknown line types are skipped: forward compatibility.
  }
  COLEX_EXPECTS(have_header);
  return out;
}

ReproFile load_repro_file(const std::string& path) {
  std::ifstream in(path);
  COLEX_EXPECTS(in.good());
  return load_repro(in);
}

void save_repro_file(const std::string& path, const ReproFile& repro) {
  std::ofstream out(path);
  COLEX_EXPECTS(out.good());
  write_repro(out, repro);
  COLEX_EXPECTS(out.good());
}

obs::TraceMeta trace_meta_for(const FuzzCase& c) {
  obs::TraceMeta meta;
  meta.algorithm = to_string(c.alg);
  meta.n = c.n();
  meta.id_max = c.id_max();
  meta.port_flips = c.port_flips;
  return meta;
}

}  // namespace colex::qa
