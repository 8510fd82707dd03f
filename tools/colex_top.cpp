// colex-top: terminal scraper for the live /metrics endpoint a running
// soak (colex-soak --serve) or any obs::MetricsServer exposes.
//
//   colex-top [--host H] [--port P] [--once] [--raw] [--interval S]
//             [--path /metrics]
//
// options:
//   --host H      server host (default 127.0.0.1; localhost also accepted)
//   --port P      server port (required)
//   --once        scrape once and exit instead of watching
//   --raw         print the raw exposition body instead of the parsed
//                 summary (with --once this is a plain curl substitute —
//                 ci.sh uses it so the container needs no curl)
//   --interval S  watch-mode refresh cadence in seconds (default 2)
//   --path P      request path (default /metrics; /debug/flight and
//                 /healthz are the other endpoints a server exposes)
//
// Watch mode clears the screen per refresh (ANSI home+clear) and shows the
// headline election/pulse families plus every gauge — enough to see a soak
// breathe without leaving the terminal. Exit status: 0 on a successful
// scrape (the last one in watch mode), 1 on transport/HTTP failure, 2 on
// usage errors.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/serve.hpp"
#include "util/json.hpp"

namespace {

using colex::util::parse_u64;

int usage() {
  std::cerr << "usage:\n"
               "  colex-top --port P [--host H] [--once] [--raw]\n"
               "            [--interval S] [--path /metrics]\n";
  return 2;
}

/// One parsed sample line of the exposition: `name{labels} value`.
struct Sample {
  std::string name;  // family + label block, verbatim
  std::string value;
};

/// Splits the exposition body into samples, skipping comments. No numeric
/// parsing: the tool re-prints what the server rendered.
std::vector<Sample> parse_samples(const std::string& body) {
  std::vector<Sample> out;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0) continue;
    out.push_back(Sample{line.substr(0, sp), line.substr(sp + 1)});
  }
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

void print_summary(const std::string& host, std::uint16_t port,
                   const std::string& body) {
  const std::vector<Sample> samples = parse_samples(body);
  std::cout << "colex-top " << host << ":" << port << " — " << samples.size()
            << " samples\n\n";
  // Headline counters first: elections and the per-phase pulse series.
  for (const Sample& s : samples) {
    if (starts_with(s.name, "colex_elections_total") ||
        starts_with(s.name, "colex_pulses_total")) {
      std::cout << "  " << s.name << " = " << s.value << "\n";
    }
  }
  std::cout << "\n";
  // Then every gauge-ish liveness series (svc.* / rt.* / coro.* families
  // without the _total suffix), then nothing else: histograms are for the
  // recorded snapshot, not a terminal glance.
  for (const Sample& s : samples) {
    if (s.name.find("_total") != std::string::npos) continue;
    if (s.name.find("_bucket") != std::string::npos) continue;
    if (s.name.find("_sum") != std::string::npos) continue;
    if (s.name.find("_count") != std::string::npos) continue;
    std::cout << "  " << s.name << " = " << s.value << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string path = "/metrics";
  std::uint16_t port = 0;
  bool have_port = false;
  bool once = false;
  bool raw = false;
  double interval_s = 2.0;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const bool has_value = i + 1 < args.size();
    std::uint64_t u = 0;
    if (a == "--once") {
      once = true;
    } else if (a == "--raw") {
      raw = true;
    } else if (a == "--host" && has_value) {
      host = args[++i];
    } else if (a == "--path" && has_value) {
      path = args[++i];
    } else if (a == "--port" && has_value && parse_u64(args[++i], u) &&
               u >= 1 && u <= 65535) {
      port = static_cast<std::uint16_t>(u);
      have_port = true;
    } else if (a == "--interval" && has_value && parse_u64(args[++i], u) &&
               u >= 1) {
      interval_s = static_cast<double>(u);
    } else {
      return usage();
    }
  }
  if (!have_port) return usage();

  for (;;) {
    int status = 0;
    std::string body;
    if (!colex::obs::http_get(host, port, path, status, body)) {
      std::cerr << "colex-top: cannot reach " << host << ":" << port << path
                << "\n";
      return 1;
    }
    if (status != 200) {
      std::cerr << "colex-top: HTTP " << status << " from " << path << "\n";
      return 1;
    }
    if (raw) {
      std::cout << body;
    } else {
      if (!once) std::cout << "\x1b[H\x1b[2J";  // home + clear
      print_summary(host, port, body);
    }
    if (once) return 0;
    std::cout.flush();
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
  }
}
