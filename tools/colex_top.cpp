// colex-top: terminal scraper for the live /metrics endpoint a running
// soak (colex-soak --serve) or any obs::MetricsServer exposes.
//
//   colex-top --port P [options]   (a malformed invocation prints them all)
//
// Watch mode clears the screen per refresh (ANSI home+clear) and shows the
// headline election/pulse families plus every gauge — enough to see a soak
// breathe without leaving the terminal. `--once --raw` is a plain curl
// substitute (ci.sh uses it so the container needs no curl). Exit status
// (DESIGN.md §15): 0 on a successful scrape (the last one in watch mode),
// 1 on transport/HTTP failure, 2 on usage errors.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/serve.hpp"
#include "util/cli.hpp"

namespace {

namespace cli = colex::util::cli;

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

void print_summary(const std::string& host, std::uint16_t port,
                   const std::string& body) {
  const std::vector<Sample> samples = parse_samples(body);
  std::cout << "colex-top " << host << ":" << port << " — " << samples.size()
            << " samples\n\n";
  // Headline counters first: elections and the per-phase pulse series.
  for (const Sample& s : samples) {
    if (s.name.starts_with("colex_elections_total") ||
        s.name.starts_with("colex_pulses_total")) {
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
  bool once = false;
  bool raw = false;
  std::uint64_t interval_s = 2;
  const cli::Command cmd{.flags = {
      cli::u64("--port", "P", port, "server port", 1).require(),
      cli::str("--host", "H", host, "server host"),
      cli::flag("--once", once, "scrape once and exit, do not watch"),
      cli::flag("--raw", raw, "print the raw exposition body"),
      cli::u64("--interval", "S", interval_s, "watch cadence, seconds", 1,
               86'400),
      cli::str("--path", "P", path, "also /debug/flight or /healthz"),
  }};
  if (cli::parse_argv({cmd}, argc, argv) == nullptr) return cli::kUsageExit;

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
    std::this_thread::sleep_for(std::chrono::seconds(interval_s));
  }
}
