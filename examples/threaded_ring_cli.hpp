// threaded_ring's command line, in a header so that its bounds can be
// tested on the parser alone, without starting a thread.
#pragma once

#include <cstddef>

#include "util/cli.hpp"

namespace colex::examples {

/// One OS thread per node: the cap keeps a typo from asking the machine
/// for thousands of threads.
inline constexpr std::size_t kMaxThreadedRingNodes = 256;

struct ThreadedRingArgs {
  std::size_t n = 8;
  int repeats = 5;
};

inline util::cli::Command threaded_ring_command(ThreadedRingArgs& args) {
  namespace cli = util::cli;
  return {.positionals = {
              cli::optional(cli::u64("n", "", args.n,
                                     "ring size, one thread per node", 1,
                                     kMaxThreadedRingNodes)),
              cli::optional(cli::u64("repeats", "", args.repeats,
                                     "threaded runs", 1))}};
}

}  // namespace colex::examples
