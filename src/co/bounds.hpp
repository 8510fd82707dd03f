// The paper's exact pulse counts, as the one copy every substrate checks
// against. Dependency-free so that layers below co (obs) can use it too.
#pragma once

#include <cstdint>

namespace colex::co {

/// Theorems 1 and 2: n(2*IDmax+1) pulses for Algorithm 2 and for
/// Algorithm 3 with the improved ID scheme.
constexpr std::uint64_t theorem1_pulses(std::uint64_t n,
                                        std::uint64_t id_max) {
  return n * (2 * id_max + 1);
}

/// Proposition 15: n(4*IDmax-1) pulses for Algorithm 3 with the doubled
/// ID scheme.
constexpr std::uint64_t prop15_pulses(std::uint64_t n, std::uint64_t id_max) {
  return n * (4 * id_max - 1);
}

/// Corollary 13: Algorithm 1 quiesces after exactly n*IDmax pulses.
constexpr std::uint64_t cor13_pulses(std::uint64_t n, std::uint64_t id_max) {
  return n * id_max;
}

}  // namespace colex::co
