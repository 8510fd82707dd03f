// The catalogue of the paper's algorithms: the one list, the one name table
// and the one exact pulse count per algorithm, plus the facts every layer
// dispatches on. Dependency-free so that layers below co (obs) can use it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

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

/// Algorithm 3's virtual-ID schemes.
enum class IdScheme {
  doubled,   // Proposition 15
  improved,  // Theorem 2
};

constexpr const char* to_string(IdScheme s) {
  return s == IdScheme::doubled ? "doubled" : "improved";
}

/// The paper's algorithms. alg4 is the anonymous pipeline of Theorem 3:
/// IDs sampled by Algorithm 4, then Algorithm 3 with the improved scheme;
/// given its IDs it runs exactly as alg3_improved.
enum class Algorithm { alg1, alg2, alg3_doubled, alg3_improved, alg4 };

inline constexpr Algorithm kAlgorithms[] = {
    Algorithm::alg1, Algorithm::alg2, Algorithm::alg3_doubled,
    Algorithm::alg3_improved, Algorithm::alg4};

/// What the layers dispatch on, per algorithm.
struct AlgorithmFacts {
  const char* name;  ///< on command lines, in colex-trace-v1/colex-repro-v1
  bool oriented;     ///< Alg 1/2 need an oriented ring; Alg 3 orients one
  bool terminates;   ///< nodes terminate (Alg 2); the others only quiesce
  IdScheme scheme;   ///< Algorithm 3's virtual IDs (oriented: unused)
  bool samples_ids;  ///< draws its own IDs (Algorithm 4)
  const char* count_name;     ///< the claim its exact count comes from
  const char* count_formula;  ///< that count, spelled over n and id_max
};

inline constexpr AlgorithmFacts kFacts[] = {
    {"alg1", true, false, IdScheme::improved, false, "cor13", "n*id_max"},
    {"alg2", true, true, IdScheme::improved, false, "theorem1",
     "n(2*id_max+1)"},
    {"alg3-doubled", false, false, IdScheme::doubled, false, "prop15",
     "n(4*id_max-1)"},
    {"alg3-improved", false, false, IdScheme::improved, false, "theorem2",
     "n(2*id_max+1)"},
    {"alg4", false, false, IdScheme::improved, true, "theorem2",
     "n(2*id_max+1)"},
};

constexpr const AlgorithmFacts& facts(Algorithm alg) {
  return kFacts[static_cast<std::size_t>(alg)];
}

constexpr const char* to_string(Algorithm alg) { return facts(alg).name; }

/// Inverse of to_string; nullopt for a name outside the catalogue.
constexpr std::optional<Algorithm> from_string(std::string_view name) {
  for (const Algorithm alg : kAlgorithms) {
    if (name == to_string(alg)) return alg;
  }
  return std::nullopt;
}

/// The exact pulse count of a clean run of `alg` on n nodes whose largest
/// ID is id_max: Corollary 13 for Alg 1, Theorem 1 for Alg 2, Proposition
/// 15 / Theorem 2 for Alg 3 with the doubled / improved scheme (and so for
/// alg4). 0 when no count applies (id_max == 0).
constexpr std::uint64_t exact_pulses(Algorithm alg, std::uint64_t n,
                                     std::uint64_t id_max) {
  if (id_max == 0) return 0;
  switch (alg) {
    case Algorithm::alg1: return cor13_pulses(n, id_max);
    case Algorithm::alg2:
    case Algorithm::alg3_improved:
    case Algorithm::alg4: return theorem1_pulses(n, id_max);
    case Algorithm::alg3_doubled: return prop15_pulses(n, id_max);
  }
  return 0;
}

}  // namespace colex::co
