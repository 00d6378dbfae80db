// Parallel search modes and worker diversification (DESIGN.md §4i).
//
// The paper's parallel layer is pure guiding-path splitting: every client
// runs the same deterministic engine and search diversity comes from the
// subproblems themselves. HordeSat-style portfolios take the opposite
// bet — many differently-configured solvers race the *same* formula and
// exchange clauses — and win on instance classes where one heuristic
// stalls. This header names the three modes the simulated campaign
// supports (the thread-parallel solver only splits), and derives the
// per-client config variations (restart shape, polarity, phase memory,
// random walk, VSIDS half-life, seed) that make a race worth running.
#pragma once

#include <cstdint>

#include "solver/cdcl.hpp"

namespace gridsat::solver {

enum class ParallelMode : std::uint8_t {
  /// Guiding-path splitting (the paper's algorithm; the default).
  kSplit,
  /// Every client races the whole formula under a diversified config;
  /// first verdict wins. No splitting.
  kPortfolio,
  /// Splitting as in kSplit, but each shipped subproblem is raced by k
  /// diversified clients; the first verdict wins and the losers are
  /// cancelled.
  kHybrid,
};

const char* to_string(ParallelMode mode) noexcept;

/// Statistically independent seed for (base_seed, slot): two chained
/// splitmix64 stages. A plain `base + slot` collides across adjacent
/// runs — worker 1 of a seed=1 run replays worker 0 of a seed=2 run —
/// so the base is avalanched before the slot is mixed in, landing every
/// (base, slot) pair in an unrelated region of seed space.
[[nodiscard]] std::uint64_t decorrelated_seed(std::uint64_t base_seed,
                                              std::uint64_t slot) noexcept;

/// Derive a racing client's config from `base`. `profile_slot` picks the
/// heuristic variation: slot 0 keeps the base heuristics (the reference
/// config every race includes), slots >= 1 cycle a fixed table of
/// restart-policy / polarity / phase-saving / random-walk / VSIDS-decay
/// combinations. Every slot (0 included) re-seeds via
/// decorrelated_seed(base.seed, seed_salt), so two racers never replay
/// each other's tie-breaks even when they share a profile.
[[nodiscard]] SolverConfig diversified_config(const SolverConfig& base,
                                              std::size_t profile_slot,
                                              std::uint64_t seed_salt);

}  // namespace gridsat::solver
