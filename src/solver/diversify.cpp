#include "solver/diversify.hpp"

#include <algorithm>
#include <iterator>

#include "util/rng.hpp"

namespace gridsat::solver {

const char* to_string(ParallelMode mode) noexcept {
  switch (mode) {
    case ParallelMode::kSplit: return "split";
    case ParallelMode::kPortfolio: return "portfolio";
    case ParallelMode::kHybrid: return "hybrid";
  }
  return "?";
}

std::uint64_t decorrelated_seed(std::uint64_t base_seed,
                                std::uint64_t slot) noexcept {
  const std::uint64_t mixed_base = util::SplitMix64(base_seed).next();
  return util::SplitMix64(mixed_base ^ slot).next();
}

namespace {

/// One row of the diversification table. The axes are the ones portfolio
/// solvers actually vary (HordeSat's diversifiers, dawn's Searcher
/// config): restart shape and cadence, starting polarity, phase memory,
/// random-walk probability, and the VSIDS half-life (including the
/// zChaff-style coarse 0.5-every-256-conflicts schedule).
struct DiversificationProfile {
  RestartPolicy restart_policy;
  double restart_base_scale;
  PolarityInit polarity_init;
  bool phase_saving;
  double random_decision_freq;
  double var_activity_decay;
  std::uint32_t decay_interval;
};

constexpr DiversificationProfile kProfiles[] = {
    {RestartPolicy::kGeometric, 1.0, PolarityInit::kActivity, true, 0.0,
     0.95, 1},
    {RestartPolicy::kLuby, 2.0, PolarityInit::kFalse, true, 0.0, 0.95, 1},
    {RestartPolicy::kLinear, 1.0, PolarityInit::kTrue, true, 0.0, 0.95, 1},
    {RestartPolicy::kLuby, 0.5, PolarityInit::kRandom, false, 0.02, 0.95, 1},
    {RestartPolicy::kGeometric, 4.0, PolarityInit::kActivity, true, 0.0, 0.5,
     256},
    {RestartPolicy::kLuby, 1.0, PolarityInit::kActivity, false, 0.05, 0.95,
     1},
    {RestartPolicy::kLinear, 2.0, PolarityInit::kFalse, true, 0.01, 0.999,
     1},
    {RestartPolicy::kGeometric, 0.5, PolarityInit::kRandom, true, 0.0, 0.85,
     1},
};

}  // namespace

SolverConfig diversified_config(const SolverConfig& base,
                                std::size_t profile_slot,
                                std::uint64_t seed_salt) {
  SolverConfig config = base;
  config.seed = decorrelated_seed(base.seed, seed_salt);
  if (profile_slot == 0) return config;  // reference heuristics
  const DiversificationProfile& p =
      kProfiles[(profile_slot - 1) % std::size(kProfiles)];
  config.restart_policy = p.restart_policy;
  if (base.restart_base != 0) {
    // Spread the cadence but honour "0 disables restarting".
    config.restart_base = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(static_cast<double>(base.restart_base) *
                                      p.restart_base_scale));
  }
  config.polarity_init = p.polarity_init;
  config.phase_saving = p.phase_saving;
  config.random_decision_freq =
      std::max(base.random_decision_freq, p.random_decision_freq);
  config.var_activity_decay = p.var_activity_decay;
  config.decay_interval = p.decay_interval;
  return config;
}

}  // namespace gridsat::solver
