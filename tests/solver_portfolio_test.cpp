// Tests for the pieces racing is built from: seed decorrelation (the old
// `seed + worker_index` scheme made adjacent base seeds share workers),
// cancellation latency through the propagation-loop flag, and diversified
// restart/polarity heuristics vs brute force. Racing itself is a campaign
// mode only; tests/core_race_test.cpp covers it.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "solver/brute_force.hpp"
#include "solver/diversify.hpp"

namespace gridsat::solver {
namespace {

using cnf::CnfFormula;

// ---------------------------------------------------------------- seeds

TEST(DecorrelatedSeedTest, AdjacentBaseSeedsNeverShareSlots) {
  // The bug: seed + worker_index means (base=1, slot=1) and
  // (base=2, slot=0) run the identical decision stream. Any (base, slot)
  // pairs with equal sums must now map to distinct seeds.
  std::set<std::uint64_t> seen;
  for (std::uint64_t base = 1; base <= 8; ++base) {
    for (std::uint64_t slot = 0; slot < 8; ++slot) {
      seen.insert(decorrelated_seed(base, slot));
    }
  }
  EXPECT_EQ(seen.size(), 64u);  // all 64 (base, slot) pairs distinct
  EXPECT_NE(decorrelated_seed(1, 1), decorrelated_seed(2, 0));
  // Determinism: same inputs, same seed.
  EXPECT_EQ(decorrelated_seed(5, 3), decorrelated_seed(5, 3));
}

/// First `limit` learned clauses under the given seed, with enough
/// random branching that the RNG stream shows up in the search.
std::vector<std::vector<cnf::Lit>> conflict_prefix(const CnfFormula& f,
                                                   std::uint64_t seed,
                                                   std::size_t limit) {
  SolverConfig config;
  config.seed = seed;
  config.random_decision_freq = 0.5;
  CdclSolver solver(f, config);
  std::vector<std::vector<cnf::Lit>> learned;
  std::atomic<bool> stop{false};
  solver.set_conflict_observer(
      [&learned, &stop, limit](const ConflictRecord& rec) {
        if (learned.size() < limit) learned.push_back(rec.learned_clause);
        if (learned.size() >= limit) stop.store(true);
      });
  solver.set_cancel_flag(&stop);
  solver.solve();
  return learned;
}

TEST(DecorrelatedSeedTest, AdjacentBaseSeedsGiveDisjointDecisionStreams) {
  // Under the old scheme these two (base, slot) pairs collided; their
  // searches must now diverge. Identical pairs must still replay.
  const CnfFormula f = gen::random_ksat(24, 110, 3, 99);
  const auto worker1_of_base1 =
      conflict_prefix(f, decorrelated_seed(1, 1), 20);
  const auto worker0_of_base2 =
      conflict_prefix(f, decorrelated_seed(2, 0), 20);
  const auto worker1_of_base1_again =
      conflict_prefix(f, decorrelated_seed(1, 1), 20);
  ASSERT_FALSE(worker1_of_base1.empty());
  EXPECT_NE(worker1_of_base1, worker0_of_base2);
  EXPECT_EQ(worker1_of_base1, worker1_of_base1_again);
}

// --------------------------------------------------------- cancellation

TEST(CancelFlagTest, PresetFlagStopsBeforeAnySearch) {
  const CnfFormula f = gen::pigeonhole_unsat(7);
  CdclSolver solver(f, {});
  std::atomic<bool> cancel{true};
  solver.set_cancel_flag(&cancel);
  EXPECT_EQ(solver.solve(), SolveStatus::kUnknown);
  EXPECT_EQ(solver.stats().conflicts, 0u);
}

TEST(CancelFlagTest, CancelledWorkerStopsWithinOnePropagationBatch) {
  // Trip the flag from inside the search (as a winning co-racer would)
  // and check the loser abandons the slice immediately instead of
  // running the slice budget out.
  const CnfFormula f = gen::pigeonhole_unsat(8);
  CdclSolver solver(f, {});
  std::atomic<bool> cancel{false};
  const std::uint64_t kTrip = 50;
  std::uint64_t observed = 0;
  solver.set_conflict_observer(
      [&cancel, &observed, kTrip](const ConflictRecord&) {
        if (++observed >= kTrip) cancel.store(true);
      });
  solver.set_cancel_flag(&cancel);
  const SolveStatus status = solver.solve();  // unbounded budget
  EXPECT_EQ(status, SolveStatus::kUnknown);
  // The flag is polled at the top of the search loop: at most one more
  // propagate/analyze round may complete after the observer fires.
  EXPECT_GE(solver.stats().conflicts, kTrip);
  EXPECT_LE(solver.stats().conflicts, kTrip + 1);
}

TEST(CancelFlagTest, ClearedFlagLetsTheSolveFinish) {
  const CnfFormula f = gen::random_ksat(12, 50, 3, 5);
  const bool truth = brute_force_solve(f).has_value();
  CdclSolver solver(f, {});
  std::atomic<bool> cancel{false};
  solver.set_cancel_flag(&cancel);
  EXPECT_EQ(solver.solve(),
            truth ? SolveStatus::kSat : SolveStatus::kUnsat);
}

// ------------------------------------------------- diversified configs

TEST(DiversifyTest, SlotZeroKeepsHeuristicsButReseeds) {
  SolverConfig base;
  base.seed = 7;
  const SolverConfig d = diversified_config(base, 0, 3);
  EXPECT_EQ(d.restart_policy, base.restart_policy);
  EXPECT_EQ(d.polarity_init, base.polarity_init);
  EXPECT_EQ(d.phase_saving, base.phase_saving);
  EXPECT_NE(d.seed, base.seed);
  EXPECT_EQ(d.seed, decorrelated_seed(7, 3));
}

TEST(DiversifyTest, SlotsDifferAndRestartZeroStaysDisabled) {
  SolverConfig base;
  std::set<std::uint64_t> seeds;
  for (std::size_t slot = 0; slot < 9; ++slot) {
    seeds.insert(diversified_config(base, slot, slot).seed);
  }
  EXPECT_EQ(seeds.size(), 9u);
  base.restart_base = 0;  // restarts disabled stays disabled in every slot
  for (std::size_t slot = 1; slot < 9; ++slot) {
    EXPECT_EQ(diversified_config(base, slot, slot).restart_base, 0u);
  }
}

class HeuristicAgreement
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HeuristicAgreement, EveryProfileMatchesBruteForce) {
  // Each diversification row must stay a *correct* solver, including the
  // previously dead random_decision_freq > 0 paths.
  const auto [slot, seed] = GetParam();
  const CnfFormula f = gen::random_ksat(
      13, 55, 3, static_cast<std::uint64_t>(seed) * 53 + 11);
  const bool truth = brute_force_solve(f).has_value();
  SolverConfig base;
  base.seed = static_cast<std::uint64_t>(seed);
  CdclSolver solver(
      f, diversified_config(base, static_cast<std::size_t>(slot), 0));
  const SolveStatus status = solver.solve();
  EXPECT_EQ(status, truth ? SolveStatus::kSat : SolveStatus::kUnsat)
      << "profile slot " << slot << " seed " << seed;
  if (status == SolveStatus::kSat) {
    EXPECT_TRUE(is_model(f, solver.model()));
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, HeuristicAgreement,
                         testing::Combine(testing::Range(0, 9),
                                          testing::Range(0, 3)));

}  // namespace
}  // namespace gridsat::solver
