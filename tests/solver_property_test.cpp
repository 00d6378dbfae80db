// Configuration-invariance properties: the verdict (and model validity)
// must not depend on heuristic knobs — restarts, decay schedule, phase
// saving, minimization, budget slicing — and must survive DIMACS round
// trips and noisy imports.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "cnf/dimacs.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "solver/brute_force.hpp"
#include "solver/cdcl.hpp"

namespace gridsat::solver {
namespace {

using cnf::CnfFormula;
using cnf::Lit;

struct Knobs {
  const char* name;
  SolverConfig config;
};

std::vector<Knobs> knob_matrix() {
  std::vector<Knobs> knobs;
  {
    SolverConfig c;
    knobs.push_back({"default", c});
  }
  {
    SolverConfig c;
    c.restart_base = 0;
    knobs.push_back({"no-restarts", c});
  }
  {
    SolverConfig c;
    c.restart_base = 64;
    knobs.push_back({"fast-restarts", c});
  }
  {
    SolverConfig c;
    c.decay_interval = 256;
    c.var_activity_decay = 0.5;
    knobs.push_back({"zchaff-decay", c});
  }
  {
    SolverConfig c;
    c.phase_saving = false;
    knobs.push_back({"no-phase-saving", c});
  }
  {
    SolverConfig c;
    c.minimize_learned = true;
    knobs.push_back({"minimize", c});
  }
  {
    SolverConfig c;
    c.reduce_base = 60;
    c.reduce_growth = 1.02;
    knobs.push_back({"aggressive-reduce", c});
  }
  return knobs;
}

class KnobInvariance : public testing::TestWithParam<int> {};

TEST_P(KnobInvariance, VerdictIndependentOfHeuristics) {
  const int seed = GetParam();
  const CnfFormula f = gen::random_ksat(15, 64, 3, seed * 101 + 13);
  const bool truth = brute_force_solve(f).has_value();
  for (const Knobs& k : knob_matrix()) {
    CdclSolver solver(f, k.config);
    const SolveStatus status = solver.solve();
    EXPECT_EQ(status, truth ? SolveStatus::kSat : SolveStatus::kUnsat)
        << k.name << " seed " << seed;
    if (status == SolveStatus::kSat) {
      EXPECT_TRUE(is_model(f, solver.model())) << k.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, KnobInvariance, testing::Range(0, 10));

class BudgetSlicing : public testing::TestWithParam<int> {};

TEST_P(BudgetSlicing, SliceSizeDoesNotChangeVerdict) {
  const std::uint64_t slice = static_cast<std::uint64_t>(GetParam());
  const CnfFormula f = gen::pigeonhole_unsat(6);
  CdclSolver solver(f);
  SolveStatus status = SolveStatus::kUnknown;
  while (status == SolveStatus::kUnknown) {
    status = solver.solve(slice);
  }
  EXPECT_EQ(status, SolveStatus::kUnsat);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BudgetSlicing,
                         testing::Values(1, 7, 100, 3001, 77777));

TEST(RoundTripTest, DimacsRoundTripPreservesSolverBehaviour) {
  for (int seed = 0; seed < 8; ++seed) {
    const CnfFormula f = gen::random_ksat(25, 106, 3, seed * 67 + 5);
    const CnfFormula g = cnf::parse_dimacs_string(cnf::to_dimacs_string(f));
    ASSERT_TRUE(f == g);
    CdclSolver a(f);
    CdclSolver b(g);
    EXPECT_EQ(a.solve(), b.solve());
    EXPECT_EQ(a.stats().decisions, b.stats().decisions);
    EXPECT_EQ(a.stats().work, b.stats().work);
  }
}

TEST(ImportNoiseTest, DuplicateAndTautologicalImportsTolerated) {
  const CnfFormula f = gen::random_ksat(20, 85, 3, 41);
  CdclSolver reference(f);
  const SolveStatus expected = reference.solve();

  CdclSolver noisy(f);
  std::vector<cnf::Clause> junk;
  junk.push_back({Lit(1, false), Lit(1, true)});            // tautology
  junk.push_back({Lit(2, false), Lit(3, false)});
  junk.push_back({Lit(2, false), Lit(3, false)});           // duplicate
  junk.push_back({Lit(4, false), Lit(4, false), Lit(5, true)});  // dup lit
  // Only import clauses implied by f? The tautology and duplicates are
  // universally valid or repeats of a clause implied only if f implies
  // it... use clauses from the reference solver to stay sound.
  std::vector<cnf::Clause> sound;
  CdclSolver donor(f);
  donor.set_share_callback([&](std::span<const cnf::Lit> c, std::uint32_t) {
    if (sound.size() < 20) sound.emplace_back(c.begin(), c.end());
  });
  donor.solve();
  noisy.import_clauses(  // tautology is always sound
      std::make_shared<const cnf::ClausePool>(cnf::ClausePool{junk[0]}));
  const auto batch = std::make_shared<const cnf::ClausePool>(sound);
  noisy.import_clauses(batch);
  noisy.import_clauses(batch);  // import everything twice
  const SolveStatus status = noisy.solve();
  EXPECT_EQ(status, expected);
  if (status == SolveStatus::kSat) {
    EXPECT_TRUE(is_model(f, noisy.model()));
  }
}

TEST(ModelStabilityTest, RepeatedSolveReturnsSameModel) {
  const CnfFormula f = gen::random_ksat_planted(30, 120, 3, 77);
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveStatus::kSat);
  const cnf::Assignment first = solver.model();
  ASSERT_EQ(solver.solve(), SolveStatus::kSat);
  EXPECT_TRUE(first == solver.model());
}

TEST(StatsConsistencyTest, WorkDominatesComponentCounts) {
  const CnfFormula f = gen::pigeonhole_unsat(7);
  CdclSolver solver(f);
  solver.solve();
  const auto& s = solver.stats();
  EXPECT_GE(s.work, s.propagations);
  EXPECT_GE(s.work, s.conflicts);
  EXPECT_GE(s.learned_clauses, s.deleted_clauses);
  EXPECT_GE(s.learned_literals, s.learned_clauses);  // >= 1 lit per clause
}

}  // namespace
}  // namespace gridsat::solver
