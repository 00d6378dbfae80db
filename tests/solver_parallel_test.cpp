// Thread-parallel solver tests: verdict agreement with brute force /
// sequential CDCL across thread counts, model validity, split/share
// bookkeeping, memory-out shutdown, and stress with many small
// subproblems.
#include <gtest/gtest.h>

#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "gen/xor_chains.hpp"
#include "solver/brute_force.hpp"
#include "solver/parallel.hpp"

namespace gridsat::solver {
namespace {

using cnf::CnfFormula;

ParallelOptions options_with(std::size_t threads,
                             std::uint64_t slice = 20'000) {
  ParallelOptions options;
  options.num_threads = threads;
  options.slice_work = slice;  // small slices force cooperation paths
  return options;
}

class ParallelAgreement
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelAgreement, MatchesBruteForce) {
  const auto [threads, seed] = GetParam();
  const CnfFormula f = gen::random_ksat(
      14, 59, 3, static_cast<std::uint64_t>(seed) * 149 + 17);
  const bool truth = brute_force_solve(f).has_value();
  ParallelSolver solver(f, options_with(static_cast<std::size_t>(threads)));
  const ParallelResult result = solver.solve();
  ASSERT_NE(result.status, SolveStatus::kUnknown);
  EXPECT_EQ(result.status,
            truth ? SolveStatus::kSat : SolveStatus::kUnsat)
      << "threads " << threads << " seed " << seed;
  if (result.status == SolveStatus::kSat) {
    EXPECT_TRUE(is_model(f, result.model));
  }
  EXPECT_EQ(result.stats.threads, static_cast<std::size_t>(threads));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelAgreement,
                         testing::Combine(testing::Values(1, 2, 4),
                                          testing::Range(0, 8)));

TEST(ParallelSolverTest, HardUnsatSplitsAcrossWorkers) {
  const CnfFormula f = gen::pigeonhole_unsat(8);
  ParallelSolver solver(f, options_with(4, 50'000));
  const ParallelResult result = solver.solve();
  EXPECT_EQ(result.status, SolveStatus::kUnsat);
  EXPECT_GT(result.stats.splits, 0u);
  EXPECT_GT(result.stats.subproblems_refuted, 1u);
  EXPECT_GT(result.stats.total_work, 0u);
}

TEST(ParallelSolverTest, SharingHappens) {
  const CnfFormula f = gen::urquhart_like(12, 3);
  ParallelSolver solver(f, options_with(3, 30'000));
  const ParallelResult result = solver.solve();
  EXPECT_EQ(result.status, SolveStatus::kUnsat);
  EXPECT_GT(result.stats.clauses_published, 0u);
}

TEST(ParallelSolverTest, SatisfiableInstanceYieldsVerifiedModel) {
  const CnfFormula f = gen::random_ksat_planted(80, 330, 3, 5);
  ParallelSolver solver(f, options_with(4));
  const ParallelResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kSat);
  EXPECT_TRUE(is_model(f, result.model));
}

TEST(ParallelSolverTest, TrivialInstances) {
  CnfFormula empty(3);
  ParallelSolver a(empty, options_with(2));
  EXPECT_EQ(a.solve().status, SolveStatus::kSat);

  CnfFormula contradiction;
  contradiction.add_dimacs_clause({1});
  contradiction.add_dimacs_clause({-1});
  ParallelSolver b(contradiction, options_with(2));
  EXPECT_EQ(b.solve().status, SolveStatus::kUnsat);
}

TEST(ParallelSolverTest, RepeatedRunsAgreeOnVerdict) {
  // Timing nondeterminism must never flip a verdict.
  const CnfFormula f = gen::random_ksat(16, 70, 3, 321);
  const bool truth = brute_force_solve(f).has_value();
  for (int run = 0; run < 5; ++run) {
    ParallelSolver solver(f, options_with(4, 10'000));
    EXPECT_EQ(solver.solve().status,
              truth ? SolveStatus::kSat : SolveStatus::kUnsat)
        << "run " << run;
  }
}

TEST(ParallelSolverTest, MemOutStopsEveryWorker) {
  // The solver config that dies on its first DB overflow (see
  // MemorySemanticsTest.NoSqueezeDiesOnFirstOverflow): the first worker to
  // overflow must end the whole solve, waking the idle workers and
  // cancelling the busy ones, so solve() returns kMemOut and joins.
  const CnfFormula f = gen::pigeonhole_unsat(8);
  ParallelOptions options = options_with(4, 2'000);
  options.solver.reduce_base = 1u << 30;
  options.solver.memory_limit_bytes = 64 * 1024;
  options.solver.allow_memory_squeeze = false;
  ParallelSolver solver(f, options);
  const ParallelResult result = solver.solve();
  EXPECT_EQ(result.status, SolveStatus::kMemOut);
  EXPECT_EQ(result.stats.threads, 4u);
}

}  // namespace
}  // namespace gridsat::solver
