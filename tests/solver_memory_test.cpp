// Memory-pressure behaviour of the solver: squeeze semantics, the
// no-squeeze (2003 comparator) semantics, the emergency escalation, and —
// crucially — that destroying learned clauses under pressure never
// changes a verdict (learned clauses are redundant, §2.2: "learned
// clauses can be discarded without effecting the satisfiability").
#include <gtest/gtest.h>

#include <memory>

#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "solver/brute_force.hpp"
#include "solver/cdcl.hpp"

namespace gridsat::solver {
namespace {

TEST(MemorySemanticsTest, NoSqueezeDiesOnFirstOverflow) {
  SolverConfig config;
  config.reduce_base = 1u << 30;
  config.memory_limit_bytes = 64 * 1024;
  config.allow_memory_squeeze = false;
  CdclSolver solver(gen::pigeonhole_unsat(8), config);
  EXPECT_EQ(solver.solve(), SolveStatus::kMemOut);
  EXPECT_EQ(solver.stats().db_reductions, 0u);
}

TEST(MemorySemanticsTest, BoundedSqueezesEventuallyMemOut) {
  SolverConfig config;
  config.memory_limit_bytes = 40 * 1024;
  config.max_memory_squeezes = 4;
  CdclSolver solver(gen::pigeonhole_unsat(9), config);
  EXPECT_EQ(solver.solve(500'000'000), SolveStatus::kMemOut);
}

TEST(MemorySemanticsTest, UnlimitedSqueezesStayAliveAndStayCorrect) {
  // PHP(8,7) is refutable even when the DB is capped absurdly low; the
  // solver thrashes but must still terminate with the right answer.
  SolverConfig config;
  config.memory_limit_bytes = 48 * 1024;
  config.max_memory_squeezes = 0;
  CdclSolver solver(gen::pigeonhole_unsat(7), config);
  EXPECT_EQ(solver.solve(), SolveStatus::kUnsat);
  EXPECT_GT(solver.stats().db_reductions, 0u);
}

class SqueezeCorrectnessSweep : public testing::TestWithParam<int> {};

TEST_P(SqueezeCorrectnessSweep, VerdictUnchangedUnderMemoryPressure) {
  const int seed = GetParam();
  const auto f = gen::random_ksat(14, 59, 3, seed * 227 + 9);
  const bool truth = brute_force_solve(f).has_value();

  SolverConfig squeezed;
  squeezed.memory_limit_bytes = 8 * 1024;  // brutal
  squeezed.max_memory_squeezes = 0;
  CdclSolver solver(f, squeezed);
  const SolveStatus status = solver.solve();
  EXPECT_EQ(status, truth ? SolveStatus::kSat : SolveStatus::kUnsat)
      << "seed " << seed;
  if (status == SolveStatus::kSat) {
    EXPECT_TRUE(is_model(f, solver.model()));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SqueezeCorrectnessSweep, testing::Range(0, 15));

TEST(MemorySemanticsTest, SqueezeWithSharingStillSound) {
  // Clauses exported before a squeeze must remain valid even though the
  // exporter later deleted them.
  const auto f = gen::pigeonhole_unsat(6);
  SolverConfig config;
  config.memory_limit_bytes = 24 * 1024;
  config.max_memory_squeezes = 0;
  CdclSolver donor(f, config);
  std::vector<cnf::Clause> shared;
  donor.set_share_callback([&](std::span<const cnf::Lit> c, std::uint32_t) {
    if (c.size() <= 8 && shared.size() < 100) {
      shared.emplace_back(c.begin(), c.end());
    }
  });
  EXPECT_EQ(donor.solve(), SolveStatus::kUnsat);
  ASSERT_FALSE(shared.empty());

  CdclSolver receiver(f);
  receiver.import_clauses(std::make_shared<const cnf::ClausePool>(shared));
  EXPECT_EQ(receiver.solve(), SolveStatus::kUnsat);
}

TEST(MemorySemanticsTest, PeakBytesRespectsCap) {
  SolverConfig config;
  config.memory_limit_bytes = 256 * 1024;
  config.max_memory_squeezes = 0;
  config.reduce_base = 1u << 30;
  CdclSolver solver(gen::pigeonhole_unsat(8), config);
  (void)solver.solve(20'000'000);
  // The arena may overshoot transiently within one conflict, but the
  // recorded peak stays within the limit plus one clause's worth.
  EXPECT_LT(solver.stats().peak_db_bytes, 320 * 1024u);
}

}  // namespace
}  // namespace gridsat::solver
