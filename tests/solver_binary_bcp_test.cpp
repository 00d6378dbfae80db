// The binary-clause fast path (BCP microarchitecture, DESIGN.md):
//   * binary implications propagate from the dedicated store;
//   * conflict analysis works with binary reason clauses (unordered: the
//     implied literal may sit in either slot);
//   * binary clauses survive split / import / export and DB maintenance
//     (reduce, emergency drop, garbage collection);
//   * check_invariants() covers both watcher stores;
//   * differential fuzzing against brute force and against the paper-era
//     learned-clause pipeline, biased toward formulas with many binary
//     clauses.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "cnf/formula.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "solver/brute_force.hpp"
#include "solver/cdcl.hpp"

namespace gridsat::solver {
namespace {

using cnf::CnfFormula;
using cnf::LBool;
using cnf::Lit;

/// A random mix of binary and ternary clauses: the clause population the
/// fast path exists for (binary learned/shared clauses dominate real
/// runs; here the problem clauses themselves are biased).
CnfFormula binary_heavy(cnf::Var num_vars, std::size_t num_binary,
                        std::size_t num_ternary, std::uint64_t seed) {
  const CnfFormula f2 = gen::random_ksat(num_vars, num_binary, 2, seed);
  const CnfFormula f3 =
      gen::random_ksat(num_vars, num_ternary, 3, seed * 31 + 17);
  CnfFormula f(num_vars);
  for (const auto& c : f2.clauses()) f.add_clause(c);
  for (const auto& c : f3.clauses()) f.add_clause(c);
  return f;
}

TEST(BinaryBcpTest, ChainPropagatesWithoutDecisions) {
  // V1 and a pure-binary chain V1 -> V2 -> ... -> V8.
  CnfFormula f;
  f.add_dimacs_clause({1});
  for (int v = 1; v < 8; ++v) f.add_dimacs_clause({-v, v + 1});
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveStatus::kSat);
  for (cnf::Var v = 1; v <= 8; ++v) EXPECT_EQ(solver.model()[v], LBool::kTrue);
  EXPECT_EQ(solver.stats().decisions, 0u);
}

TEST(BinaryBcpTest, BinaryConflictAtLevelZeroIsUnsat) {
  // V1 -> V2, V1 -> ~V2, plus the unit V1: refuted by binary BCP alone.
  CnfFormula f;
  f.add_dimacs_clause({1});
  f.add_dimacs_clause({-1, 2});
  f.add_dimacs_clause({-1, -2});
  CdclSolver solver(f);
  EXPECT_EQ(solver.solve(), SolveStatus::kUnsat);
}

TEST(BinaryBcpTest, FastPathActuallyTaken) {
  CdclSolver solver(gen::pigeonhole_unsat(6));
  EXPECT_EQ(solver.solve(), SolveStatus::kUnsat);
  // Pigeonhole's at-most-one constraints are all binary, so the bulk of
  // propagation must flow through the binary store.
  EXPECT_GT(solver.stats().binary_propagations, 0u);
  EXPECT_GT(solver.stats().binary_propagations,
            solver.stats().propagations / 2);
}

TEST(BinaryBcpTest, ConflictAnalysisWithBinaryReasons) {
  // A conflict whose implication graph is all binary edges: the decision
  // V1 implies V2, V3 via binaries and clause (~V2 ~V3) conflicts. The
  // learned clause must be the unit ~V1 (FirstUIP = the decision).
  CnfFormula f;
  f.add_dimacs_clause({-1, 2});
  f.add_dimacs_clause({-1, 3});
  f.add_dimacs_clause({-2, -3});
  f.add_dimacs_clause({1, 4});  // keep the instance SAT overall
  std::optional<ConflictRecord> record;
  CdclSolver solver(f);
  solver.set_conflict_observer([&](const ConflictRecord& rec) {
    if (!record.has_value()) record = rec;
  });
  solver.set_decision_hook(
      [used = false]() mutable { return used ? cnf::kUndefLit : (used = true, Lit(1, false)); });
  ASSERT_EQ(solver.solve(), SolveStatus::kSat);
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->learned_clause.size(), 1u);
  EXPECT_EQ(record->learned_clause[0], Lit(1, true));
  EXPECT_EQ(solver.model()[1], LBool::kFalse);
}

TEST(BinaryBcpTest, InvariantsHoldOverBothStores) {
  // Binary clauses live in the implication store, longer ones in the
  // general watch lists; check_invariants() cross-checks both.
  CdclSolver solver(binary_heavy(30, 45, 80, 11));
  SolveStatus status = SolveStatus::kUnknown;
  int slices = 0;
  while (status == SolveStatus::kUnknown && slices < 50) {
    status = solver.solve(1000);
    EXPECT_EQ(solver.check_invariants(), "") << "slice " << slices;
    ++slices;
  }
}

TEST(BinaryBcpTest, DbMaintenanceKeepsBinaryStoreCoherent) {
  // Tiny reduce threshold: many reduce_db() + garbage_collect() rounds
  // while binary learned clauses (exempt from reduction) accumulate.
  SolverConfig config;
  config.reduce_base = 20;
  config.reduce_growth = 1.0;
  // pigeonhole-6: hard enough to force many reduce rounds at this cap,
  // small enough to still refute while the learned DB is thrashing.
  CdclSolver solver(gen::pigeonhole_unsat(6), config);
  SolveStatus status = SolveStatus::kUnknown;
  int slices = 0;
  while (status == SolveStatus::kUnknown && slices < 200) {
    status = solver.solve(5000);
    ASSERT_EQ(solver.check_invariants(), "") << "slice " << slices;
    ++slices;
  }
  EXPECT_EQ(status, SolveStatus::kUnsat);
  EXPECT_GT(solver.stats().db_reductions, 0u);
}

TEST(BinaryBcpTest, EmergencyDropDetachesBinaries) {
  // Force the memory squeeze path (drop_all_learned drops learned
  // binaries too) and verify the stores stay coherent.
  SolverConfig config;
  config.memory_limit_bytes = 48 * 1024;
  CdclSolver solver(gen::pigeonhole_unsat(9), config);
  const SolveStatus status = solver.solve(50'000'000);
  EXPECT_NE(status, SolveStatus::kUnknown);
  EXPECT_EQ(solver.check_invariants(), "");
}

TEST(BinaryBcpTest, SplitCarriesBinaryClauses) {
  int splits_seen = 0;
  // Pigeonhole instances are dominated by binary at-most-one clauses and
  // never resolve within a few small slices, so they reliably exercise
  // split(): the subproblem must carry its binary store faithfully.
  for (int n : {6, 7}) {
    CdclSolver a(gen::pigeonhole_unsat(n));
    std::optional<Subproblem> other;
    for (int attempts = 0; attempts < 5000 && !other.has_value(); ++attempts) {
      if (a.solve(100) != SolveStatus::kUnknown) break;
      if (a.can_split()) other = a.split();
    }
    ASSERT_TRUE(other.has_value()) << "pigeonhole-" << n << " never split";
    ++splits_seen;
    CdclSolver b(*other);
    EXPECT_EQ(b.check_invariants(), "");
    EXPECT_EQ(a.solve(), SolveStatus::kUnsat) << "pigeonhole-" << n;
    EXPECT_EQ(b.solve(), SolveStatus::kUnsat) << "pigeonhole-" << n;
  }
  // Random binary-heavy formulas: most resolve before a split is possible,
  // but any split that does occur must preserve the combined verdict.
  for (int seed = 0; seed < 20; ++seed) {
    const CnfFormula f = binary_heavy(16, 20, 45, seed * 13 + 3);
    const bool truth = brute_force_solve(f).has_value();
    CdclSolver a(f);
    std::optional<Subproblem> other;
    for (int attempts = 0; attempts < 2000 && !other.has_value(); ++attempts) {
      if (a.solve(200) != SolveStatus::kUnknown) break;
      if (a.can_split()) other = a.split();
    }
    if (!other.has_value()) continue;  // resolved before splitting; fine
    ++splits_seen;
    CdclSolver b(*other);
    EXPECT_EQ(b.check_invariants(), "");
    const SolveStatus sa = a.solve();
    const SolveStatus sb = b.solve();
    ASSERT_NE(sa, SolveStatus::kUnknown);
    ASSERT_NE(sb, SolveStatus::kUnknown);
    const bool combined = (sa == SolveStatus::kSat) || (sb == SolveStatus::kSat);
    EXPECT_EQ(combined, truth) << "seed " << seed;
  }
  EXPECT_GT(splits_seen, 0) << "sweep never exercised a split";
}

TEST(BinaryBcpTest, ExportedBinariesImportSoundly) {
  // Learned binaries exported by one solver import into a fresh solver
  // on the same formula without changing its verdict.
  for (int seed = 0; seed < 10; ++seed) {
    const CnfFormula f = binary_heavy(18, 24, 50, seed * 7 + 1);
    const bool truth = brute_force_solve(f).has_value();
    CdclSolver exporter(f);
    std::vector<cnf::Clause> shared;
    exporter.set_share_callback(
        [&](std::span<const cnf::Lit> c, std::uint32_t) {
          if (c.size() <= 2) shared.emplace_back(c.begin(), c.end());
        });
    (void)exporter.solve();
    CdclSolver importer(f);
    importer.import_clauses(std::make_shared<const cnf::ClausePool>(shared));
    const SolveStatus status = importer.solve();
    EXPECT_EQ(importer.check_invariants(), "");
    EXPECT_EQ(status == SolveStatus::kSat, truth) << "seed " << seed;
    if (status == SolveStatus::kSat) {
      EXPECT_TRUE(is_model(f, importer.model()));
    }
  }
}

// --- Differential fuzz: binary-biased formulas -----------------------------
// Brute force is the reference. The ablated solver runs the paper-era
// learned-clause pipeline (no minimization, no on-the-fly subsumption)
// over the same binary store, so a strengthening step that corrupts a
// binary reason shows up as a verdict or model disagreement.

class BinaryBcpFuzz : public testing::TestWithParam<int> {};

TEST_P(BinaryBcpFuzz, AgreesWithBruteForceAndAblation) {
  const int seed = GetParam();
  // Around the mixed 2+3-SAT phase transition so both verdicts occur.
  const CnfFormula f = binary_heavy(12, 14, 32, static_cast<std::uint64_t>(seed) * 6151 + 29);
  const auto truth = brute_force_solve(f);

  CdclSolver full(f);
  SolverConfig ablated_config;
  ablated_config.minimize_learned = false;
  ablated_config.otf_subsume = false;
  CdclSolver ablated(f, ablated_config);

  const SolveStatus full_status = full.solve();
  const SolveStatus ablated_status = ablated.solve();
  EXPECT_EQ(full_status, ablated_status) << "seed " << seed;
  EXPECT_EQ(full_status,
            truth.has_value() ? SolveStatus::kSat : SolveStatus::kUnsat)
      << "seed " << seed;
  EXPECT_EQ(full.check_invariants(), "");
  EXPECT_EQ(ablated.check_invariants(), "");
  if (full_status == SolveStatus::kSat) {
    EXPECT_TRUE(is_model(f, full.model()));
    EXPECT_TRUE(is_model(f, ablated.model()));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BinaryBcpFuzz, testing::Range(0, 40));

}  // namespace
}  // namespace gridsat::solver
