// Reproduces the paper's §2.3 / Figure 1 walkthrough literally:
//   * clause 9 puts V14 at decision level 0,
//   * the scripted decisions V10, V7, ~V8, ~V9, V6, V11 cascade at level 6
//     into a conflict on V3 (clauses 6 and 7),
//   * FirstUIP is V5; the learned clause is ~V10 + ~V7 + V8 + V9 + ~V5,
//   * the solver backjumps to level 4 (the level of ~V9),
//   * after the backjump the learned clause implies ~V5 at level 4,
// and the Figure-2 split pruning: client A removes clauses 8 and 9;
// client B (branch ~V10) removes clause 7, clause 9, and the learned
// clause.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "gen/paper_example.hpp"
#include "solver/brute_force.hpp"
#include "solver/cdcl.hpp"

namespace gridsat::solver {
namespace {

using cnf::LBool;
using cnf::Lit;

class PaperExampleTest : public testing::Test {
 protected:
  void SetUp() override {
    formula_ = gen::paper_example_formula();
    decisions_ = gen::paper_example_decisions();
  }

  /// Run a solver with the scripted decisions until the first conflict
  /// has been analyzed, returning the record.
  ConflictRecord run_to_first_conflict(CdclSolver& solver) {
    std::size_t next = 0;
    solver.set_decision_hook([&]() {
      return next < decisions_.size() ? decisions_[next++] : cnf::kUndefLit;
    });
    std::optional<ConflictRecord> record;
    solver.set_conflict_observer([&](const ConflictRecord& rec) {
      if (!record.has_value()) record = rec;
    });
    while (!record.has_value()) {
      const SolveStatus status = solver.solve(1);
      if (status != SolveStatus::kUnknown) break;
    }
    // Both hooks capture locals of this function by reference; detach them
    // before returning so later solve() calls on the same solver don't
    // invoke dangling captures.
    solver.set_decision_hook({});
    solver.set_conflict_observer({});
    EXPECT_TRUE(record.has_value()) << "scripted run produced no conflict";
    return record.value_or(ConflictRecord{});
  }

  cnf::CnfFormula formula_;
  std::vector<Lit> decisions_;
};

TEST_F(PaperExampleTest, UnitClausePutsV14AtLevelZero) {
  CdclSolver solver(formula_);
  (void)solver.solve(1);  // at least one propagation pass
  EXPECT_EQ(solver.value(14), LBool::kTrue);
  EXPECT_EQ(solver.level_of(14), 0u);
}

TEST_F(PaperExampleTest, ScriptedDecisionsCascadeToConflictAtLevel6) {
  CdclSolver solver(formula_);
  const ConflictRecord rec = run_to_first_conflict(solver);
  EXPECT_EQ(rec.conflict_level, 6u);
  // The conflicting clause is clause 6 or clause 7 (both imply V3, to
  // opposite values).
  const bool mentions_v3 =
      std::any_of(rec.conflicting_clause.begin(), rec.conflicting_clause.end(),
                  [](Lit l) { return l.var() == 3; });
  EXPECT_TRUE(mentions_v3);
}

TEST_F(PaperExampleTest, FirstUipIsV5) {
  CdclSolver solver(formula_);
  const ConflictRecord rec = run_to_first_conflict(solver);
  EXPECT_EQ(rec.uip, Lit(5, false)) << "FirstUIP should be the V5 assignment";
}

TEST_F(PaperExampleTest, LearnedClauseMatchesPaper) {
  CdclSolver solver(formula_);
  const ConflictRecord rec = run_to_first_conflict(solver);
  // ~V10 + ~V7 + V8 + V9 + ~V5, with the asserting literal ~V5 first.
  ASSERT_EQ(rec.learned_clause.size(), 5u);
  EXPECT_EQ(rec.learned_clause[0], Lit(5, true));
  std::vector<Lit> rest(rec.learned_clause.begin() + 1,
                        rec.learned_clause.end());
  std::sort(rest.begin(), rest.end());
  std::vector<Lit> expected{Lit(7, true), Lit(8, false), Lit(9, false),
                            Lit(10, true)};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(rest, expected);
}

TEST_F(PaperExampleTest, BackjumpsToLevelFour) {
  CdclSolver solver(formula_);
  const ConflictRecord rec = run_to_first_conflict(solver);
  EXPECT_EQ(rec.backjump_level, 4u) << "the level of the ~V9 decision";
}

TEST_F(PaperExampleTest, LearnedClauseImpliesNotV5AfterBackjump) {
  CdclSolver solver(formula_);
  (void)run_to_first_conflict(solver);
  // Immediately after the conflict is handled the solver sits at level 4
  // with ~V5 implied by the learned clause (the paper's closing remark of
  // §2.3).
  EXPECT_EQ(solver.decision_level(), 4u);
  EXPECT_EQ(solver.value(5), LBool::kFalse);
  EXPECT_EQ(solver.level_of(5), 4u);
}

TEST_F(PaperExampleTest, InstanceIsSatisfiableInTheEnd) {
  const auto truth = brute_force_solve(formula_);
  ASSERT_TRUE(truth.has_value());
  CdclSolver solver(formula_);
  ASSERT_EQ(solver.solve(), SolveStatus::kSat);
  EXPECT_TRUE(is_model(formula_, solver.model()));
}

TEST_F(PaperExampleTest, Figure2SplitPrunesAsDescribed) {
  // Drive to the post-conflict state (stack of Figure 2), then split.
  CdclSolver solver(formula_);
  (void)run_to_first_conflict(solver);
  ASSERT_TRUE(solver.can_split());
  const std::size_t clauses_before = 9;  // original formula

  const Subproblem branch_b = solver.split();
  // Client B's units: V14 (level 0) plus the tainted assumption ~V10.
  ASSERT_EQ(branch_b.units.size(), 2u);
  EXPECT_EQ(branch_b.units[0].lit, Lit(14, false));
  EXPECT_FALSE(branch_b.units[0].tainted);
  EXPECT_EQ(branch_b.units[1].lit, Lit(10, true));
  EXPECT_TRUE(branch_b.units[1].tainted);

  // The shipped clause set already excludes clause 9 (satisfied by V14 at
  // the donor's level 0).
  EXPECT_LT(branch_b.clauses.size(), clauses_before + 1);
  for (const auto& clause : branch_b.clauses) {
    EXPECT_FALSE(std::ranges::equal(clause, cnf::Clause{Lit(14, false)}))
        << "clause 9 should have been pruned from the split payload";
  }

  // Client B prunes clauses satisfied by ~V10 on arrival: clause 7 and
  // the learned clause (and, in this reconstruction, clause 8 too).
  CdclSolver client_b(branch_b);
  (void)client_b.solve(1);
  EXPECT_EQ(client_b.value(10), LBool::kFalse);
  EXPECT_TRUE(client_b.tainted(10));

  // Client A folded level 1 into level 0: V10 and ~V13 now live at level
  // 0 and V10 is tainted (it was a decision turned assumption).
  EXPECT_EQ(solver.value(10), LBool::kTrue);
  EXPECT_EQ(solver.level_of(10), 0u);
  EXPECT_TRUE(solver.tainted(10));
  EXPECT_EQ(solver.value(13), LBool::kFalse);
  EXPECT_EQ(solver.level_of(13), 0u);

  // Both branches resolve, and exactly one of them is where the model
  // lives (the formula is SAT; the split partitions the space).
  const SolveStatus status_a = solver.solve();
  const SolveStatus status_b = client_b.solve();
  EXPECT_TRUE(status_a == SolveStatus::kSat || status_b == SolveStatus::kSat);
}

TEST_F(PaperExampleTest, SplitClientAKeepsSearchingBelowFold) {
  // After the fold client A's remaining decision levels shift down by
  // one: old level 2 (V7) becomes level 1, etc.
  CdclSolver solver(formula_);
  (void)run_to_first_conflict(solver);
  (void)solver.split();
  EXPECT_EQ(solver.level_of(7), 1u);
  EXPECT_EQ(solver.level_of(8), 2u);
  EXPECT_EQ(solver.level_of(9), 3u);
  EXPECT_EQ(solver.decision_level(), 3u);
  EXPECT_EQ(solver.check_invariants(), "");
}

}  // namespace
}  // namespace gridsat::solver
