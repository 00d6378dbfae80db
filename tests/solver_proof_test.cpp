// Proof logging / checking tests: recorded refutations verify; corrupted
// ones are rejected; every clause a split solver shares is RUP against
// the ORIGINAL formula (the mechanical witness of GridSAT's sharing
// soundness); DRAT rendering round-trips basics.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "gen/graph_color.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "gen/xor_chains.hpp"
#include "solver/brute_force.hpp"
#include "solver/cdcl.hpp"
#include "solver/parallel.hpp"
#include "solver/proof.hpp"

namespace gridsat::solver {
namespace {

using cnf::CnfFormula;
using cnf::Lit;

SolverConfig proof_config() {
  SolverConfig config;
  config.log_proof = true;
  return config;
}

// Tests that need the solver itself to emit DRUP steps are meaningless
// when the hooks are compiled out (-DGRIDSAT_PROOF=OFF).
#define REQUIRE_PROOF_HOOKS() \
  if (!kProofCompiledIn) GTEST_SKIP() << "GRIDSAT_PROOF is off"

TEST(ProofTest, PigeonholeRefutationChecks) {
  REQUIRE_PROOF_HOOKS();
  const CnfFormula f = gen::pigeonhole_unsat(5);
  CdclSolver solver(f, proof_config());
  ASSERT_EQ(solver.solve(), SolveStatus::kUnsat);
  ASSERT_TRUE(solver.proof().ends_with_empty_clause());
  const ProofCheckResult result = check_unsat_proof(f, solver.proof());
  EXPECT_TRUE(result.valid) << result.message;
  EXPECT_GT(result.steps_checked, 0u);
}

TEST(ProofTest, TrivialContradictionChecks) {
  REQUIRE_PROOF_HOOKS();
  CnfFormula f;
  f.add_dimacs_clause({1});
  f.add_dimacs_clause({-1});
  CdclSolver solver(f, proof_config());
  ASSERT_EQ(solver.solve(), SolveStatus::kUnsat);
  const ProofCheckResult result = check_unsat_proof(f, solver.proof());
  EXPECT_TRUE(result.valid) << result.message;
}

class ProofSweep : public testing::TestWithParam<int> {};

TEST_P(ProofSweep, RandomUnsatRefutationsCheck) {
  REQUIRE_PROOF_HOOKS();
  const int seed = GetParam();
  const CnfFormula f = gen::random_ksat(16, 90, 3, seed * 523 + 7);
  CdclSolver solver(f, proof_config());
  if (solver.solve() != SolveStatus::kUnsat) {
    GTEST_SKIP() << "instance happens to be SAT";
  }
  const ProofCheckResult result = check_unsat_proof(f, solver.proof());
  EXPECT_TRUE(result.valid) << result.message << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProofSweep, testing::Range(0, 10));

TEST(ProofTest, ProofWithDbReductionsStillChecks) {
  REQUIRE_PROOF_HOOKS();
  // Force reductions mid-run so deletion steps appear in the log.
  const CnfFormula f = gen::pigeonhole_unsat(7);
  SolverConfig config = proof_config();
  config.reduce_base = 50;
  config.reduce_growth = 1.05;
  CdclSolver solver(f, config);
  ASSERT_EQ(solver.solve(), SolveStatus::kUnsat);
  bool has_deletion = false;
  for (const auto& step : solver.proof().steps()) {
    has_deletion |= step.deletion;
  }
  EXPECT_TRUE(has_deletion) << "expected deletion steps in the log";
  const ProofCheckResult result = check_unsat_proof(f, solver.proof());
  EXPECT_TRUE(result.valid) << result.message;
}

TEST(ProofTest, CorruptedProofRejected) {
  const CnfFormula f = gen::pigeonhole_unsat(5);
  CdclSolver solver(f, proof_config());
  ASSERT_EQ(solver.solve(), SolveStatus::kUnsat);

  // Tamper: inject a clause that is NOT implied (a fresh unit that the
  // formula does not force).
  ProofLog tampered;
  tampered.add(cnf::Clause{Lit(1, false)});
  for (const auto& step : solver.proof().steps()) {
    if (step.deletion) {
      tampered.remove(step.clause);
    } else {
      tampered.add(step.clause);
    }
  }
  // The injected unit may or may not be RUP for this formula; assert the
  // checker at least never crashes and the real proof still validates.
  (void)check_unsat_proof(f, tampered);

  // A proof that never reaches the empty clause must be rejected.
  ProofLog truncated;
  for (const auto& step : solver.proof().steps()) {
    if (!step.deletion && step.clause.empty()) break;
    if (step.deletion) {
      truncated.remove(step.clause);
    } else {
      truncated.add(step.clause);
    }
  }
  const ProofCheckResult result = check_unsat_proof(f, truncated);
  EXPECT_FALSE(result.valid);
  EXPECT_FALSE(result.message.empty());
}

TEST(ProofTest, NonRupInjectionFails) {
  // V1..V3 free: the unit clause (V1) is not RUP for the empty formula.
  CnfFormula f(3);
  f.add_dimacs_clause({1, 2});
  ProofLog bogus;
  bogus.add(cnf::Clause{Lit(3, false)});
  bogus.add_empty();
  const ProofCheckResult result = check_unsat_proof(f, bogus);
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.failed_step, 0u);
}

TEST(ProofTest, IsRupBasics) {
  // {(a+b), (~a+b)} makes (b) RUP; (a) is not.
  std::vector<cnf::Clause> db{{Lit(1, false), Lit(2, false)},
                              {Lit(1, true), Lit(2, false)}};
  EXPECT_TRUE(is_rup(db, 2, {Lit(2, false)}));
  EXPECT_FALSE(is_rup(db, 2, {Lit(1, false)}));
  // Tautologies are trivially fine.
  EXPECT_TRUE(is_rup(db, 2, {Lit(1, false), Lit(1, true)}));
}

TEST(ProofTest, SharedClausesFromSplitSolversAreRupAgainstOriginal) {
  // The GridSAT sharing-soundness witness: run a solver, split it twice,
  // and check every clause either branch exports against the ORIGINAL
  // formula extended by previously exported clauses.
  const CnfFormula f = gen::pigeonhole_unsat(6);
  std::vector<cnf::Clause> database = f.clauses();
  std::size_t checked = 0;
  bool all_rup = true;
  const auto checker = [&](const cnf::Clause& c, std::uint32_t) {
    // Append in causal order: a clause may resolve on earlier learned
    // clauses (including ones the donor learned before the split, which
    // the branch inherits), so the checker database must contain every
    // export that preceded it.
    if (checked < 60) {
      ++checked;
      if (!is_rup(database, f.num_vars(), c)) all_rup = false;
    }
    database.push_back(c);
  };
  CdclSolver a(f);
  a.set_share_callback(checker);
  // advance to a splittable state
  while (!a.can_split() && a.solve(200) == SolveStatus::kUnknown) {
  }
  ASSERT_TRUE(a.can_split());
  const Subproblem branch = a.split();
  CdclSolver b(branch);
  b.set_share_callback(checker);
  (void)b.solve(400'000);
  (void)a.solve(400'000);
  ASSERT_GT(checked, 0u);
  EXPECT_TRUE(all_rup)
      << "a split solver exported a clause not implied-by-UP from the "
         "original formula";
}

TEST(ProofTest, ImportedClausesKeepExportsRupAgainstOriginal) {
  // The import-path mirror of the split-export test above: clauses flow
  // donor -> SharedClausePool -> importing branch solver, and everything
  // the importer subsequently exports must still be RUP against the
  // ORIGINAL formula extended by previously exported clauses — imported
  // clauses become antecedents of the importer's learned clauses, so an
  // unsound import would surface here.
  const CnfFormula f = gen::pigeonhole_unsat(6);
  std::vector<cnf::Clause> database = f.clauses();
  std::size_t checked = 0;
  bool all_rup = true;
  const auto checker = [&](const cnf::Clause& c, std::uint32_t) {
    if (checked < 60) {
      ++checked;
      if (!is_rup(database, f.num_vars(), c)) all_rup = false;
    }
    database.push_back(c);
  };

  SharedClausePool pool(2);
  CdclSolver donor(f);
  donor.set_share_callback([&](const cnf::Clause& c, std::uint32_t lbd) {
    checker(c, lbd);
    pool.publish(0, {SharedClause{c, lbd}});
  });
  while (!donor.can_split() && donor.solve(200) == SolveStatus::kUnknown) {
  }
  ASSERT_TRUE(donor.can_split());
  const Subproblem branch = donor.split();
  (void)donor.solve(150'000);  // populate the pool with donor exports

  CdclSolver importer(branch);
  importer.set_share_callback(checker);
  auto cursor = pool.make_cursor();
  std::vector<SharedClause> incoming;
  ASSERT_GT(pool.collect(/*self=*/1, cursor, incoming), 0u);
  std::vector<cnf::Clause> fresh;
  for (SharedClause& sc : incoming) fresh.push_back(std::move(sc.lits));
  importer.import_clauses(std::move(fresh));
  (void)importer.solve(400'000);
  ASSERT_GT(checked, 0u);
  EXPECT_TRUE(all_rup)
      << "an importing split solver exported a clause not implied-by-UP "
         "from the original formula";
}

// --- ProofChecker (the watched-literal checker behind certify()) -------

TEST(ProofCheckerTest, AgreesWithReferenceCheckerOnRealProofs) {
  REQUIRE_PROOF_HOOKS();
  // certify() must accept exactly what the naive reference checker
  // accepts on solver-produced refutations, including ones with
  // deletions.
  SolverConfig config = proof_config();
  config.reduce_base = 50;
  config.reduce_growth = 1.05;
  for (const int n : {5, 6}) {
    const CnfFormula f = gen::pigeonhole_unsat(n);
    CdclSolver solver(f, config);
    ASSERT_EQ(solver.solve(), SolveStatus::kUnsat);
    const ProofCheckResult naive = check_unsat_proof(f, solver.proof());
    const ProofCheckResult fast = certify(f, solver.proof());
    EXPECT_TRUE(naive.valid) << naive.message;
    EXPECT_TRUE(fast.valid) << fast.message;
    EXPECT_EQ(naive.steps_checked, fast.steps_checked);
  }
}

TEST(ProofCheckerTest, RejectsWhatTheReferenceCheckerRejects) {
  CnfFormula f(3);
  f.add_dimacs_clause({1, 2});
  ProofLog bogus;
  bogus.add(cnf::Clause{Lit(3, false)});  // free variable: not RUP
  bogus.add_empty();
  const ProofCheckResult result = certify(f, bogus);
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.failed_step, 0u);

  ProofLog truncated;  // never derives the empty clause
  truncated.add(cnf::Clause{Lit(1, false)});
  const ProofCheckResult t = certify(f, truncated);
  EXPECT_FALSE(t.valid);
  EXPECT_FALSE(t.message.empty());
}

TEST(ProofCheckerTest, RandomSweepAgreement) {
  for (int seed = 0; seed < 10; ++seed) {
    const CnfFormula f = gen::random_ksat(16, 90, 3, seed * 523 + 7);
    CdclSolver solver(f, proof_config());
    if (solver.solve() != SolveStatus::kUnsat) continue;
    const ProofCheckResult naive = check_unsat_proof(f, solver.proof());
    const ProofCheckResult fast = certify(f, solver.proof());
    EXPECT_EQ(naive.valid, fast.valid) << "seed " << seed;
  }
}

// --- DistributedProofBuilder: split-tree stitching ---------------------

TEST(DistributedProofBuilderTest, StitchesSiblingLeaves) {
  // Leaves ¬(d1) and ¬(¬d1) resolve to the empty clause.
  const Lit d1(1, false);
  DistributedProofBuilder builder;
  builder.add_leaf({d1});
  builder.add_leaf({~d1});
  EXPECT_EQ(builder.leaf_count(), 2u);
  EXPECT_TRUE(builder.stitch()) << builder.stitch_error();
  EXPECT_TRUE(builder.log().ends_with_empty_clause());
}

TEST(DistributedProofBuilderTest, StitchesADeeperTree) {
  // Four leaves covering the full (d1, d2) split tree, in a scrambled
  // arrival order, plus an ancestor re-solve that subsumption removes.
  const Lit d1(1, false);
  const Lit d2(2, false);
  DistributedProofBuilder builder;
  builder.add_leaf({d1, d2});
  builder.add_leaf({~d1});
  builder.add_leaf({d1, ~d2});
  builder.add_leaf({d1, d2});  // a recovered subproblem refuted twice
  EXPECT_TRUE(builder.stitch()) << builder.stitch_error();
  EXPECT_TRUE(builder.log().ends_with_empty_clause());
}

TEST(DistributedProofBuilderTest, RootLeafAloneSuffices) {
  DistributedProofBuilder builder;
  builder.add_leaf({});  // the root itself was refuted
  EXPECT_TRUE(builder.stitch()) << builder.stitch_error();
  EXPECT_TRUE(builder.log().ends_with_empty_clause());
}

TEST(DistributedProofBuilderTest, StitchesOverlappingRecoveredTrees) {
  // Regression: flushed out by the certification oracle on pigeonhole-8
  // with two client kills and heavy-checkpoint recovery. A recovered
  // client re-splits its subtree under a fresh decision order, so the
  // surviving leaves cover the cube as two OVERLAPPING split trees with
  // no sibling for the deepest set, where the greedy deepest-first rule
  // used to give up (even though {~V2 V3}/{~V2 ~V3} ARE siblings, and
  // the verdict itself was sound). The stitch must fall back to refuting
  // the residual leaf clauses and splicing that derivation into the log.
  REQUIRE_PROOF_HOOKS();  // the fallback needs a proof-logging refuter
  const Lit v1(1, false);
  const Lit v2(2, false);
  const Lit v3(3, false);
  DistributedProofBuilder builder;
  // The exact residual cover observed in the failing campaign:
  //   {V1 V2} {~V1 V2 V3} {V2 ~V3} {~V2 V3} {~V2 ~V3}
  builder.add_leaf({v1, v2});
  builder.add_leaf({~v1, v2, v3});
  builder.add_leaf({v2, ~v3});
  builder.add_leaf({~v2, v3});
  builder.add_leaf({~v2, ~v3});
  ASSERT_TRUE(builder.stitch()) << builder.stitch_error();
  EXPECT_TRUE(builder.log().ends_with_empty_clause());
  // The spliced derivation must be RUP against the leaf clauses alone:
  // replaying the log against a formula holding exactly those clauses
  // makes the leaf adds trivially RUP and checks everything after them.
  CnfFormula leaves(3);
  leaves.add_clause({~v1, ~v2});
  leaves.add_clause({v1, ~v2, ~v3});
  leaves.add_clause({~v2, v3});
  leaves.add_clause({v2, ~v3});
  leaves.add_clause({v2, v3});
  const ProofCheckResult check = certify(leaves, builder.log());
  EXPECT_TRUE(check.valid) << check.message << " at step "
                           << check.failed_step;
}

TEST(DistributedProofBuilderTest, MissingSiblingFailsTheStitch) {
  // Only one half of the split reported: the stitch must refuse — this
  // is exactly how the oracle catches a dropped subproblem or a stale
  // checkpoint recovery — and name the guiding path it never saw
  // refuted.
  const Lit d1(1, false);
  DistributedProofBuilder builder;
  builder.add_leaf({d1});
  EXPECT_FALSE(builder.stitch());
  EXPECT_NE(builder.stitch_error().find("no sibling cover"),
            std::string::npos)
      << builder.stitch_error();
  EXPECT_NE(builder.stitch_error().find("~V1"), std::string::npos)
      << builder.stitch_error();
}

TEST(DistributedProofBuilderTest, NoLeavesFailsTheStitch) {
  DistributedProofBuilder builder;
  EXPECT_FALSE(builder.stitch());
  EXPECT_FALSE(builder.stitch_error().empty());
}

// --- End-to-end: the thread-parallel solver's stitched refutation ------

TEST(DistributedProofTest, ParallelRefutationCertifies) {
  REQUIRE_PROOF_HOOKS();
  const CnfFormula f = gen::pigeonhole_unsat(7);
  ParallelOptions options;
  options.num_threads = 4;
  options.slice_work = 20'000;  // force splits and sharing
  options.solver.log_proof = true;
  ParallelSolver solver(f, options);
  const ParallelResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kUnsat);
  EXPECT_EQ(result.stats.subproblems_refuted, result.stats.splits + 1);
  ASSERT_TRUE(result.proof != nullptr);
  ASSERT_TRUE(result.proof_stitched) << result.proof_error;
  const ProofCheckResult check = certify(f, *result.proof);
  EXPECT_TRUE(check.valid) << check.message << " at step "
                           << check.failed_step;
  EXPECT_GT(check.steps_checked, 0u);
}

TEST(DistributedProofTest, ParallelXorChainRefutationCertifies) {
  REQUIRE_PROOF_HOOKS();
  const CnfFormula f = gen::urquhart_like(10, 3);
  ParallelOptions options;
  options.num_threads = 4;
  options.slice_work = 10'000;
  options.solver.log_proof = true;
  ParallelSolver solver(f, options);
  const ParallelResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kUnsat);
  EXPECT_EQ(result.stats.subproblems_refuted, result.stats.splits + 1);
  ASSERT_TRUE(result.proof != nullptr);
  ASSERT_TRUE(result.proof_stitched) << result.proof_error;
  const ProofCheckResult check = certify(f, *result.proof);
  EXPECT_TRUE(check.valid) << check.message;
}

class ParallelCertifySweep
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelCertifySweep, VerdictMatchesBruteForceAndCertifies) {
  REQUIRE_PROOF_HOOKS();
  const auto [threads, seed] = GetParam();
  const CnfFormula f = gen::random_ksat(
      14, 59, 3, static_cast<std::uint64_t>(seed) * 211 + 43);
  const bool truth = brute_force_solve(f).has_value();
  ParallelOptions options;
  options.num_threads = static_cast<std::size_t>(threads);
  options.slice_work = 20;  // cooperate (publish, import, offer a split)
                            // after every few propagation batches
  options.solver.log_proof = true;
  ParallelSolver solver(f, options);
  const ParallelResult result = solver.solve();
  ASSERT_EQ(result.status, truth ? SolveStatus::kSat : SolveStatus::kUnsat)
      << "threads " << threads << " seed " << seed;
  if (result.status == SolveStatus::kSat) {
    EXPECT_TRUE(is_model(f, result.model));
    return;
  }
  // Every subproblem (the root plus one per split) ends refuted. A
  // 14-variable search usually ends before a second worker waits for work,
  // so splits are rare here; the DistributedProofTest cases above check
  // the same invariant on split trees.
  EXPECT_EQ(result.stats.subproblems_refuted, result.stats.splits + 1);
  ASSERT_TRUE(result.proof != nullptr);
  ASSERT_TRUE(result.proof_stitched) << result.proof_error;
  const ProofCheckResult check = certify(f, *result.proof);
  EXPECT_TRUE(check.valid) << check.message << " at step "
                           << check.failed_step;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelCertifySweep,
                         testing::Combine(testing::Values(1, 2, 4),
                                          testing::Range(0, 16)));

TEST(DistributedProofTest, NoProofWithoutLogProof) {
  const CnfFormula f = gen::pigeonhole_unsat(6);
  ParallelOptions options;
  options.num_threads = 2;
  ParallelSolver solver(f, options);
  const ParallelResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kUnsat);
  EXPECT_EQ(result.proof, nullptr);
}

TEST(DistributedProofTest, StitchedProofExportsWellFormedDrat) {
  REQUIRE_PROOF_HOOKS();
  const CnfFormula f = gen::pigeonhole_unsat(6);
  ParallelOptions options;
  options.num_threads = 2;
  options.solver.log_proof = true;
  ParallelSolver solver(f, options);
  const ParallelResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kUnsat);
  ASSERT_TRUE(result.proof != nullptr);
  std::ostringstream out;
  result.proof->write_drat(out);
  const std::string drat = out.str();
  ASSERT_FALSE(drat.empty());
  // Every line is "[d] lit ... 0"; the last non-deletion line is "0".
  std::istringstream in(drat);
  std::string line;
  std::string last;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '0') << line;
    if (line.rfind("d ", 0) != 0) last = line;
  }
  EXPECT_EQ(last, "0") << "DRAT must end at the empty clause";
}

TEST(ProofTest, DratRendering) {
  ProofLog log;
  log.add(cnf::Clause{Lit(1, false), Lit(2, true)});
  log.remove(cnf::Clause{Lit(3, false)});
  log.add_empty();
  std::ostringstream out;
  log.write_drat(out);
  EXPECT_EQ(out.str(), "1 -2 0\nd 3 0\n0\n");
}

TEST(ProofTest, SatRunsLeaveNoEmptyClause) {
  CnfFormula f;
  f.add_dimacs_clause({1, 2});
  CdclSolver solver(f, proof_config());
  ASSERT_EQ(solver.solve(), SolveStatus::kSat);
  EXPECT_FALSE(solver.proof().ends_with_empty_clause());
}

}  // namespace
}  // namespace gridsat::solver
