// CDCL solver unit + property tests: verdict correctness against brute
// force and DPLL, model validity, invariants, budgeted execution,
// memory-out behaviour, and statistics sanity.
#include <gtest/gtest.h>

#include <optional>

#include "cnf/formula.hpp"
#include "gen/circuit_families.hpp"
#include "gen/graph_color.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "gen/xor_chains.hpp"
#include "solver/brute_force.hpp"
#include "solver/cdcl.hpp"
#include "solver/dpll.hpp"
#include "solver/proof.hpp"

namespace gridsat::solver {
namespace {

using cnf::CnfFormula;
using cnf::LBool;
using cnf::Lit;

TEST(CdclBasicTest, EmptyFormulaIsSat) {
  CnfFormula f(3);
  CdclSolver solver(f);
  EXPECT_EQ(solver.solve(), SolveStatus::kSat);
  EXPECT_TRUE(is_model(f, solver.model()));
}

TEST(CdclBasicTest, SingleUnitClause) {
  CnfFormula f;
  f.add_dimacs_clause({-4});
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveStatus::kSat);
  EXPECT_EQ(solver.model()[4], LBool::kFalse);
  EXPECT_TRUE(is_model(f, solver.model()));
}

TEST(CdclBasicTest, ContradictingUnitsAreUnsat) {
  CnfFormula f;
  f.add_dimacs_clause({2});
  f.add_dimacs_clause({-2});
  CdclSolver solver(f);
  EXPECT_EQ(solver.solve(), SolveStatus::kUnsat);
}

TEST(CdclBasicTest, EmptyClauseIsUnsat) {
  CnfFormula f(2);
  f.add_clause(cnf::Clause{});
  CdclSolver solver(f);
  EXPECT_EQ(solver.solve(), SolveStatus::kUnsat);
}

TEST(CdclBasicTest, ChainOfImplications) {
  // V1 and a chain V1 -> V2 -> ... -> V6: pure propagation, no search.
  CnfFormula f;
  f.add_dimacs_clause({1});
  for (int v = 1; v < 6; ++v) {
    f.add_dimacs_clause({-v, v + 1});
  }
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveStatus::kSat);
  for (cnf::Var v = 1; v <= 6; ++v) {
    EXPECT_EQ(solver.model()[v], LBool::kTrue);
  }
  EXPECT_EQ(solver.stats().decisions, 0u);
}

TEST(CdclBasicTest, TautologyIgnored) {
  CnfFormula f;
  f.add_dimacs_clause({1, -1});
  f.add_dimacs_clause({2});
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveStatus::kSat);
  EXPECT_EQ(solver.model()[2], LBool::kTrue);
}

TEST(CdclBasicTest, DuplicateLiteralsHandled) {
  CnfFormula f;
  f.add_dimacs_clause({3, 3, 3});
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveStatus::kSat);
  EXPECT_EQ(solver.model()[3], LBool::kTrue);
}

TEST(CdclBasicTest, SolveIsIdempotentAfterVerdict) {
  CnfFormula f;
  f.add_dimacs_clause({1, 2});
  CdclSolver solver(f);
  EXPECT_EQ(solver.solve(), SolveStatus::kSat);
  EXPECT_EQ(solver.solve(), SolveStatus::kSat);

  CnfFormula g;
  g.add_dimacs_clause({1});
  g.add_dimacs_clause({-1});
  CdclSolver solver2(g);
  EXPECT_EQ(solver2.solve(), SolveStatus::kUnsat);
  EXPECT_EQ(solver2.solve(), SolveStatus::kUnsat);
}

// --- Differential tests against brute force -----------------------------

struct RandomSweepParams {
  cnf::Var num_vars;
  double clause_ratio;
};

class CdclRandomSweep
    : public testing::TestWithParam<std::tuple<RandomSweepParams, int>> {};

TEST_P(CdclRandomSweep, AgreesWithBruteForce) {
  const auto [params, seed] = GetParam();
  const auto num_clauses = static_cast<std::size_t>(
      static_cast<double>(params.num_vars) * params.clause_ratio);
  const CnfFormula f =
      gen::random_ksat(params.num_vars, num_clauses, 3,
                       static_cast<std::uint64_t>(seed) * 7919 + 13);
  const auto truth = brute_force_solve(f);
  CdclSolver solver(f);
  const SolveStatus status = solver.solve();
  if (truth.has_value()) {
    ASSERT_EQ(status, SolveStatus::kSat) << "seed " << seed;
    EXPECT_TRUE(is_model(f, solver.model())) << "seed " << seed;
  } else {
    EXPECT_EQ(status, SolveStatus::kUnsat) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CdclRandomSweep,
    testing::Combine(testing::Values(RandomSweepParams{8, 3.0},
                                     RandomSweepParams{10, 4.26},
                                     RandomSweepParams{12, 4.26},
                                     RandomSweepParams{14, 5.0},
                                     RandomSweepParams{16, 4.26}),
                     testing::Range(0, 20)));

class CdclDpllAgreement : public testing::TestWithParam<int> {};

TEST_P(CdclDpllAgreement, SameVerdictAsDpll) {
  const int seed = GetParam();
  const CnfFormula f = gen::random_ksat(
      18, static_cast<std::size_t>(18 * 4.26), 3,
      static_cast<std::uint64_t>(seed) * 104729 + 7);
  CdclSolver cdcl(f);
  DpllSolver dpll(f);
  const SolveStatus a = cdcl.solve();
  const SolveStatus b = dpll.solve();
  EXPECT_EQ(a, b) << "seed " << seed;
  if (a == SolveStatus::kSat) {
    EXPECT_TRUE(is_model(f, cdcl.model()));
    EXPECT_TRUE(is_model(f, dpll.model()));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CdclDpllAgreement, testing::Range(0, 25));

// --- Structured families -------------------------------------------------

TEST(CdclFamiliesTest, PigeonholeUnsat) {
  for (const std::size_t holes : {2, 3, 4, 5, 6}) {
    CdclSolver solver(gen::pigeonhole_unsat(holes));
    EXPECT_EQ(solver.solve(), SolveStatus::kUnsat) << "holes=" << holes;
  }
}

TEST(CdclFamiliesTest, PigeonholeSatWhenRoomy) {
  CdclSolver solver(gen::pigeonhole(4, 5));
  EXPECT_EQ(solver.solve(), SolveStatus::kSat);
}

TEST(CdclFamiliesTest, PlantedKsatIsSat) {
  for (int seed = 0; seed < 10; ++seed) {
    const CnfFormula f = gen::random_ksat_planted(40, 300, 3, seed);
    CdclSolver solver(f);
    ASSERT_EQ(solver.solve(), SolveStatus::kSat) << "seed " << seed;
    EXPECT_TRUE(is_model(f, solver.model()));
  }
}

TEST(CdclFamiliesTest, XorSystemConsistency) {
  gen::XorSystemParams params;
  params.num_vars = 24;
  params.num_equations = 24;
  params.width = 3;
  params.seed = 5;
  params.consistent = true;
  CdclSolver sat_solver(gen::xor_system(params));
  EXPECT_EQ(sat_solver.solve(), SolveStatus::kSat);
  params.consistent = false;
  CdclSolver unsat_solver(gen::xor_system(params));
  EXPECT_EQ(unsat_solver.solve(), SolveStatus::kUnsat);
}

TEST(CdclFamiliesTest, UrquhartLikeUnsat) {
  for (const std::size_t n : {5, 8, 10}) {
    CdclSolver solver(gen::urquhart_like(n, 3));
    EXPECT_EQ(solver.solve(), SolveStatus::kUnsat) << "n=" << n;
  }
}

TEST(CdclFamiliesTest, FactoringComposite) {
  // 143 = 11 * 13, both fit in 4 bits.
  const CnfFormula f = gen::factoring(143, 4);
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveStatus::kSat);
  EXPECT_TRUE(is_model(f, solver.model()));
}

TEST(CdclFamiliesTest, FactoringPrimeUnsat) {
  // 13 is prime: no factorization with both factors > 1.
  CdclSolver solver(gen::factoring(13, 4));
  EXPECT_EQ(solver.solve(), SolveStatus::kUnsat);
}

TEST(CdclFamiliesTest, CounterBmcReachable) {
  CdclSolver solver(gen::counter_bmc(4, 9, 9));
  EXPECT_EQ(solver.solve(), SolveStatus::kSat);
}

TEST(CdclFamiliesTest, CounterBmcUnreachable) {
  CdclSolver solver(gen::counter_bmc(4, 9, 5));
  EXPECT_EQ(solver.solve(), SolveStatus::kUnsat);
}

TEST(CdclFamiliesTest, AdderMiterUnsatWhenCorrect) {
  CdclSolver solver(gen::adder_miter(5, /*plant_bug=*/false, 1));
  EXPECT_EQ(solver.solve(), SolveStatus::kUnsat);
}

TEST(CdclFamiliesTest, AdderMiterSatWhenBuggy) {
  for (int seed = 0; seed < 5; ++seed) {
    const CnfFormula f = gen::adder_miter(5, /*plant_bug=*/true, seed);
    CdclSolver solver(f);
    ASSERT_EQ(solver.solve(), SolveStatus::kSat) << "seed " << seed;
    EXPECT_TRUE(is_model(f, solver.model()));
  }
}

TEST(CdclFamiliesTest, MultCommMiterUnsat) {
  CdclSolver solver(gen::mult_comm_miter(3));
  EXPECT_EQ(solver.solve(), SolveStatus::kUnsat);
}

TEST(CdclFamiliesTest, GridColoringBipartite) {
  CdclSolver two_colors(gen::grid_coloring(4, 4, 2, /*add_diagonals=*/false));
  EXPECT_EQ(two_colors.solve(), SolveStatus::kSat);
  CdclSolver with_triangles(gen::grid_coloring(4, 4, 2, /*add_diagonals=*/true));
  EXPECT_EQ(with_triangles.solve(), SolveStatus::kUnsat);
  CdclSolver three_colors(gen::grid_coloring(4, 4, 3, /*add_diagonals=*/true));
  EXPECT_EQ(three_colors.solve(), SolveStatus::kSat);
}

TEST(CdclFamiliesTest, MutilatedChessboardUnsat) {
  for (const std::size_t n : {2, 3}) {
    CdclSolver solver(gen::mutilated_chessboard(n));
    EXPECT_EQ(solver.solve(), SolveStatus::kUnsat) << "n=" << n;
  }
}

// --- Budgeted execution ---------------------------------------------------

TEST(CdclBudgetTest, ResumableSolvingMatchesOneShot) {
  for (int seed = 0; seed < 5; ++seed) {
    const CnfFormula f = gen::random_ksat(30, 128, 3, seed + 100);
    CdclSolver one_shot(f);
    const SolveStatus expected = one_shot.solve();

    CdclSolver stepped(f);
    SolveStatus status = SolveStatus::kUnknown;
    int slices = 0;
    while (status == SolveStatus::kUnknown) {
      status = stepped.solve(500);
      ASSERT_LT(++slices, 100000);
    }
    EXPECT_EQ(status, expected) << "seed " << seed;
    if (status == SolveStatus::kSat) {
      EXPECT_TRUE(is_model(f, stepped.model()));
    }
  }
}

TEST(CdclBudgetTest, TinyBudgetReturnsUnknown) {
  const CnfFormula f = gen::pigeonhole_unsat(7);
  CdclSolver solver(f);
  EXPECT_EQ(solver.solve(1), SolveStatus::kUnknown);
  EXPECT_EQ(solver.status(), SolveStatus::kUnknown);
}

TEST(CdclBudgetTest, WorkMonotonicallyIncreases) {
  const CnfFormula f = gen::pigeonhole_unsat(6);
  CdclSolver solver(f);
  std::uint64_t last_work = 0;
  for (int i = 0; i < 10; ++i) {
    if (solver.solve(1000) != SolveStatus::kUnknown) break;
    EXPECT_GT(solver.stats().work, last_work);
    last_work = solver.stats().work;
  }
}

// --- Memory-out behaviour --------------------------------------------------

TEST(CdclMemoryTest, TinyLimitYieldsMemOut) {
  // A hard instance with an absurdly small DB limit must report kMemOut,
  // mirroring the paper's zChaff MEM_OUT rows.
  const CnfFormula f = gen::pigeonhole_unsat(9);
  SolverConfig config;
  config.memory_limit_bytes = 40 * 1024;
  CdclSolver limited(f, config);
  const SolveStatus status = limited.solve(200'000'000);
  EXPECT_EQ(status, SolveStatus::kMemOut);
  EXPECT_GT(limited.stats().db_reductions, 0u);
}

TEST(CdclMemoryTest, PeakDbBytesTracked) {
  const CnfFormula f = gen::pigeonhole_unsat(7);
  CdclSolver solver(f);
  solver.solve();
  EXPECT_GT(solver.stats().peak_db_bytes, 0u);
  EXPECT_GT(solver.db_bytes(), 0u);
}

// --- Invariants and stats ---------------------------------------------------

TEST(CdclInvariantTest, InvariantsHoldDuringSearch) {
  const CnfFormula f = gen::random_ksat(25, 106, 3, 77);
  CdclSolver solver(f);
  SolveStatus status = SolveStatus::kUnknown;
  int checks = 0;
  while (status == SolveStatus::kUnknown && checks < 50) {
    status = solver.solve(2000);
    EXPECT_EQ(solver.check_invariants(), "") << "after slice " << checks;
    ++checks;
  }
}

TEST(CdclStatsTest, ConflictsImplyLearnedClauses) {
  const CnfFormula f = gen::pigeonhole_unsat(6);
  CdclSolver solver(f);
  solver.solve();
  const auto& stats = solver.stats();
  EXPECT_GT(stats.conflicts, 0u);
  EXPECT_GT(stats.learned_clauses, 0u);
  EXPECT_GT(stats.decisions, 0u);
  EXPECT_GT(stats.propagations, 0u);
  EXPECT_GT(stats.work, stats.propagations);
}

TEST(CdclStatsTest, ShareCallbackSeesEveryLearnedClause) {
  // Every learned clause goes out through the callback, and so does every
  // on-the-fly strengthened clause (the stronger literal set must reach
  // peers too) — nothing else does.
  const CnfFormula f = gen::pigeonhole_unsat(5);
  CdclSolver solver(f);
  std::size_t shared = 0;
  solver.set_share_callback([&](const cnf::Clause&, std::uint32_t) { ++shared; });
  solver.solve();
  EXPECT_EQ(shared,
            solver.stats().learned_clauses + solver.stats().otf_strengthened);
  EXPECT_EQ(shared, solver.stats().exported_clauses);
}

TEST(CdclMinimizeTest, RecursiveBeatsUnminimizedOnClauseLength) {
  // The recursive DFS only ever removes literals: on a pigeonhole run
  // both configurations terminate with the same verdict, and the
  // minimized run's average learned length is no longer than the
  // paper-era unminimized one.
  const CnfFormula f = gen::pigeonhole_unsat(7);
  SolverConfig off;
  off.minimize_learned = false;
  off.otf_subsume = false;
  SolverConfig deep = off;
  deep.minimize_learned = true;
  deep.minimize_bin = false;
  CdclSolver a(f, off);
  CdclSolver b(f, deep);
  EXPECT_EQ(a.solve(), SolveStatus::kUnsat);
  EXPECT_EQ(b.solve(), SolveStatus::kUnsat);
  EXPECT_EQ(a.stats().minimized_literals, 0u);
  EXPECT_GT(b.stats().minimized_literals, 0u);
  const double avg_a = static_cast<double>(a.stats().learned_literals) /
                       static_cast<double>(a.stats().learned_clauses);
  const double avg_b = static_cast<double>(b.stats().learned_literals) /
                       static_cast<double>(b.stats().learned_clauses);
  EXPECT_LE(avg_b, avg_a + 0.5);
}

TEST(CdclMinimizeTest, DifferentialSweepAgainstPlainPipeline) {
  // Differential fuzz over the whole learned-clause pipeline: for each
  // random instance, solve once with minimization + binary strengthening
  // + on-the-fly subsumption + compaction all ON and once all OFF. The
  // verdicts must agree (and match brute force), SAT models must satisfy
  // the formula, and on UNSAT the full DRUP log — which contains an add
  // for every minimized, strengthened, and subsumed clause — must replay
  // through the proof checker, certifying each one is still implied.
  std::uint64_t total_minimized = 0;
  std::uint64_t total_bin = 0;
  std::uint64_t total_otf = 0;
  for (int seed = 0; seed < 12; ++seed) {
    CnfFormula f;
    switch (seed % 3) {
      case 0: f = gen::random_ksat(16, 70, 3, 101 + seed); break;
      case 1: f = gen::random_ksat(14, 62, 3, 202 + seed); break;
      default: f = gen::pigeonhole_unsat(4); break;
    }
    SolverConfig off;
    off.minimize_learned = false;
    off.otf_subsume = false;
    off.arena_compact = false;
    SolverConfig on;
    on.log_proof = true;
    CdclSolver plain(f, off);
    CdclSolver full(f, on);
    const SolveStatus expect_plain = plain.solve();
    const SolveStatus expect_full = full.solve();
    ASSERT_EQ(expect_plain, expect_full) << "seed " << seed;
    const auto truth = brute_force_solve(f);
    ASSERT_EQ(expect_full,
              truth.has_value() ? SolveStatus::kSat : SolveStatus::kUnsat)
        << "seed " << seed;
    if (expect_full == SolveStatus::kSat) {
      EXPECT_TRUE(is_model(f, full.model())) << "seed " << seed;
    } else if (kProofCompiledIn) {
      const ProofCheckResult result = check_unsat_proof(f, full.proof());
      EXPECT_TRUE(result.valid) << "seed " << seed << ": " << result.message;
    }
    total_minimized += full.stats().minimized_literals;
    total_bin += full.stats().bin_strengthened_literals;
    total_otf += full.stats().otf_strengthened;
  }
  // The sweep must actually exercise every pipeline stage, or the
  // differential check above is vacuous.
  EXPECT_GT(total_minimized, 0u);
  EXPECT_GT(total_bin, 0u);
  EXPECT_GT(total_otf, 0u);
}

TEST(CdclReduceTest, DeepDecisionLevelReduceWithCompactionHoldsInvariants) {
  // reduce_db() historically ran at deep decision levels (it fires from
  // the search loop, not from restarts), and the ordered compaction moves
  // every clause: reasons on the trail, watcher lists, and the binary
  // store must all survive the remap. A tiny reduce threshold forces
  // many reduce+compact rounds mid-search; check_invariants() verifies
  // watch sanity and that each trail literal's long reason still has the
  // implied literal in slot 0 after every slice.
  const CnfFormula f = gen::pigeonhole_unsat(6);
  SolverConfig config;
  config.reduce_base = 60;
  config.reduce_growth = 1.01;
  config.arena_compact = true;
  CdclSolver compacting(f, config);
  SolveStatus status = SolveStatus::kUnknown;
  int slices = 0;
  while (status == SolveStatus::kUnknown && slices < 2000) {
    status = compacting.solve(1000);
    ASSERT_EQ(compacting.check_invariants(), "") << "after slice " << slices;
    ++slices;
  }
  EXPECT_EQ(status, SolveStatus::kUnsat);
  EXPECT_GT(compacting.stats().arena_compactions, 0u);
  EXPECT_GT(compacting.stats().db_reductions, 0u);
}

TEST(CdclConfigTest, MinimizationShortensClauses) {
  const CnfFormula f = gen::pigeonhole_unsat(7);
  SolverConfig plain;
  SolverConfig minimizing;
  minimizing.minimize_learned = true;
  CdclSolver a(f, plain);
  CdclSolver b(f, minimizing);
  EXPECT_EQ(a.solve(), SolveStatus::kUnsat);
  EXPECT_EQ(b.solve(), SolveStatus::kUnsat);
  const double avg_a = static_cast<double>(a.stats().learned_literals) /
                       static_cast<double>(a.stats().learned_clauses);
  const double avg_b = static_cast<double>(b.stats().learned_literals) /
                       static_cast<double>(b.stats().learned_clauses);
  EXPECT_LE(avg_b, avg_a + 0.5);
}

TEST(CdclConfigTest, RestartsDisabled) {
  SolverConfig config;
  config.restart_base = 0;
  const CnfFormula f = gen::random_ksat(20, 85, 3, 3);
  CdclSolver solver(f, config);
  const SolveStatus status = solver.solve();
  EXPECT_NE(status, SolveStatus::kUnknown);
  EXPECT_EQ(solver.stats().restarts, 0u);
}

TEST(CdclConfigTest, RandomDecisionsStillCorrect) {
  SolverConfig config;
  config.random_decision_freq = 0.3;
  for (int seed = 0; seed < 5; ++seed) {
    const CnfFormula f = gen::random_ksat(12, 51, 3, seed + 500);
    config.seed = seed + 1;
    CdclSolver solver(f, config);
    const auto truth = brute_force_solve(f);
    const SolveStatus status = solver.solve();
    EXPECT_EQ(status,
              truth.has_value() ? SolveStatus::kSat : SolveStatus::kUnsat);
  }
}

TEST(CdclDeterminismTest, SameSeedSameTrace) {
  const CnfFormula f = gen::random_ksat(30, 128, 3, 9);
  CdclSolver a(f);
  CdclSolver b(f);
  a.solve();
  b.solve();
  EXPECT_EQ(a.status(), b.status());
  EXPECT_EQ(a.stats().decisions, b.stats().decisions);
  EXPECT_EQ(a.stats().conflicts, b.stats().conflicts);
  EXPECT_EQ(a.stats().work, b.stats().work);
}

// --- Search trajectory golden values ---------------------------------------

// Exact SolverStats of three fixed searches. Host-only changes to the
// search (BCP layout, prefetching, allocation) must visit every watcher and
// count every work unit in the same order, so none of these may move; the
// simulator turns `work` into virtual time, and a moved count moves every
// campaign's fixed point. Only a change that means to alter the search
// itself may update them.
struct SearchGolden {
  SolveStatus status;
  std::uint64_t work;
  std::uint64_t propagations;
  std::uint64_t binary_propagations;
  std::uint64_t conflicts;
  std::uint64_t decisions;
  std::uint64_t learned_literals;
  std::uint64_t restarts;
  std::uint64_t db_reductions;
  std::uint64_t arena_compactions;
};

void expect_search_golden(const CdclSolver& solver, const SearchGolden& g) {
  const SolverStats& s = solver.stats();
  EXPECT_EQ(solver.status(), g.status);
  EXPECT_EQ(s.work, g.work);
  EXPECT_EQ(s.propagations, g.propagations);
  EXPECT_EQ(s.binary_propagations, g.binary_propagations);
  EXPECT_EQ(s.conflicts, g.conflicts);
  EXPECT_EQ(s.decisions, g.decisions);
  EXPECT_EQ(s.learned_literals, g.learned_literals);
  EXPECT_EQ(s.restarts, g.restarts);
  EXPECT_EQ(s.db_reductions, g.db_reductions);
  EXPECT_EQ(s.arena_compactions, g.arena_compactions);
}

TEST(SearchGoldenTest, PigeonholeEightUnsat) {
  CdclSolver solver(gen::pigeonhole_unsat(8));
  solver.solve();
  expect_search_golden(solver, {.status = SolveStatus::kUnsat,
                                .work = 41970032,
                                .propagations = 143450,
                                .binary_propagations = 82185,
                                .conflicts = 9676,
                                .decisions = 12039,
                                .learned_literals = 200296,
                                .restarts = 12,
                                .db_reductions = 1,
                                .arena_compactions = 1});
}

TEST(SearchGoldenTest, RandomThreeSatV200Sat) {
  const CnfFormula f = gen::random_ksat(200, 840, 3, 13);
  CdclSolver solver(f);
  ASSERT_EQ(solver.solve(), SolveStatus::kSat);
  EXPECT_TRUE(is_model(f, solver.model()));
  expect_search_golden(solver, {.status = SolveStatus::kSat,
                                .work = 21743410,
                                .propagations = 759419,
                                .binary_propagations = 2513,
                                .conflicts = 15432,
                                .decisions = 19095,
                                .learned_literals = 177660,
                                .restarts = 14,
                                .db_reductions = 2,
                                .arena_compactions = 2});
}

TEST(SearchGoldenTest, SplitThenRebuiltSolver) {
  CdclSolver solver(gen::pigeonhole_unsat(7));
  ASSERT_EQ(solver.solve(20000), SolveStatus::kUnknown);
  ASSERT_TRUE(solver.can_split());
  CdclSolver rebuilt(solver.split());
  solver.solve();
  rebuilt.solve();
  expect_search_golden(solver, {.status = SolveStatus::kUnsat,
                                .work = 233602,
                                .propagations = 7369,
                                .binary_propagations = 4939,
                                .conflicts = 433,
                                .decisions = 513,
                                .learned_literals = 6924,
                                .restarts = 0,
                                .db_reductions = 0,
                                .arena_compactions = 0});
  expect_search_golden(rebuilt, {.status = SolveStatus::kUnsat,
                                 .work = 925926,
                                 .propagations = 14262,
                                 .binary_propagations = 8792,
                                 .conflicts = 980,
                                 .decisions = 1212,
                                 .learned_literals = 14246,
                                 .restarts = 1,
                                 .db_reductions = 0,
                                 .arena_compactions = 0});
}

// --- DPLL-specific ---------------------------------------------------------

TEST(DpllTest, BasicVerdicts) {
  CnfFormula sat;
  sat.add_dimacs_clause({1, 2});
  sat.add_dimacs_clause({-1, 2});
  DpllSolver s1(sat);
  EXPECT_EQ(s1.solve(), SolveStatus::kSat);

  CnfFormula unsat;
  unsat.add_dimacs_clause({1});
  unsat.add_dimacs_clause({-1});
  DpllSolver s2(unsat);
  EXPECT_EQ(s2.solve(), SolveStatus::kUnsat);
}

TEST(DpllTest, AgreesWithBruteForceOnSweep) {
  for (int seed = 0; seed < 15; ++seed) {
    const CnfFormula f = gen::random_ksat(10, 43, 3, seed + 31);
    DpllSolver solver(f);
    const auto truth = brute_force_solve(f);
    EXPECT_EQ(solver.solve(),
              truth.has_value() ? SolveStatus::kSat : SolveStatus::kUnsat)
        << "seed " << seed;
  }
}

TEST(DpllTest, BudgetedResumption) {
  const CnfFormula f = gen::pigeonhole_unsat(5);
  DpllSolver solver(f);
  SolveStatus status = SolveStatus::kUnknown;
  int slices = 0;
  while (status == SolveStatus::kUnknown) {
    status = solver.solve(10000);
    ASSERT_LT(++slices, 1000000);
  }
  EXPECT_EQ(status, SolveStatus::kUnsat);
}

TEST(BruteForceTest, CountsModels) {
  CnfFormula f;
  f.add_dimacs_clause({1, 2});
  // 3 of 4 assignments satisfy V1 | V2.
  EXPECT_EQ(brute_force_count(f), 3u);
  CnfFormula empty(2);
  EXPECT_EQ(brute_force_count(empty), 4u);
}

}  // namespace
}  // namespace gridsat::solver
