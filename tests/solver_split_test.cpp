// Properties of search-space splitting (paper §3.1 / Figure 2) and sound
// clause sharing (§3.2):
//   * the two branches of a split partition the search space — the
//     original formula is SAT iff some branch is SAT;
//   * recursive splitting down to many leaves preserves the verdict;
//   * every clause exported through the share callback is implied by the
//     ORIGINAL formula, even when learned under split assumptions;
//   * importing shared clauses never changes a verdict;
//   * subproblem serialization round-trips;
//   * shipped clauses come out canonical (strictly ascending codes), and
//     the receiver rebuilds the same solver from any literal order;
//   * a ship emitted in budget order trims to the same payload as one in
//     arena order.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cnf/formula.hpp"
#include "gen/graph_color.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "gen/xor_chains.hpp"
#include "solver/brute_force.hpp"
#include "solver/cdcl.hpp"
#include "util/rng.hpp"

namespace gridsat::solver {
namespace {

using cnf::CnfFormula;
using cnf::Lit;

/// Clauses as a received batch: one shared pool, read in place.
std::shared_ptr<const cnf::ClausePool> shared_pool(
    const std::vector<cnf::Clause>& clauses) {
  return std::make_shared<const cnf::ClausePool>(clauses);
}

/// Run the solver a little so it builds a decision stack, then split.
/// Returns nullopt if the instance resolved before a split was possible.
std::optional<Subproblem> advance_and_split(CdclSolver& solver,
                                            std::uint64_t slice = 200) {
  for (int attempts = 0; attempts < 2000; ++attempts) {
    const SolveStatus status = solver.solve(slice);
    if (status != SolveStatus::kUnknown) return std::nullopt;
    if (solver.can_split()) return solver.split();
  }
  ADD_FAILURE() << "never reached a splittable state";
  return std::nullopt;
}

TEST(SplitTest, SplitPartitionsSearchSpace) {
  int splits_seen = 0;
  for (int seed = 0; seed < 20; ++seed) {
    const CnfFormula f = gen::random_ksat(14, 59, 3, seed * 31 + 5);
    const bool truth = brute_force_solve(f).has_value();

    CdclSolver a(f);
    auto other = advance_and_split(a);
    if (!other.has_value()) continue;  // solved before splitting; fine
    ++splits_seen;
    CdclSolver b(*other);
    const SolveStatus sa = a.solve();
    const SolveStatus sb = b.solve();
    ASSERT_NE(sa, SolveStatus::kUnknown);
    ASSERT_NE(sb, SolveStatus::kUnknown);
    const bool combined =
        (sa == SolveStatus::kSat) || (sb == SolveStatus::kSat);
    EXPECT_EQ(combined, truth) << "seed " << seed;
    if (sa == SolveStatus::kSat) EXPECT_TRUE(is_model(f, a.model()));
    if (sb == SolveStatus::kSat) EXPECT_TRUE(is_model(f, b.model()));
  }
  EXPECT_GT(splits_seen, 0) << "sweep never exercised a split";
}

TEST(SplitTest, RecursiveSplittingPreservesVerdict) {
  for (int seed = 0; seed < 8; ++seed) {
    const CnfFormula f = gen::random_ksat(16, 68, 3, seed * 97 + 11);
    const bool truth = brute_force_solve(f).has_value();

    // Maintain a pool of solvers; repeatedly split the front one until we
    // have up to 8 leaves, then solve them all.
    std::deque<std::unique_ptr<CdclSolver>> pool;
    pool.push_back(std::make_unique<CdclSolver>(f));
    bool found_sat = false;
    std::vector<std::unique_ptr<CdclSolver>> leaves;
    while (!pool.empty()) {
      auto solver = std::move(pool.front());
      pool.pop_front();
      if (pool.size() + leaves.size() < 7) {
        auto other = advance_and_split(*solver, 100);
        if (other.has_value()) {
          pool.push_back(std::make_unique<CdclSolver>(*other));
          pool.push_back(std::move(solver));
          continue;
        }
      }
      leaves.push_back(std::move(solver));
    }
    for (auto& leaf : leaves) {
      const SolveStatus status = leaf->solve();
      ASSERT_NE(status, SolveStatus::kUnknown);
      if (status == SolveStatus::kSat) {
        found_sat = true;
        EXPECT_TRUE(is_model(f, leaf->model()));
      }
    }
    EXPECT_EQ(found_sat, truth) << "seed " << seed;
  }
}

TEST(SplitTest, SplitBranchAssumptionIsTainted) {
  const CnfFormula f = gen::pigeonhole_unsat(6);
  CdclSolver a(f);
  const auto other = advance_and_split(a);
  ASSERT_TRUE(other.has_value());
  // The complementary branch must contain exactly one tainted unit more
  // than the donor's level-0 prefix, and its path must mention it.
  int tainted = 0;
  for (const auto& u : other->units) {
    if (u.tainted) ++tainted;
  }
  EXPECT_GE(tainted, 1);
  EXPECT_FALSE(other->path.empty());
  EXPECT_GT(other->num_problem_clauses, 0u);
}

TEST(SplitTest, CannotSplitAtLevelZero) {
  CnfFormula f;
  f.add_dimacs_clause({1});
  f.add_dimacs_clause({-1, 2});
  CdclSolver solver(f);
  EXPECT_FALSE(solver.can_split());
  solver.solve();
  EXPECT_FALSE(solver.can_split());  // solved
}

/// Check that `clause` is implied by `formula`: formula AND NOT(clause)
/// must be unsatisfiable. Uses a fresh CDCL solver as the checker.
bool implied_by(const CnfFormula& formula, const cnf::Clause& clause) {
  Subproblem sp;
  sp.num_vars = formula.num_vars();
  for (const Lit l : clause) {
    sp.num_vars = std::max(sp.num_vars, l.var());
  }
  for (const auto& c : formula.clauses()) sp.clauses.push_back(c);
  sp.num_problem_clauses = sp.clauses.size();
  for (const Lit l : clause) {
    sp.units.push_back(SubproblemUnit{~l, /*tainted=*/false});
  }
  CdclSolver checker(sp);
  return checker.solve() == SolveStatus::kUnsat;
}

TEST(SharingSoundnessTest, SharedClausesImpliedByOriginalFormula) {
  // The load-bearing property for GridSAT's global clause sharing: even
  // clauses learned in a split branch (under assumptions) must be valid
  // for the original formula because tainted level-0 literals are kept.
  for (int seed = 0; seed < 6; ++seed) {
    const CnfFormula f = gen::random_ksat(13, 55, 3, seed * 131 + 3);
    CdclSolver a(f);
    auto other = advance_and_split(a, 150);
    if (!other.has_value()) continue;
    CdclSolver b(*other);

    std::vector<cnf::Clause> shared;
    b.set_share_callback([&](std::span<const cnf::Lit> c, std::uint32_t) {
      if (shared.size() < 50) shared.emplace_back(c.begin(), c.end());
    });
    a.set_share_callback([&](std::span<const cnf::Lit> c, std::uint32_t) {
      if (shared.size() < 50) shared.emplace_back(c.begin(), c.end());
    });
    a.solve();
    b.solve();
    for (const auto& clause : shared) {
      EXPECT_TRUE(implied_by(f, clause))
          << "seed " << seed << ": shared clause not implied by original";
    }
  }
}

TEST(SharingSoundnessTest, DeepSplitChainStillSound) {
  const CnfFormula f = gen::pigeonhole_unsat(7);
  CdclSolver current(f);
  std::vector<Subproblem> branches;
  for (int depth = 0; depth < 4; ++depth) {
    auto other = advance_and_split(current, 300);
    ASSERT_TRUE(other.has_value()) << "depth " << depth;
    branches.push_back(std::move(*other));
  }
  // The deepest branch carries several tainted assumptions; clauses it
  // learns must still be implied by the original formula.
  CdclSolver leaf(branches.back());
  std::vector<cnf::Clause> shared;
  leaf.set_share_callback([&](std::span<const cnf::Lit> c, std::uint32_t) {
    if (shared.size() < 30) shared.emplace_back(c.begin(), c.end());
  });
  leaf.solve(2'000'000);
  ASSERT_FALSE(shared.empty());
  for (const auto& clause : shared) {
    EXPECT_TRUE(implied_by(f, clause));
  }
}

TEST(SharingTest, ImportPreservesVerdict) {
  for (int seed = 0; seed < 10; ++seed) {
    const CnfFormula f = gen::random_ksat(14, 60, 3, seed * 41 + 17);
    const bool truth = brute_force_solve(f).has_value();

    // Harvest clauses from one run, inject into a fresh solver.
    CdclSolver donor(f);
    std::vector<cnf::Clause> harvest;
    donor.set_share_callback([&](std::span<const cnf::Lit> c, std::uint32_t) {
      if (c.size() <= 10 && harvest.size() < 200) {
        harvest.emplace_back(c.begin(), c.end());
      }
    });
    donor.solve();

    CdclSolver receiver(f);
    receiver.import_clauses(std::make_shared<const cnf::ClausePool>(harvest));
    const SolveStatus status = receiver.solve();
    EXPECT_EQ(status,
              truth ? SolveStatus::kSat : SolveStatus::kUnsat)
        << "seed " << seed;
    if (status == SolveStatus::kSat) {
      EXPECT_TRUE(is_model(f, receiver.model()));
    }
    EXPECT_GE(receiver.stats().imported_clauses, 0u);
  }
}

TEST(SharingTest, ImportedUnitForcesImplication) {
  // Paper §3.2 case 1: a clause with one unknown literal results in an
  // implication once merged.
  CnfFormula f;
  f.add_dimacs_clause({1, 2});
  f.add_dimacs_clause({-1, 2});
  f.add_dimacs_clause({3, 2});
  CdclSolver solver(f);
  solver.import_clauses(shared_pool({cnf::Clause{Lit(3, true)}}));
  ASSERT_EQ(solver.solve(), SolveStatus::kSat);
  EXPECT_EQ(solver.value(3), cnf::LBool::kFalse);
  EXPECT_EQ(solver.stats().imported_clauses, 1u);
}

TEST(SharingTest, ImportedContradictionRefutesSubproblem) {
  // Paper §3.2 case 3: an imported clause with all literals false at
  // level 0 makes the subproblem unsatisfiable.
  CnfFormula f;
  f.add_dimacs_clause({1});
  f.add_dimacs_clause({2});
  CdclSolver solver(f);
  solver.import_clauses(shared_pool({cnf::Clause{Lit(1, true), Lit(2, true)}}));
  EXPECT_EQ(solver.solve(), SolveStatus::kUnsat);
}

TEST(SharingTest, SatisfiedImportDiscarded) {
  // Paper §3.2 case 4: clauses satisfied at level 0 are discarded.
  CnfFormula f;
  f.add_dimacs_clause({1});
  f.add_dimacs_clause({2, 3});
  CdclSolver solver(f);
  solver.import_clauses(
      shared_pool({cnf::Clause{Lit(1, false), Lit(2, false)}}));
  EXPECT_EQ(solver.solve(), SolveStatus::kSat);
  EXPECT_EQ(solver.stats().imported_useless, 1u);
}

TEST(SharingTest, PendingImportsCounted) {
  CnfFormula f;
  f.add_dimacs_clause({1, 2});
  CdclSolver solver(f);
  solver.import_clauses(
      shared_pool({cnf::Clause{Lit(1, false)}, cnf::Clause{Lit(2, false)}}));
  EXPECT_EQ(solver.pending_imports(), 2u);
  solver.solve();
  EXPECT_EQ(solver.pending_imports(), 0u);
}

/// Everything a level-0 merge can leave behind: every stored clause in
/// arena order with its literal order and learned flag, and the level-0
/// trail.
struct MergedState {
  std::vector<std::pair<cnf::Clause, bool>> clauses;
  std::vector<SubproblemUnit> level0;

  friend bool operator==(const MergedState&, const MergedState&) = default;
};

MergedState merged_state(const CdclSolver& solver) {
  MergedState state;
  solver.for_each_clause([&](std::span<const Lit> lits, bool learned) {
    state.clauses.emplace_back(cnf::Clause(lits.begin(), lits.end()), learned);
  });
  state.level0 = solver.level0_units();
  return state;
}

TEST(ImportTest, SharedCanonicalBatchMatchesUnsortedImport) {
  // One canonical pool (each clause sorted once, as an exporting client
  // writes it) is queued at three receivers on different guiding paths.
  // Each receiver has a twin that gets the same clauses in the same
  // order, every clause's literals shuffled, so it merges through the
  // sorting fallback. Both merges must store the same clauses in the same
  // literal order and leave the same trail, and the searches that follow
  // must match. No receiver may write the shared pool.
  const CnfFormula f = gen::random_ksat(200, 850, 3, 23);
  CdclSolver donor(f);
  cnf::ClausePool canonical;
  donor.set_share_callback([&](std::span<const cnf::Lit> c, std::uint32_t) {
    if (c.size() > 10 || canonical.size() >= 40) return;
    cnf::Clause sorted(c.begin(), c.end());
    std::sort(sorted.begin(), sorted.end());
    canonical.push_back(sorted);
  });
  (void)donor.solve(30'000);
  const auto shallow = advance_and_split(donor, 2000);
  ASSERT_TRUE(shallow.has_value());
  const auto deep = advance_and_split(donor, 2000);
  ASSERT_TRUE(deep.has_value());
  ASSERT_GE(deep->units.size(), 2u);
  ASSERT_GE(canonical.size(), 10u);

  // Hand-made clauses, classified at the deep receiver's level 0: a true
  // unit `a`, another `b`, and a variable `v` it leaves open.
  const Lit a = deep->units[0].lit;
  const Lit b = deep->units[1].lit;
  cnf::Var v = 1;
  while (std::any_of(deep->units.begin(), deep->units.end(),
                     [v](const SubproblemUnit& u) { return u.lit.var() == v; })) {
    ++v;
  }
  ASSERT_LE(v + 1, f.num_vars());
  const Lit open(v, false);
  const Lit other(v + 1, false);
  std::vector<cnf::Clause> crafted = {
      {open, ~open, other},  // tautology
      {open, open, other},   // repeated literal
      {a, open},             // satisfied
      {~a, open},            // made unit
      {~a, ~b},              // falsified: the deep receiver is refuted
  };
  for (cnf::Clause& c : crafted) {
    std::sort(c.begin(), c.end());
    canonical.push_back(c);
  }
  const auto batch = std::make_shared<const cnf::ClausePool>(canonical);

  util::Xoshiro256 rng(2003);
  const std::vector<Subproblem> receivers = {
      CdclSolver(f).to_subproblem(), *shallow, *deep};
  for (std::size_t k = 0; k < receivers.size(); ++k) {
    auto shuffled = std::make_shared<cnf::ClausePool>();
    for (const std::span<const Lit> lits : *batch) {
      cnf::Clause c(lits.begin(), lits.end());
      util::shuffle(c, rng);
      shuffled->push_back(c);
    }
    CdclSolver shared(receivers[k]);
    CdclSolver sorted(receivers[k]);
    shared.import_clauses(batch);
    sorted.import_clauses(std::move(shuffled));
    EXPECT_EQ(shared.pending_imports(), batch->size());
    // One decision: the merge has run and nothing has been learned yet.
    const SolveStatus merged = shared.solve(1);
    EXPECT_EQ(merged, sorted.solve(1)) << "receiver " << k;
    if (k + 1 == receivers.size()) {
      EXPECT_EQ(merged, SolveStatus::kUnsat);  // met the falsified clause
    }
    EXPECT_EQ(merged_state(shared), merged_state(sorted)) << "receiver " << k;
    EXPECT_EQ(shared.num_assigned(), sorted.num_assigned());
    EXPECT_EQ(shared.check_invariants(), "");
    EXPECT_EQ(sorted.check_invariants(), "");
    EXPECT_EQ(shared.solve(20'000), sorted.solve(20'000)) << "receiver " << k;
    const SolverStats& x = shared.stats();
    const SolverStats& y = sorted.stats();
    EXPECT_EQ(x.conflicts, y.conflicts);
    EXPECT_EQ(x.decisions, y.decisions);
    EXPECT_EQ(x.propagations, y.propagations);
    EXPECT_EQ(x.learned_clauses, y.learned_clauses);
    EXPECT_EQ(x.work, y.work);
    EXPECT_EQ(x.imported_clauses, y.imported_clauses);
    EXPECT_EQ(x.imported_useless, y.imported_useless);
    EXPECT_EQ(x.imported_used, y.imported_used);
    EXPECT_EQ(merged_state(shared), merged_state(sorted));
  }
  EXPECT_EQ(*batch, canonical);
}

TEST(SubproblemTest, SerializationRoundTrip) {
  Subproblem sp;
  sp.num_vars = 20;
  sp.units = {SubproblemUnit{Lit(3, false), false},
              SubproblemUnit{Lit(7, true), true}};
  sp.clauses = {{Lit(1, false), Lit(2, true)},
                {Lit(4, false), Lit(5, false), Lit(6, true)},
                {Lit(20, true)}};
  sp.num_problem_clauses = 2;
  sp.path = "~V7";
  const auto bytes = sp.to_bytes();
  EXPECT_EQ(bytes.size(), sp.wire_size());
  const Subproblem back = Subproblem::from_bytes(bytes);
  EXPECT_EQ(back, sp);
}

TEST(SubproblemTest, WireSizeMatchesSerializedSize) {
  const CnfFormula f = gen::urquhart_like(8, 2);
  CdclSolver solver(f);
  auto other = advance_and_split(solver);
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(other->to_bytes().size(), other->wire_size());
}

TEST(SubproblemTest, RoundTrippedSubproblemSolvesIdentically) {
  // Fine slices: binary-first BCP resolves this instance quickly, so ask
  // for a split at the earliest opportunity rather than every 200 units.
  const CnfFormula f = gen::graph_coloring(12, 30, 3, 7);
  CdclSolver solver(f);
  auto other = advance_and_split(solver, 20);
  ASSERT_TRUE(other.has_value());
  CdclSolver direct(*other);
  CdclSolver viawire(Subproblem::from_bytes(other->to_bytes()));
  EXPECT_EQ(direct.solve(), viawire.solve());
  EXPECT_EQ(direct.stats().decisions, viawire.stats().decisions);
}

TEST(MigrationTest, ToSubproblemResumesElsewhere) {
  // §3.4 migration: a client's current state can be captured and resumed
  // on another host with the same verdict.
  const CnfFormula f = gen::pigeonhole_unsat(6);
  const bool truth = false;  // pigeonhole is UNSAT
  CdclSolver source(f);
  (void)source.solve(5'000);  // make some progress
  const Subproblem snapshot = source.to_subproblem();
  CdclSolver target(snapshot);
  const SolveStatus status = target.solve();
  EXPECT_EQ(status, truth ? SolveStatus::kSat : SolveStatus::kUnsat);
}

TEST(MigrationTest, MigratedStateKeepsLearnedClauses) {
  const CnfFormula f = gen::pigeonhole_unsat(7);
  CdclSolver source(f);
  (void)source.solve(50'000);
  const Subproblem snapshot = source.to_subproblem();
  EXPECT_GT(snapshot.clauses.size(), snapshot.num_problem_clauses)
      << "learned clauses should ride along in a migration";
}

bool strictly_ascending(std::span<const Lit> c) {
  return std::adjacent_find(c.begin(), c.end(), [](Lit a, Lit b) {
           return !(a < b);
         }) == c.end();
}

template <class Clauses>
bool all_strictly_ascending(const Clauses& clauses) {
  return std::all_of(clauses.begin(), clauses.end(), strictly_ascending);
}

/// Pigeonhole codes span at most one 64-bit word per literal in most
/// clauses (the sender's bitmap pass); random 3-SAT over hundreds of
/// variables mostly spans more (its std::sort fallback).
std::vector<CnfFormula> ship_formulas() {
  return {gen::pigeonhole_unsat(8), gen::random_ksat(200, 850, 3, 23)};
}

TEST(CanonicalShipTest, ShippedClausesHaveAscendingCodes) {
  for (const CnfFormula& f : ship_formulas()) {
    // Before any search the problem block is the formula, each clause
    // sorted: the canonical copy keeps every literal.
    CdclSolver solver(f);
    std::vector<cnf::Clause> expected = f.clauses();
    for (cnf::Clause& c : expected) std::sort(c.begin(), c.end());
    EXPECT_EQ(solver.to_subproblem().clauses, cnf::ClausePool(expected));

    (void)solver.solve(30'000);
    const auto other = advance_and_split(solver, 2000);
    ASSERT_TRUE(other.has_value());
    EXPECT_GT(other->clauses.size(), other->num_problem_clauses);
    EXPECT_TRUE(all_strictly_ascending(other->clauses));
    EXPECT_TRUE(all_strictly_ascending(solver.to_subproblem().clauses));
    const std::vector<cnf::Clause> learned = solver.learned_clauses();
    EXPECT_FALSE(learned.empty());
    EXPECT_TRUE(all_strictly_ascending(learned));
  }
}

TEST(CanonicalShipTest, ShuffledShipRebuildsIdentically) {
  // The receiver stores a canonical clause without sorting it. A copy of
  // the same ship with every clause shuffled (and every fifth given a
  // duplicate literal) takes the sorting path, and must rebuild the same
  // solver: same search statistics and same state after a fixed budget.
  util::Xoshiro256 rng(2003);
  for (const CnfFormula& f : ship_formulas()) {
    CdclSolver donor(f);
    (void)donor.solve(30'000);
    const auto shipped = advance_and_split(donor, 2000);
    ASSERT_TRUE(shipped.has_value());
    Subproblem shuffled = *shipped;
    shuffled.clauses = cnf::ClausePool();
    for (std::size_t i = 0; i < shipped->clauses.size(); ++i) {
      const std::span<const Lit> lits = shipped->clauses[i];
      cnf::Clause c(lits.begin(), lits.end());
      if (i % 5 == 0) c.push_back(c.front());
      util::shuffle(c, rng);
      shuffled.clauses.push_back(c);
    }
    CdclSolver canonical(*shipped);
    CdclSolver rebuilt(shuffled);
    EXPECT_EQ(canonical.solve(50'000), rebuilt.solve(50'000));
    EXPECT_EQ(canonical.stats().conflicts, rebuilt.stats().conflicts);
    EXPECT_EQ(canonical.stats().decisions, rebuilt.stats().decisions);
    EXPECT_EQ(canonical.stats().propagations, rebuilt.stats().propagations);
    EXPECT_EQ(canonical.stats().work, rebuilt.stats().work);
    EXPECT_EQ(canonical.to_subproblem(), rebuilt.to_subproblem());
  }
}

TEST(CanonicalShipTest, PoolMatchesCanonicalizedArenaClauses) {
  // The pool to_subproblem() writes must hold exactly the clauses a
  // per-clause copy would: every arena clause not satisfied at level 0,
  // sorted and deduplicated, problem clauses first, each block in arena
  // order.
  for (const CnfFormula& f : ship_formulas()) {
    CdclSolver solver(f);
    (void)solver.solve(30'000);
    ASSERT_TRUE(advance_and_split(solver, 2000).has_value());
    std::vector<cnf::Clause> problem;
    std::vector<cnf::Clause> learned;
    solver.for_each_clause([&](std::span<const Lit> lits, bool is_learned) {
      for (const Lit l : lits) {
        if (solver.value(l) == cnf::LBool::kTrue &&
            solver.level_of(l.var()) == 0) {
          return;
        }
      }
      cnf::Clause c(lits.begin(), lits.end());
      std::sort(c.begin(), c.end());
      c.erase(std::unique(c.begin(), c.end()), c.end());
      (is_learned ? learned : problem).push_back(std::move(c));
    });
    const Subproblem sp = solver.to_subproblem();
    ASSERT_EQ(sp.num_problem_clauses, problem.size());
    ASSERT_EQ(sp.clauses.size(), problem.size() + learned.size());
    EXPECT_FALSE(learned.empty());
    for (std::size_t i = 0; i < sp.clauses.size(); ++i) {
      const cnf::Clause& want = i < problem.size()
                                    ? problem[i]
                                    : learned[i - problem.size()];
      const std::span<const Lit> got = sp.clauses[i];
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "clause " << i;
    }
  }
}

/// Donor states for the ship differential tests: solvers searched for a
/// while and split one to three times, so level 0 holds tainted units
/// and the arena holds learned and OTF-strengthened clauses. Every call
/// builds the same states (the search is deterministic).
std::vector<std::unique_ptr<CdclSolver>> ship_donors() {
  std::vector<std::unique_ptr<CdclSolver>> donors;
  util::Xoshiro256 rng(4242);
  for (int i = 0; i < 12; ++i) {
    const CnfFormula f =
        i % 3 == 0 ? gen::pigeonhole_unsat(7 + i % 2)
                   : gen::random_ksat(90 + 10 * (i % 4), 400 + 40 * (i % 4), 3,
                                      100 + i);
    auto donor = std::make_unique<CdclSolver>(f);
    (void)donor->solve(2000 + rng.below(20'000));
    const std::uint64_t splits = 1 + rng.below(3);
    for (std::uint64_t k = 0; k < splits; ++k) {
      if (!advance_and_split(*donor, 200 + rng.below(2000)).has_value()) break;
    }
    if (donor->status() == SolveStatus::kUnknown) {
      donors.push_back(std::move(donor));
    }
  }
  return donors;
}

/// Learned-clause budgets: none, tiny (trims nearly everything) and the
/// campaign default.
constexpr std::size_t kShipBudgets[] = {0, 48, 600, 64 * 1024};

TEST(BudgetedShipTest, ShipOrderTrimsLikeArenaOrder) {
  const std::vector<std::unique_ptr<CdclSolver>> donors = ship_donors();
  ASSERT_GE(donors.size(), 6u);
  std::uint64_t otf_strengthened = 0;
  std::size_t reordered = 0;
  std::size_t trimmed = 0;
  for (const auto& donor : donors) {
    otf_strengthened += donor->stats().otf_strengthened;
    for (const std::size_t budget : kShipBudgets) {
      Subproblem in_ship_order = donor->to_subproblem(budget);
      Subproblem in_arena_order = donor->to_subproblem();
      EXPECT_TRUE(all_strictly_ascending(in_ship_order.clauses));
      if (in_ship_order.clauses != in_arena_order.clauses) ++reordered;
      const std::size_t dropped = in_arena_order.trim_learned(budget);
      EXPECT_EQ(in_ship_order.trim_learned(budget), dropped);
      EXPECT_EQ(in_ship_order, in_arena_order) << "budget " << budget;
      trimmed += dropped;
    }
  }
  EXPECT_GT(otf_strengthened, 0u);
  EXPECT_GT(reordered, 0u) << "no donor's learned block needed reordering";
  EXPECT_GT(trimmed, 0u) << "no budget trimmed anything";
}

TEST(BudgetedShipTest, BudgetedSplitMatchesPlainSplit) {
  // Two copies of every donor split the same decision, one in ship order
  // and one in arena order: the trimmed payloads and the donors' kept
  // branches agree.
  for (const std::size_t budget : kShipBudgets) {
    const std::vector<std::unique_ptr<CdclSolver>> a = ship_donors();
    const std::vector<std::unique_ptr<CdclSolver>> b = ship_donors();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!a[i]->can_split()) continue;
      Subproblem ordered = a[i]->split(budget);
      Subproblem plain = b[i]->split();
      EXPECT_EQ(ordered.trim_learned(budget), plain.trim_learned(budget));
      EXPECT_EQ(ordered, plain) << "donor " << i << " budget " << budget;
      EXPECT_EQ(a[i]->to_subproblem(), b[i]->to_subproblem());
      EXPECT_EQ(a[i]->solve(5000), b[i]->solve(5000));
      EXPECT_EQ(a[i]->stats().work, b[i]->stats().work);
    }
  }
}

/// Every live clause of a solver, in arena order, with its learned flag.
std::vector<std::pair<cnf::Clause, bool>> clause_db(const CdclSolver& s) {
  std::vector<std::pair<cnf::Clause, bool>> out;
  s.for_each_clause([&](std::span<const Lit> lits, bool learned) {
    out.emplace_back(cnf::Clause(lits.begin(), lits.end()), learned);
  });
  return out;
}

/// `sp` with every clause of two or more literals out of ascending order
/// (shuffled, or reversed when the shuffle left it ascending).
Subproblem unsorted_copy(const Subproblem& sp, util::Xoshiro256& rng) {
  Subproblem out = sp;
  out.clauses = cnf::ClausePool();
  for (const std::span<const Lit> lits : sp.clauses) {
    cnf::Clause c(lits.begin(), lits.end());
    util::shuffle(c, rng);
    if (c.size() > 1 && strictly_ascending(c)) std::reverse(c.begin(), c.end());
    out.clauses.push_back(c);
  }
  return out;
}

/// True when some stored clause holds a literal and its negation.
bool stores_a_tautology(const CdclSolver& s) {
  bool found = false;
  s.for_each_clause([&](std::span<const Lit> lits, bool) {
    for (const Lit l : lits) {
      found = found || std::find(lits.begin(), lits.end(), ~l) != lits.end();
    }
  });
  return found;
}

/// Expect the same rebuilt solver: clause database (with no tautology
/// stored), level-0 units, sound invariants, and the same search from
/// there.
void expect_same_rebuild(const Subproblem& canonical,
                         const Subproblem& unsorted) {
  CdclSolver one_loop(canonical);
  CdclSolver sorting(unsorted);
  EXPECT_EQ(clause_db(one_loop), clause_db(sorting));
  EXPECT_FALSE(stores_a_tautology(one_loop));
  EXPECT_EQ(one_loop.level0_units(), sorting.level0_units());
  EXPECT_EQ(one_loop.check_invariants(), "");
  EXPECT_EQ(sorting.check_invariants(), "");
  EXPECT_EQ(one_loop.solve(20'000), sorting.solve(20'000));
  EXPECT_EQ(one_loop.stats().work, sorting.stats().work);
  EXPECT_EQ(one_loop.stats().conflicts, sorting.stats().conflicts);
  EXPECT_EQ(one_loop.stats().propagations, sorting.stats().propagations);
}

TEST(CanonicalShipTest, OneLoopRebuildMatchesSortingPath) {
  // The receiver stores a strictly ascending clause in one loop and
  // passes any other to the sorting path. Ships from random donor states,
  // with edge clauses appended to the learned block, rebuild the same
  // solver both ways: a tautology (ascending, so the one loop sees it), a
  // clause with a repeated literal, and a clause the units make unit.
  util::Xoshiro256 rng(2026);
  std::size_t rebuilt = 0;
  for (const auto& donor : ship_donors()) {
    for (const std::size_t budget : kShipBudgets) {
      Subproblem sp = donor->to_subproblem(budget);
      ASSERT_FALSE(sp.units.empty());
      const Lit unit = sp.units.back().lit;  // a tainted split assumption
      cnf::Var free_var = sp.num_vars;  // the last variable with no unit
      while (std::any_of(sp.units.begin(), sp.units.end(),
                         [&](const SubproblemUnit& u) {
                           return u.lit.var() == free_var;
                         })) {
        --free_var;
      }
      sp.clauses.push_back(
          cnf::Clause{Lit(free_var, false), Lit(free_var, true)});
      sp.clauses.push_back(cnf::Clause{Lit(free_var, true),
                                       Lit(free_var, true)});
      cnf::Clause made_unit{~unit, Lit(free_var, false)};
      std::sort(made_unit.begin(), made_unit.end());
      sp.clauses.push_back(made_unit);
      expect_same_rebuild(sp, unsorted_copy(sp, rng));
      ++rebuilt;
    }
  }
  EXPECT_GE(rebuilt, 24u);
}

TEST(CanonicalShipTest, OneLoopRebuildFindsTheSameConflict) {
  // A clause the units falsify refutes the ship on either path, after
  // the same clauses were stored.
  util::Xoshiro256 rng(7);
  for (const auto& donor : ship_donors()) {
    Subproblem sp = donor->to_subproblem();
    ASSERT_FALSE(sp.units.empty());
    cnf::Clause falsified{~sp.units.front().lit};
    if (sp.units.size() > 1) falsified.push_back(~sp.units.back().lit);
    std::sort(falsified.begin(), falsified.end());
    // Midway through the learned block, so clauses follow it.
    cnf::ClausePool clauses;
    const std::size_t mid =
        sp.num_problem_clauses + (sp.clauses.size() - sp.num_problem_clauses) / 2;
    clauses.append(sp.clauses, 0, mid);
    clauses.push_back(falsified);
    clauses.append(sp.clauses, mid, sp.clauses.size());
    sp.clauses = std::move(clauses);
    expect_same_rebuild(sp, unsorted_copy(sp, rng));
    CdclSolver refuted(sp);
    EXPECT_EQ(refuted.solve(), SolveStatus::kUnsat);
  }
}

}  // namespace
}  // namespace gridsat::solver
