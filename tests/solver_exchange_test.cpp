// Clause-exchange tests: LBD computation on hand-built conflict graphs,
// fingerprint-based duplicate suppression, the sharded publish pool, and
// verdict determinism of the thread-parallel solver across 1/2/4/8
// threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "gen/random_ksat.hpp"
#include "gen/xor_chains.hpp"
#include "solver/brute_force.hpp"
#include "solver/cdcl.hpp"
#include "solver/parallel.hpp"
#include "solver/sharing.hpp"

namespace gridsat::solver {
namespace {

using cnf::CnfFormula;
using cnf::Lit;

// --- LBD on hand-built conflict graphs --------------------------------

/// Drive the solver through a scripted decision sequence and capture the
/// first conflict's record.
ConflictRecord first_conflict(const CnfFormula& f,
                              std::vector<std::int64_t> decisions) {
  SolverConfig config;
  config.restart_base = 0;
  CdclSolver solver(f, config);
  std::size_t next = 0;
  solver.set_decision_hook([&]() {
    if (next < decisions.size()) return Lit::from_dimacs(decisions[next++]);
    return cnf::kUndefLit;
  });
  std::vector<ConflictRecord> records;
  solver.set_conflict_observer(
      [&](const ConflictRecord& rec) { records.push_back(rec); });
  (void)solver.solve(100'000);
  EXPECT_FALSE(records.empty()) << "script produced no conflict";
  return records.empty() ? ConflictRecord{} : records.front();
}

TEST(LbdTest, TwoLevelConflictHasLbdTwo) {
  // Decide V1@1, V5@2; (~1 | ~5 | 6) implies 6, (~1 | ~5 | ~6) conflicts.
  // FirstUIP resolves to (~5 | ~1): literals at levels {2, 1} => LBD 2.
  CnfFormula f(6);
  f.add_dimacs_clause({-1, -5, 6});
  f.add_dimacs_clause({-1, -5, -6});
  const ConflictRecord rec = first_conflict(f, {1, 5});
  ASSERT_EQ(rec.learned_clause.size(), 2u);
  EXPECT_EQ(rec.lbd, 2u);
  EXPECT_EQ(rec.conflict_level, 2u);
}

TEST(LbdTest, ThreeLevelConflictHasLbdThree) {
  // Decisions V1@1, V2@2, V3@3; the pair of 4-clauses conflicts at level
  // 3 and learns (~3 | ~2 | ~1) spanning three levels.
  CnfFormula f(4);
  f.add_dimacs_clause({-1, -2, -3, 4});
  f.add_dimacs_clause({-1, -2, -3, -4});
  const ConflictRecord rec = first_conflict(f, {1, 2, 3});
  ASSERT_EQ(rec.learned_clause.size(), 3u);
  EXPECT_EQ(rec.lbd, 3u);
}

TEST(LbdTest, LearnedUnitHasLbdOne) {
  // Decide V1; the binary pair conflicts immediately; the learned clause
  // is the unit (~1) — one literal, one level, LBD 1.
  CnfFormula f(2);
  f.add_dimacs_clause({-1, 2});
  f.add_dimacs_clause({-1, -2});
  const ConflictRecord rec = first_conflict(f, {1});
  ASSERT_EQ(rec.learned_clause.size(), 1u);
  EXPECT_EQ(rec.lbd, 1u);
}

TEST(LbdTest, ShareCallbackReportsSameLbdAsConflictRecord) {
  const CnfFormula f = gen::random_ksat(30, 128, 3, 11);
  // On-the-fly strengthening re-exports clauses between conflicts, which
  // would break the 1:1 pairing of conflict records with share calls that
  // this test relies on; turn it off to compare learned exports only.
  SolverConfig cfg;
  cfg.otf_subsume = false;
  CdclSolver solver(f, cfg);
  std::vector<std::uint32_t> observed;
  std::vector<std::uint32_t> shared;
  solver.set_conflict_observer([&](const ConflictRecord& rec) {
    if (observed.size() < 200) observed.push_back(rec.lbd);
  });
  solver.set_share_callback([&](std::span<const cnf::Lit> c, std::uint32_t lbd) {
    if (shared.size() < 200) {
      shared.push_back(lbd);
      // LBD can never exceed the number of literals.
      EXPECT_LE(lbd, c.size());
      EXPECT_GE(lbd, 1u);
    }
  });
  (void)solver.solve(200'000);
  ASSERT_FALSE(shared.empty());
  const std::size_t n = std::min(observed.size(), shared.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(observed[i], shared[i]) << "conflict " << i;
  }
}

// --- Fingerprints and duplicate suppression ---------------------------

cnf::Clause make_clause(std::initializer_list<std::int64_t> dimacs) {
  cnf::Clause c;
  for (const std::int64_t d : dimacs) c.push_back(Lit::from_dimacs(d));
  return c;
}

TEST(FingerprintTest, OrderInsensitive) {
  const cnf::Clause a = make_clause({1, -2, 3});
  const cnf::Clause b = make_clause({3, 1, -2});
  const cnf::Clause c = make_clause({-2, 3, 1});
  EXPECT_EQ(clause_fingerprint(a), clause_fingerprint(b));
  EXPECT_EQ(clause_fingerprint(a), clause_fingerprint(c));
}

TEST(FingerprintTest, DistinguishesClauses) {
  const cnf::Clause base = make_clause({1, -2, 3});
  EXPECT_NE(clause_fingerprint(base), clause_fingerprint(make_clause({1, 2, 3})));
  EXPECT_NE(clause_fingerprint(base), clause_fingerprint(make_clause({1, -2})));
  EXPECT_NE(clause_fingerprint(base),
            clause_fingerprint(make_clause({1, -2, 3, 4})));
  EXPECT_NE(clause_fingerprint(base), clause_fingerprint(make_clause({-1, 2, -3})));
  EXPECT_NE(clause_fingerprint(make_clause({1})), 0u);
}

TEST(FingerprintFilterTest, SuppressesExactAndPermutedDuplicates) {
  FingerprintFilter filter(8);
  const cnf::Clause a = make_clause({4, -7, 9});
  const cnf::Clause permuted = make_clause({9, 4, -7});
  EXPECT_TRUE(filter.insert(clause_fingerprint(a)));
  EXPECT_FALSE(filter.insert(clause_fingerprint(a)));
  EXPECT_FALSE(filter.insert(clause_fingerprint(permuted)));
  EXPECT_TRUE(filter.insert(clause_fingerprint(make_clause({4, -7}))));
}

TEST(FingerprintFilterTest, ManyDistinctInsertsMostlyAdmitted) {
  // With 2^14 slots and 4k distinct clauses, collisions in the probe
  // window should be negligible.
  FingerprintFilter filter(14);
  std::size_t admitted = 0;
  for (int i = 1; i <= 4000; ++i) {
    const cnf::Clause c = make_clause({i, -(i + 1), i + 2});
    if (filter.insert(clause_fingerprint(c))) ++admitted;
  }
  EXPECT_EQ(admitted, 4000u);
  // And every one of them is now a duplicate.
  std::size_t readmitted = 0;
  for (int i = 1; i <= 4000; ++i) {
    const cnf::Clause c = make_clause({i + 2, i, -(i + 1)});  // permuted
    if (filter.insert(clause_fingerprint(c))) ++readmitted;
  }
  EXPECT_EQ(readmitted, 0u);
}

TEST(FingerprintFilterTest, ClearStartsANewSuppressionEpoch) {
  // Without clear(), one publish suppresses a clause for the rest of the
  // run — even after every importer has evicted its copy in reduce_db().
  // clear() must make the filter forget, so the clause can ship again.
  FingerprintFilter filter(8);
  const std::uint64_t fp = clause_fingerprint(make_clause({4, -7, 9}));
  EXPECT_TRUE(filter.insert(fp));
  EXPECT_FALSE(filter.insert(fp));  // suppressed within the epoch
  filter.clear();
  EXPECT_TRUE(filter.insert(fp));  // a new epoch re-admits it
  EXPECT_FALSE(filter.insert(fp));
}

TEST(FingerprintFilterTest, ClearEmptiesAFullTable) {
  // Fill a tiny table until probe windows saturate, then clear: every
  // fingerprint must be treated as fresh again (no stale residue).
  FingerprintFilter filter(4);  // 16 slots
  for (int i = 1; i <= 16; ++i) {
    (void)filter.insert(clause_fingerprint(make_clause({i, -(i + 1)})));
  }
  filter.clear();
  std::size_t admitted = 0;
  for (int i = 1; i <= 12; ++i) {
    if (filter.insert(clause_fingerprint(make_clause({i, -(i + 1)})))) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 12u);
}

TEST(FingerprintFilterTest, ConcurrentInsertersAgreeOnOneWinner) {
  FingerprintFilter filter(12);
  constexpr int kClauses = 1000;
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 1; i <= kClauses; ++i) {
        const cnf::Clause c = make_clause({i, -(i + 1), i + 2});
        if (filter.insert(clause_fingerprint(c))) ++wins;
      }
    });
  }
  for (auto& t : threads) t.join();
  // Each clause is admitted exactly once across all racing publishers.
  EXPECT_EQ(wins.load(), kClauses);
}

// --- Sharded pool ------------------------------------------------------

SharedClause shared(std::initializer_list<std::int64_t> dimacs,
                    std::uint32_t lbd) {
  return SharedClause{make_clause(dimacs), lbd};
}

TEST(SharedClausePoolTest, ReaderSeesOtherShardsNotOwn) {
  SharedClausePool pool(3);
  pool.publish(0, {shared({1, 2}, 2)});
  pool.publish(1, {shared({3, 4}, 2), shared({5, 6}, 1)});

  auto cursor = pool.make_cursor();
  std::vector<SharedClause> out;
  EXPECT_EQ(pool.collect(/*self=*/2, cursor, out), 3u);
  EXPECT_EQ(out.size(), 3u);

  // Own shard is skipped.
  auto cursor0 = pool.make_cursor();
  out.clear();
  EXPECT_EQ(pool.collect(/*self=*/0, cursor0, out), 2u);
  for (const SharedClause& sc : out) {
    EXPECT_NE(sc.lits, make_clause({1, 2}));
  }
}

TEST(SharedClausePoolTest, CursorAdvancesAndSeesOnlyNews) {
  SharedClausePool pool(2);
  auto cursor = pool.make_cursor();
  std::vector<SharedClause> out;
  pool.publish(0, {shared({1, 2}, 2)});
  EXPECT_EQ(pool.collect(1, cursor, out), 1u);
  out.clear();
  EXPECT_EQ(pool.collect(1, cursor, out), 0u);  // drained
  pool.publish(0, {shared({2, 3}, 2)});
  EXPECT_EQ(pool.collect(1, cursor, out), 1u);
  EXPECT_EQ(out[0].lits, make_clause({2, 3}));
}

TEST(SharedClausePoolTest, SkipToNowIgnoresHistory) {
  SharedClausePool pool(2);
  pool.publish(0, {shared({1, 2}, 2), shared({3, 4}, 2)});
  auto cursor = pool.make_cursor();
  pool.skip_to_now(cursor);
  std::vector<SharedClause> out;
  EXPECT_EQ(pool.collect(1, cursor, out), 0u);
  pool.publish(0, {shared({5, 6}, 1)});
  EXPECT_EQ(pool.collect(1, cursor, out), 1u);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(SharedClausePoolTest, ConcurrentPublishAndCollect) {
  // Two publishers on their own shards, two readers draining; TSan-clean
  // and no clause lost or duplicated per reader.
  SharedClausePool pool(4);
  constexpr int kPerPublisher = 500;
  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&pool, p] {
      for (int i = 1; i <= kPerPublisher; ++i) {
        pool.publish(static_cast<std::size_t>(p),
                     {shared({p * kPerPublisher + i, -(i + 1)}, 2)});
      }
    });
  }
  std::vector<std::size_t> collected(2, 0);
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&pool, &collected, r] {
      auto cursor = pool.make_cursor();
      std::vector<SharedClause> out;
      while (collected[static_cast<std::size_t>(r)] < 2 * kPerPublisher) {
        out.clear();
        collected[static_cast<std::size_t>(r)] +=
            pool.collect(/*self=*/2 + static_cast<std::size_t>(r), cursor, out);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(collected[0], 2u * kPerPublisher);
  EXPECT_EQ(collected[1], 2u * kPerPublisher);
  EXPECT_EQ(pool.size(), 2u * kPerPublisher);
}

// --- Verdict determinism across thread counts -------------------------

TEST(ExchangeDeterminismTest, VerdictIdenticalAcross1248Threads) {
  // A small suite of generated instances straddling the SAT/UNSAT
  // boundary; the verdict (never the model or the timing) must be
  // identical at every thread count and match brute force.
  for (const std::uint64_t seed : {3u, 21u, 77u, 140u, 251u, 304u}) {
    const CnfFormula f = gen::random_ksat(13, 55, 3, seed);
    const bool truth = brute_force_solve(f).has_value();
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      ParallelOptions options;
      options.num_threads = threads;
      options.slice_work = 5'000;  // force many cooperation points
      ParallelSolver solver(f, options);
      const ParallelResult result = solver.solve();
      EXPECT_EQ(result.status,
                truth ? SolveStatus::kSat : SolveStatus::kUnsat)
          << "seed " << seed << " threads " << threads;
      if (result.status == SolveStatus::kSat) {
        EXPECT_TRUE(cnf::is_model(f, result.model));
      }
    }
  }
}

TEST(ExchangeDeterminismTest, VerdictUnaffectedByDedupEpochLength) {
  // Re-share epochs only widen what may be shipped; the verdict must be
  // identical whether the filter forgets constantly, occasionally, or
  // never (dedup_clear_every = 0, the pre-epoch behaviour).
  for (const std::uint64_t seed : {21u, 77u, 140u}) {
    const CnfFormula f = gen::random_ksat(13, 55, 3, seed);
    const bool truth = brute_force_solve(f).has_value();
    for (const std::uint64_t epoch : {0u, 16u, 4096u}) {
      ParallelOptions options;
      options.num_threads = 4;
      options.slice_work = 5'000;
      options.dedup_clear_every = epoch;
      ParallelSolver solver(f, options);
      const ParallelResult result = solver.solve();
      EXPECT_EQ(result.status,
                truth ? SolveStatus::kSat : SolveStatus::kUnsat)
          << "seed " << seed << " epoch " << epoch;
    }
  }
}

TEST(ExchangeDeterminismTest, TinyDedupEpochKeepsCountersCoherent) {
  // With a 16-publish epoch the filter clears constantly; the accounting
  // identities must still hold (re-shares are counted as publishes).
  const CnfFormula f = gen::urquhart_like(10, 3);
  ParallelOptions options;
  options.num_threads = 4;
  options.slice_work = 10'000;
  options.dedup_clear_every = 16;
  ParallelSolver solver(f, options);
  const ParallelResult result = solver.solve();
  EXPECT_EQ(result.status, SolveStatus::kUnsat);
  EXPECT_GT(result.stats.clauses_published, 0u);
  EXPECT_LE(result.stats.clauses_imported,
            result.stats.clauses_published * (options.num_threads - 1));
}

TEST(ExchangeDeterminismTest, SharingInstanceExercisesExchangeCounters) {
  // XOR-parity instance where sharing matters: the exchange path must
  // actually run (publishes) and its accounting must stay coherent.
  const CnfFormula f = gen::urquhart_like(10, 3);
  ParallelOptions options;
  options.num_threads = 4;
  options.slice_work = 10'000;
  ParallelSolver solver(f, options);
  const ParallelResult result = solver.solve();
  EXPECT_EQ(result.status, SolveStatus::kUnsat);
  EXPECT_GT(result.stats.clauses_published, 0u);
  // Importers can only receive what was published, from at most
  // threads-1 foreign shards each.
  EXPECT_LE(result.stats.clauses_imported,
            result.stats.clauses_published * (options.num_threads - 1));
}

}  // namespace
}  // namespace gridsat::solver
