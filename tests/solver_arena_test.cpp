// Direct unit tests for the clause arena: allocation layout, byte
// accounting, deletion/garbage collection with remapping, activity
// storage, and iteration.
#include <gtest/gtest.h>

#include <vector>

#include "solver/clause_arena.hpp"

namespace gridsat::solver {
namespace {

using cnf::Lit;

std::vector<Lit> lits(std::initializer_list<int> dimacs) {
  std::vector<Lit> out;
  for (const int d : dimacs) out.push_back(Lit::from_dimacs(d));
  return out;
}

TEST(ClauseArenaTest, AllocAndReadBack) {
  ClauseArena arena;
  const auto c = lits({1, -2, 3});
  const ClauseRef r = arena.alloc(c, /*learned=*/false);
  EXPECT_EQ(arena.size(r), 3u);
  EXPECT_FALSE(arena.learned(r));
  EXPECT_FALSE(arena.deleted(r));
  EXPECT_EQ(arena.lit(r, 0), Lit::from_dimacs(1));
  EXPECT_EQ(arena.lit(r, 1), Lit::from_dimacs(-2));
  EXPECT_EQ(arena.lit(r, 2), Lit::from_dimacs(3));
  const auto span = arena.lits(r);
  EXPECT_EQ(span.size(), 3u);
  EXPECT_EQ(arena.num_problem(), 1u);
  EXPECT_EQ(arena.num_learned(), 0u);
}

TEST(ClauseArenaTest, ByteAccounting) {
  ClauseArena arena;
  const ClauseRef a = arena.alloc(lits({1, 2}), false);
  const std::size_t after_one = arena.live_bytes();
  EXPECT_EQ(after_one, (ClauseArena::kHeaderWords + 2) * 4);
  const ClauseRef b = arena.alloc(lits({1, 2, 3, 4}), true);
  EXPECT_EQ(arena.live_bytes(), after_one + (ClauseArena::kHeaderWords + 4) * 4);
  arena.free(a);
  EXPECT_EQ(arena.live_bytes(), (ClauseArena::kHeaderWords + 4) * 4);
  EXPECT_EQ(arena.garbage_bytes(), after_one);
  EXPECT_TRUE(arena.deleted(a));
  EXPECT_FALSE(arena.deleted(b));
}

TEST(ClauseArenaTest, SetLit) {
  ClauseArena arena;
  const ClauseRef r = arena.alloc(lits({1, 2, 3}), false);
  arena.set_lit(r, 1, Lit::from_dimacs(-5));
  EXPECT_EQ(arena.lit(r, 0), Lit::from_dimacs(1));
  EXPECT_EQ(arena.lit(r, 1), Lit::from_dimacs(-5));
  EXPECT_EQ(arena.lit(r, 2), Lit::from_dimacs(3));
}

TEST(ClauseArenaTest, ActivityRoundTrip) {
  ClauseArena arena;
  const ClauseRef r = arena.alloc(lits({1, 2}), true);
  EXPECT_FLOAT_EQ(arena.activity(r), 0.0f);
  arena.set_activity(r, 3.5f);
  EXPECT_FLOAT_EQ(arena.activity(r), 3.5f);
}

TEST(ClauseArenaTest, LbdDefaultsToSizeAndRoundTrips) {
  ClauseArena arena;
  const ClauseRef r = arena.alloc(lits({1, 2, 3, 4}), true);
  // Pessimistic default: LBD == clause length until analyze() refines it.
  EXPECT_EQ(arena.lbd(r), 4u);
  arena.set_lbd(r, 2);
  EXPECT_EQ(arena.lbd(r), 2u);
  // LBD storage must not disturb its neighbors.
  EXPECT_EQ(arena.size(r), 4u);
  EXPECT_FLOAT_EQ(arena.activity(r), 0.0f);
  EXPECT_EQ(arena.lit(r, 0), Lit::from_dimacs(1));
}

TEST(ClauseArenaTest, LbdSurvivesGc) {
  ClauseArena arena;
  const ClauseRef a = arena.alloc(lits({1, 2}), true);
  const ClauseRef b = arena.alloc(lits({3, 4, 5}), true);
  arena.set_lbd(b, 2);
  arena.free(a);
  const auto remap = arena.gc();
  const ClauseRef b_new = remap(b);
  ASSERT_NE(b_new, kNoClause);
  EXPECT_EQ(arena.lbd(b_new), 2u);
}

TEST(ClauseArenaTest, ForEachSkipsDeleted) {
  ClauseArena arena;
  const ClauseRef a = arena.alloc(lits({1, 2}), false);
  const ClauseRef b = arena.alloc(lits({3, 4}), true);
  const ClauseRef c = arena.alloc(lits({5, 6}), false);
  arena.free(b);
  std::vector<ClauseRef> seen;
  arena.for_each([&](ClauseRef r) { seen.push_back(r); });
  EXPECT_EQ(seen, (std::vector<ClauseRef>{a, c}));
}

TEST(ClauseArenaTest, GcCompactsAndRemaps) {
  ClauseArena arena;
  const ClauseRef a = arena.alloc(lits({1, 2}), false);
  const ClauseRef b = arena.alloc(lits({3, 4, 5}), true);
  const ClauseRef c = arena.alloc(lits({6, 7}), false);
  arena.free(b);
  const std::size_t live_before = arena.live_bytes();
  const auto remap = arena.gc();
  EXPECT_EQ(arena.garbage_bytes(), 0u);
  EXPECT_EQ(arena.live_bytes(), live_before);
  EXPECT_EQ(remap(a), a);  // first clause does not move
  EXPECT_EQ(remap(b), kNoClause);
  const ClauseRef c_new = remap(c);
  EXPECT_NE(c_new, kNoClause);
  EXPECT_EQ(arena.lit(c_new, 0), Lit::from_dimacs(6));
  EXPECT_EQ(arena.lit(c_new, 1), Lit::from_dimacs(7));
  // Sentinels pass through.
  EXPECT_EQ(remap(kNoClause), kNoClause);
  EXPECT_EQ(remap(kDecisionReason), kDecisionReason);
}

TEST(ClauseArenaTest, GcOnEmptyAndFullyLive) {
  ClauseArena arena;
  (void)arena.gc();  // empty arena: no-op
  const ClauseRef a = arena.alloc(lits({1, 2}), false);
  const auto remap = arena.gc();
  EXPECT_EQ(remap(a), a);
}

TEST(ClauseArenaTest, RemoveLitShiftsTailAndPadsGap) {
  ClauseArena arena;
  const ClauseRef r = arena.alloc(lits({1, -2, 3, -4}), true);
  const std::size_t live_before = arena.live_bytes();
  arena.remove_lit(r, 1);  // drop -2 from the middle
  EXPECT_EQ(arena.size(r), 3u);
  EXPECT_EQ(arena.lit(r, 0), Lit::from_dimacs(1));
  EXPECT_EQ(arena.lit(r, 1), Lit::from_dimacs(3));
  EXPECT_EQ(arena.lit(r, 2), Lit::from_dimacs(-4));
  // The vacated word becomes pad: one word moves from live to garbage.
  EXPECT_EQ(arena.live_bytes(), live_before - 4);
  EXPECT_EQ(arena.garbage_bytes(), 4u);
  // Dropping the last slot works too.
  arena.remove_lit(r, 2);
  EXPECT_EQ(arena.size(r), 2u);
  EXPECT_EQ(arena.lit(r, 1), Lit::from_dimacs(3));
}

TEST(ClauseArenaTest, ForEachAndGcSkipPadWords) {
  ClauseArena arena;
  const ClauseRef a = arena.alloc(lits({1, 2, 3}), false);
  const ClauseRef b = arena.alloc(lits({4, 5, 6, 7}), true);
  arena.remove_lit(a, 2);  // pad word sits between a and b
  std::vector<ClauseRef> seen;
  arena.for_each([&](ClauseRef r) { seen.push_back(r); });
  EXPECT_EQ(seen, (std::vector<ClauseRef>{a, b}));
  const auto remap = arena.gc();
  // gc squeezes the pad out: b slides down by exactly one word.
  EXPECT_EQ(remap(a), a);
  EXPECT_EQ(remap(b), b - 1);
  EXPECT_EQ(arena.garbage_bytes(), 0u);
  EXPECT_EQ(arena.lit(remap(b), 3), Lit::from_dimacs(7));
}

TEST(ClauseArenaTest, GcOrderedRewritesInCallerOrder) {
  ClauseArena arena;
  const ClauseRef a = arena.alloc(lits({1, 2}), false);
  const ClauseRef b = arena.alloc(lits({3, 4, 5}), true);
  const ClauseRef c = arena.alloc(lits({6, 7}), true);
  const ClauseRef d = arena.alloc(lits({8, 9, 10}), false);
  arena.remove_lit(b, 2);  // leave a pad so compaction has work to do
  const std::size_t live_before = arena.live_bytes();
  // Caller-chosen layout: problem clauses first, then learned reversed.
  const std::vector<ClauseRef> order{a, d, c, b};
  const auto remap = arena.gc_ordered(order);
  EXPECT_EQ(arena.garbage_bytes(), 0u);
  EXPECT_EQ(arena.live_bytes(), live_before);
  // New refs are laid out exactly in the requested order.
  EXPECT_LT(remap(a), remap(d));
  EXPECT_LT(remap(d), remap(c));
  EXPECT_LT(remap(c), remap(b));
  // Payloads, flags, and sizes survive the move.
  EXPECT_EQ(arena.lit(remap(a), 0), Lit::from_dimacs(1));
  EXPECT_EQ(arena.lit(remap(d), 2), Lit::from_dimacs(10));
  EXPECT_EQ(arena.size(remap(b)), 2u);
  EXPECT_TRUE(arena.learned(remap(c)));
  EXPECT_FALSE(arena.learned(remap(d)));
  // The remap stays queryable by old ref even though the caller's order
  // was not address order (lookup re-sorts internally).
  EXPECT_EQ(remap(kNoClause), kNoClause);
  std::vector<ClauseRef> seen;
  arena.for_each([&](ClauseRef r) { seen.push_back(r); });
  EXPECT_EQ(seen.size(), 4u);
}

TEST(ClauseArenaTest, GcOrderedPreservesActivityAndLbd) {
  ClauseArena arena;
  const ClauseRef a = arena.alloc(lits({1, 2, 3}), true);
  const ClauseRef b = arena.alloc(lits({4, 5, 6}), true);
  arena.set_activity(a, 1.25f);
  arena.set_lbd(a, 2);
  arena.set_activity(b, 7.5f);
  const auto remap = arena.gc_ordered(std::vector<ClauseRef>{b, a});
  EXPECT_FLOAT_EQ(arena.activity(remap(a)), 1.25f);
  EXPECT_EQ(arena.lbd(remap(a)), 2u);
  EXPECT_FLOAT_EQ(arena.activity(remap(b)), 7.5f);
}

TEST(ClauseArenaTest, CountsTrackLearnedAndProblem) {
  ClauseArena arena;
  const ClauseRef a = arena.alloc(lits({1, 2}), true);
  (void)arena.alloc(lits({3, 4}), true);
  (void)arena.alloc(lits({5, 6}), false);
  EXPECT_EQ(arena.num_learned(), 2u);
  EXPECT_EQ(arena.num_problem(), 1u);
  arena.free(a);
  EXPECT_EQ(arena.num_learned(), 1u);
}

}  // namespace
}  // namespace gridsat::solver
