// Wire-format tests (DESIGN.md §4e): golden-bytes compatibility fixtures
// for the v2 encoding, the wire_size() == serialize().size() property,
// sorted-vs-shuffled clause encoding and the trim_learned() budget bound
// over randomized payloads, delta checkpoint chain restores, and the
// campaign-level base-ref caching / renegotiation / incremental-
// checkpoint behaviours.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cnf/wire.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/protocol.hpp"
#include "gen/pigeonhole.hpp"
#include "solver/sharing.hpp"
#include "solver/subproblem.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace gridsat {
namespace {

using cnf::Lit;

// ---------------------------------------------------------------------------
// Golden bytes. These fixtures pin the v2 wire format: if an encoder
// change alters any of them, bump cnf::kWireFormatVersion and regenerate
// (the fixtures are the serialized forms of the payloads built in each
// test). Old and new binaries must never silently exchange payloads —
// the frame's leading version byte is the gate.
// ---------------------------------------------------------------------------

const char* const kGoldenSubproblemFull =
    "020006000000020207020105037e5632887766554433221102010109"
    "02010203010301040303";

const char* const kGoldenSubproblemBaseRef =
    "020106000000020207020105037e5632887766554433221101030104"
    "0303";

const char* const kGoldenCheckpointDelta =
    "020303050401040001080102010501";

const char* const kGoldenRegisterFrame =
    "02020400000005000000";

const char* const kGoldenCheckpointAckFrame =
    "021006000000070000000309";

std::vector<std::uint8_t> from_hex(const char* hex) {
  const std::string s(hex);
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
    bytes.push_back(
        static_cast<std::uint8_t>(std::stoul(s.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

/// The fixture payload behind the subproblem goldens: canonical wire
/// order (clauses ascending by length per stream, literal codes sorted),
/// so decoding its bytes is the identity.
solver::Subproblem golden_subproblem() {
  solver::Subproblem sp;
  sp.num_vars = 6;
  sp.units = {{Lit(1, false), false}, {Lit(3, true), true}};
  sp.clauses = {{Lit(4, true)},
                {Lit(1, false), Lit(2, true)},
                {Lit(2, false), Lit(3, true), Lit(5, false)}};
  sp.num_problem_clauses = 2;
  sp.assumptions = {Lit(2, true)};
  sp.path = "~V2";
  sp.base_fingerprint = 0x1122334455667788ull;
  return sp;
}

TEST(GoldenBytesTest, SubproblemFullMatchesFixture) {
  const solver::Subproblem sp = golden_subproblem();
  EXPECT_EQ(sp.to_bytes(solver::WireMode::kFull),
            from_hex(kGoldenSubproblemFull));
  // A current decoder must read the checked-in bytes back exactly.
  const solver::Subproblem back =
      solver::Subproblem::from_bytes(from_hex(kGoldenSubproblemFull));
  EXPECT_EQ(back, sp);
}

TEST(GoldenBytesTest, SubproblemBaseRefMatchesFixture) {
  const solver::Subproblem sp = golden_subproblem();
  EXPECT_EQ(sp.to_bytes(solver::WireMode::kBaseRef),
            from_hex(kGoldenSubproblemBaseRef));
  solver::Subproblem back =
      solver::Subproblem::from_bytes(from_hex(kGoldenSubproblemBaseRef));
  EXPECT_TRUE(back.needs_base);
  EXPECT_EQ(back.num_problem_clauses, 0u);
  EXPECT_EQ(back.base_fingerprint, sp.base_fingerprint);
  // Splicing the problem block back in restores the full payload.
  const std::vector<cnf::Clause> base(sp.clauses.begin(),
                                      sp.clauses.begin() + 2);
  back.rehydrate(base);
  EXPECT_EQ(back, sp);
}

TEST(GoldenBytesTest, CheckpointDeltaMatchesFixture) {
  core::Checkpoint cp;
  cp.heavy = true;
  cp.delta = true;
  cp.incarnation = 3;
  cp.epoch = 5;
  cp.base_epoch = 4;
  cp.units = {{Lit(2, false), false}};
  cp.assumptions = {Lit(4, false)};
  cp.learned = {{Lit(2, true), Lit(3, false)}};
  EXPECT_EQ(cp.to_bytes(), from_hex(kGoldenCheckpointDelta));
  EXPECT_EQ(core::Checkpoint::from_bytes(from_hex(kGoldenCheckpointDelta)),
            cp);
}

TEST(GoldenBytesTest, ProtocolFramesMatchFixturesAndGateOnVersion) {
  using core::protocol::Message;
  const auto reg = core::protocol::encode(Message{core::protocol::Register{5}});
  EXPECT_EQ(reg, from_hex(kGoldenRegisterFrame));
  const auto ack = core::protocol::encode(
      Message{core::protocol::CheckpointAck{7, 3, 9}});
  EXPECT_EQ(ack, from_hex(kGoldenCheckpointAckFrame));

  // Every frame leads with the format version; a binary speaking another
  // version must reject the frame rather than misparse it.
  ASSERT_FALSE(reg.empty());
  EXPECT_EQ(reg[0], cnf::kWireFormatVersion);
  auto wrong_version = reg;
  wrong_version[0] = static_cast<std::uint8_t>(cnf::kWireFormatVersion + 1);
  EXPECT_FALSE(core::protocol::decode(wrong_version).has_value());
}

// ---------------------------------------------------------------------------
// Property: wire_size() is exact — it runs the real encoder against a
// counting writer, so it must equal serialize().size() for arbitrary
// payloads under every mode.
// ---------------------------------------------------------------------------

solver::Subproblem random_subproblem(util::Xoshiro256& rng) {
  solver::Subproblem sp;
  sp.num_vars = static_cast<cnf::Var>(10 + rng.below(50));
  const auto random_lit = [&] {
    return Lit(static_cast<cnf::Var>(1 + rng.below(sp.num_vars)),
               rng.below(2) == 0);
  };
  const std::size_t num_units = rng.below(12);
  for (std::size_t i = 0; i < num_units; ++i) {
    sp.units.push_back({random_lit(), rng.below(3) == 0});
  }
  const std::size_t num_clauses = rng.below(40);
  for (std::size_t i = 0; i < num_clauses; ++i) {
    cnf::Clause clause;
    const std::size_t len = 1 + rng.below(7);
    for (std::size_t j = 0; j < len; ++j) clause.push_back(random_lit());
    sp.clauses.push_back(std::move(clause));
  }
  sp.num_problem_clauses = sp.clauses.empty() ? 0 : rng.below(num_clauses + 1);
  const std::size_t num_assumptions = rng.below(6);
  for (std::size_t i = 0; i < num_assumptions; ++i) {
    sp.assumptions.push_back(random_lit());
  }
  sp.path = std::string(rng.below(20), 'p');
  sp.base_fingerprint = rng.next();
  return sp;
}

std::size_t learned_block_bytes(std::span<const cnf::Clause> learned) {
  util::ByteCounter counter;
  cnf::encode_clause_stream(counter, learned);
  return counter.size();
}

std::size_t distinct_lengths(std::span<const cnf::Clause> clauses) {
  std::set<std::size_t> lengths;
  for (const cnf::Clause& c : clauses) lengths.insert(c.size());
  return lengths.size();
}

/// trim_learned()'s documented bound on the encoded learned block.
std::size_t trim_bound(std::size_t budget, std::size_t count,
                       std::size_t distinct) {
  util::ByteCounter count_varint;
  count_varint.var_u64(count);
  return budget + count_varint.size() + 2 * distinct;
}

TEST(WirePropertyTest, SubproblemWireSizeEqualsSerializedSize) {
  util::Xoshiro256 rng(2024);
  for (int i = 0; i < 200; ++i) {
    const solver::Subproblem sp = random_subproblem(rng);
    for (const auto mode :
         {solver::WireMode::kFull, solver::WireMode::kBaseRef}) {
      EXPECT_EQ(sp.wire_size(mode), sp.to_bytes(mode).size())
          << "mode " << static_cast<int>(mode) << " iteration " << i;
    }
    // Decoding canonicalizes; re-encoding the canonical form is a
    // fixpoint with the same exact-size property.
    const solver::Subproblem back =
        solver::Subproblem::from_bytes(sp.to_bytes(solver::WireMode::kFull));
    EXPECT_EQ(back.wire_size(), back.to_bytes().size());
    EXPECT_EQ(solver::Subproblem::from_bytes(back.to_bytes()), back);
    // A trimmed learned block stays within its documented bound; budgets
    // sweep from dropping every learned clause to keeping them all.
    solver::Subproblem trimmed = sp;
    const auto budget = static_cast<std::size_t>(i);
    trimmed.trim_learned(budget);
    const auto learned = std::span<const cnf::Clause>(trimmed.clauses)
                             .subspan(trimmed.num_problem_clauses);
    EXPECT_LE(learned_block_bytes(learned),
              trim_bound(budget, learned.size(), distinct_lengths(learned)))
        << "iteration " << i;
  }
}

TEST(WirePropertyTest, BaseRefFormDropsOnlyTheProblemBlock) {
  util::Xoshiro256 rng(3030);
  for (int i = 0; i < 200; ++i) {
    const solver::Subproblem sp = random_subproblem(rng);
    const auto all = std::span<const cnf::Clause>(sp.clauses);
    const auto split = static_cast<std::size_t>(sp.num_problem_clauses);
    // The two forms differ by exactly the encoded problem-clause block.
    EXPECT_EQ(sp.wire_size(solver::WireMode::kFull),
              sp.wire_size(solver::WireMode::kBaseRef) +
                  learned_block_bytes(all.subspan(0, split)))
        << "iteration " << i;
    // Splicing the base back into a decoded base-ref payload restores
    // exactly what the full form decodes to.
    const solver::Subproblem full =
        solver::Subproblem::from_bytes(sp.to_bytes(solver::WireMode::kFull));
    solver::Subproblem ref =
        solver::Subproblem::from_bytes(sp.to_bytes(solver::WireMode::kBaseRef));
    ASSERT_TRUE(ref.needs_base) << "iteration " << i;
    EXPECT_EQ(ref.num_problem_clauses, 0u) << "iteration " << i;
    const auto full_clauses = std::span<const cnf::Clause>(full.clauses);
    ref.rehydrate(full_clauses.subspan(0, full.num_problem_clauses));
    EXPECT_EQ(ref, full) << "iteration " << i;
  }
}

TEST(WirePropertyTest, SortedAndShuffledClausesEncodeIdentically) {
  // The encoder takes a sorted clause as is and sorts any other first; the
  // two paths must emit the same bytes. Random literals repeat, so sorted
  // clauses with duplicate codes (gap 0) are covered too.
  util::Xoshiro256 rng(4242);
  for (int i = 0; i < 200; ++i) {
    solver::Subproblem sorted = random_subproblem(rng);
    for (cnf::Clause& c : sorted.clauses) std::sort(c.begin(), c.end());
    solver::Subproblem shuffled = sorted;
    for (cnf::Clause& c : shuffled.clauses) util::shuffle(c, rng);
    for (const auto mode :
         {solver::WireMode::kFull, solver::WireMode::kBaseRef}) {
      EXPECT_EQ(sorted.to_bytes(mode), shuffled.to_bytes(mode))
          << "mode " << static_cast<int>(mode) << " iteration " << i;
      EXPECT_EQ(sorted.wire_size(mode), shuffled.wire_size(mode))
          << "mode " << static_cast<int>(mode) << " iteration " << i;
    }
  }
}

TEST(WirePropertyTest, CheckpointWireSizeEqualsSerializedSize) {
  util::Xoshiro256 rng(4048);
  for (int i = 0; i < 200; ++i) {
    core::Checkpoint cp;
    cp.heavy = rng.below(2) == 0;
    cp.delta = cp.heavy && rng.below(2) == 0;
    cp.incarnation = rng.below(1000);
    cp.epoch = 1 + rng.below(100);
    cp.base_epoch = cp.delta ? rng.below(cp.epoch) : 0;
    const std::size_t num_units = rng.below(10);
    for (std::size_t u = 0; u < num_units; ++u) {
      cp.units.push_back({Lit(static_cast<cnf::Var>(1 + rng.below(30)),
                              rng.below(2) == 0),
                          rng.below(4) == 0});
    }
    const std::size_t num_learned = cp.heavy ? rng.below(20) : 0;
    for (std::size_t c = 0; c < num_learned; ++c) {
      cnf::Clause clause;
      const std::size_t len = 1 + rng.below(5);
      for (std::size_t j = 0; j < len; ++j) {
        clause.push_back(
            Lit(static_cast<cnf::Var>(1 + rng.below(30)), rng.below(2) == 0));
      }
      cp.learned.push_back(std::move(clause));
    }
    EXPECT_EQ(cp.wire_size(), cp.to_bytes().size()) << "iteration " << i;
  }
}

// ---------------------------------------------------------------------------
// Incremental checkpoint chains: restore replays base + deltas.
// ---------------------------------------------------------------------------

TEST(CheckpointChainTest, RestoreChainReplaysBaseAndDeltas) {
  cnf::CnfFormula f(5);
  f.add_dimacs_clause({1, 2, 3});
  f.add_dimacs_clause({-1, 4});

  core::Checkpoint full;
  full.heavy = true;
  full.incarnation = 9;
  full.epoch = 1;
  full.units = {{Lit(1, false), false}};
  full.assumptions = {Lit(2, false)};
  full.learned = {{Lit(2, false), Lit(4, false)}};

  core::Checkpoint delta;
  delta.heavy = true;
  delta.delta = true;
  delta.incarnation = 9;
  delta.epoch = 2;
  delta.base_epoch = 1;
  delta.units = {{Lit(1, false), false}, {Lit(4, false), true}};
  delta.assumptions = {Lit(2, false)};
  delta.learned = {{Lit(3, false), Lit(5, true)}};

  const std::vector<core::Checkpoint> chain = {full, delta};
  const solver::Subproblem sp = core::restore_chain(chain, f);
  // Units and assumptions come from the newest entry; the clause set is
  // the original formula plus every chain entry's learned clauses.
  EXPECT_EQ(sp.units, delta.units);
  EXPECT_EQ(sp.assumptions, delta.assumptions);
  EXPECT_EQ(sp.num_problem_clauses, f.num_clauses());
  ASSERT_EQ(sp.clauses.size(), f.num_clauses() + 2);
  EXPECT_EQ(sp.clauses[f.num_clauses()], full.learned[0]);
  EXPECT_EQ(sp.clauses[f.num_clauses() + 1], delta.learned[0]);
}

TEST(CheckpointChainTest, SingleFullChainMatchesDirectRestore) {
  cnf::CnfFormula f(3);
  f.add_dimacs_clause({1, -2});
  core::Checkpoint cp;
  cp.heavy = true;
  cp.units = {{Lit(2, true), false}};
  cp.learned = {{Lit(1, false), Lit(3, true)}};
  const std::vector<core::Checkpoint> chain = {cp};
  EXPECT_EQ(core::restore_chain(chain, f), cp.restore(f));
}

// ---------------------------------------------------------------------------
// Campaign integration: residency-driven base-ref ships, the
// renegotiate-on-mismatch fallback, and delta-chain recovery.
// ---------------------------------------------------------------------------

constexpr std::size_t kMiB = 1024 * 1024;

std::vector<sim::HostSpec> wire_testbed() {
  std::vector<sim::HostSpec> hosts;
  for (int i = 0; i < 4; ++i) {
    sim::HostSpec spec;
    spec.name = "w" + std::to_string(i);
    spec.site = i < 2 ? "east" : "west";
    spec.speed = 3000.0 + 500.0 * i;
    spec.memory_bytes = 32 * kMiB;
    spec.seed = 300 + i;
    hosts.push_back(spec);
  }
  return hosts;
}

core::GridSatConfig wire_config() {
  core::GridSatConfig config;
  config.split_timeout_s = 2.0;  // force early splitting
  config.overall_timeout_s = 50000.0;
  config.client_quantum_s = 0.5;
  config.min_client_memory = 1 * kMiB;
  return config;
}

TEST(CampaignWireTest, BaseRefCachingSavesBytesWithUnchangedVerdict) {
  const cnf::CnfFormula f = gen::pigeonhole_unsat(8);
  core::Campaign campaign(f, "east", wire_testbed(), wire_config());
  const core::GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, core::CampaignStatus::kUnsat);
  // With splits bouncing between four hosts, repeat transfers hit warm
  // receivers and ship fingerprints instead of the problem block.
  EXPECT_GE(result.base_ref_transfers, 1u);
  EXPECT_EQ(result.base_renegotiations, 0u);
}

TEST(CampaignWireTest, StaleResidencyRenegotiatesToFullShip) {
  const cnf::CnfFormula f = gen::pigeonhole_unsat(6);
  core::Campaign campaign(f, "east", wire_testbed(), wire_config());
  // Lie to the master: every host supposedly holds the base already. The
  // first ship goes out as a base-ref, hits a client with an empty
  // cache, and must degrade to a full ship via BASE_MISS — a stale cache
  // costs a round trip, never a wrong formula.
  for (std::size_t i = 0; i < campaign.num_hosts(); ++i) {
    campaign.debug_mark_base_resident(i);
  }
  const core::GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, core::CampaignStatus::kUnsat);
  EXPECT_GE(result.base_renegotiations, 1u);
}

TEST(CampaignWireTest, IncrementalCheckpointRecoveryRestoresChain) {
  const cnf::CnfFormula f = gen::pigeonhole_unsat(8);
  core::GridSatConfig config = wire_config();
  config.checkpoint = core::CheckpointMode::kHeavy;
  config.checkpoint_interval_s = 1.0;
  config.recover_from_checkpoints = true;
  core::Campaign campaign(f, "east", wire_testbed(), config);
  campaign.schedule_client_failure(0, 10.0);
  const core::GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, core::CampaignStatus::kUnsat);
  EXPECT_GE(result.checkpoint_recoveries, 1u);
  // The chain actually went incremental: full snapshots are rare, deltas
  // carry the cadence.
  EXPECT_GE(result.checkpoints_full, 1u);
  EXPECT_GE(result.checkpoints_delta, 1u);
  EXPECT_GT(result.checkpoints_delta, result.checkpoints_full);
}

TEST(SubproblemTrimTest, KeepsProblemBlockAndShortestLearned) {
  solver::Subproblem sp;
  sp.num_vars = 10;
  sp.clauses = {{Lit(1, false), Lit(2, false)},
                {Lit(3, false), Lit(4, false), Lit(5, false)},
                {Lit(1, false), Lit(2, true), Lit(3, true), Lit(4, true),
                 Lit(5, true)},
                {Lit(6, false)},
                {Lit(7, false), Lit(8, true)}};
  sp.num_problem_clauses = 2;
  const std::size_t full = sp.wire_size();
  // Cost model: 1 byte bookkeeping + 1 varint per literal — budget 6
  // fits the unit (2) and the binary (3) but not the 5-literal clause.
  const std::size_t dropped = sp.trim_learned(6);
  EXPECT_EQ(dropped, 1u);
  ASSERT_EQ(sp.clauses.size(), 4u);
  // Problem block untouched, in order; kept learned sorted shortest-first.
  EXPECT_EQ(sp.clauses[0].size(), 2u);
  EXPECT_EQ(sp.clauses[1].size(), 3u);
  EXPECT_EQ(sp.clauses[2], (cnf::Clause{Lit(6, false)}));
  EXPECT_EQ(sp.clauses[3], (cnf::Clause{Lit(7, false), Lit(8, true)}));
  EXPECT_LT(sp.wire_size(), full);
  // A roomy budget drops nothing further.
  EXPECT_EQ(sp.trim_learned(1u << 20), 0u);
}

TEST(SubproblemTrimTest, BlockCanExceedBudgetByRunHeaders) {
  // Three learned clauses of distinct lengths, all literals 1 byte: the
  // cost model charges (1+1) + (1+2) + (1+3) = 9 and keeps all three, but
  // the encoded block is 13 bytes — 1 count byte, a 2-byte (len, run)
  // header per length, and 6 literal bytes. The documented bound is
  // 9 + 1 + 2 x 3 = 16.
  solver::Subproblem sp;
  sp.num_vars = 6;
  sp.clauses = {{Lit(1, false)},
                {Lit(2, false), Lit(3, false)},
                {Lit(4, false), Lit(5, false), Lit(6, false)}};
  EXPECT_EQ(sp.trim_learned(9), 0u);
  ASSERT_EQ(sp.clauses.size(), 3u);
  const std::size_t bytes = learned_block_bytes(sp.clauses);
  EXPECT_EQ(bytes, 13u);
  EXPECT_LE(bytes, trim_bound(9, 3, 3));
}

TEST(CampaignWireTest, SplitBudgetBoundsShipsWithUnchangedVerdict) {
  const cnf::CnfFormula f = gen::pigeonhole_unsat(8);
  core::GridSatConfig unlimited = wire_config();
  unlimited.split_learned_budget_bytes = 0;
  core::Campaign a(f, "east", wire_testbed(), unlimited);
  const core::GridSatResult ra = a.run();

  core::GridSatConfig bounded = wire_config();
  bounded.split_learned_budget_bytes = 512;
  core::Campaign b(f, "east", wire_testbed(), bounded);
  const core::GridSatResult rb = b.run();

  EXPECT_EQ(ra.status, core::CampaignStatus::kUnsat);
  EXPECT_EQ(rb.status, core::CampaignStatus::kUnsat);
  EXPECT_EQ(ra.ship_learned_trimmed, 0u);
  EXPECT_GT(rb.ship_learned_trimmed, 0u);
}

TEST(CampaignWireTest, ChainMaxZeroShipsOnlyFullCheckpoints) {
  const cnf::CnfFormula f = gen::pigeonhole_unsat(8);
  core::GridSatConfig config = wire_config();
  config.checkpoint = core::CheckpointMode::kHeavy;
  config.checkpoint_interval_s = 1.0;
  config.recover_from_checkpoints = true;
  config.checkpoint_chain_max = 0;
  core::Campaign campaign(f, "east", wire_testbed(), config);
  campaign.schedule_client_failure(0, 10.0);
  const core::GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, core::CampaignStatus::kUnsat);
  EXPECT_EQ(result.checkpoints_delta, 0u);
  EXPECT_GE(result.checkpoints_full, 1u);
}

}  // namespace
}  // namespace gridsat
