// Wire-protocol codec tests: every message type round-trips, malformed
// frames are rejected (never crash), and the big payloads (subproblems,
// clause batches, checkpoints) survive encode/decode intact.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/protocol.hpp"
#include "gen/pigeonhole.hpp"
#include "solver/cdcl.hpp"
#include "solver/sharing.hpp"
#include "util/rng.hpp"

namespace gridsat::core::protocol {
namespace {

using cnf::Lit;

template <typename T>
T roundtrip(const Message& message) {
  const auto bytes = encode(message);
  const auto back = decode(bytes);
  EXPECT_TRUE(back.has_value());
  EXPECT_EQ(type_of(*back), type_of(message));
  return std::get<T>(*back);
}

TEST(ProtocolTest, ControlMessagesRoundTrip) {
  EXPECT_EQ(roundtrip<Register>(Register{7}).host_index, 7u);
  EXPECT_EQ(roundtrip<SubproblemAck>(SubproblemAck{3}).host_index, 3u);
  EXPECT_EQ(roundtrip<SplitGrant>(SplitGrant{12}).peer_host, 12u);
  EXPECT_EQ(roundtrip<MigrateOrder>(MigrateOrder{5}).peer_host, 5u);
  EXPECT_EQ(roundtrip<SubproblemUnsat>(SubproblemUnsat{9}).host_index, 9u);
  (void)roundtrip<Launch>(Launch{});

  SplitRequest req;
  req.host_index = 4;
  req.reason = SplitRequest::Reason::kMemory;
  const auto back = roundtrip<SplitRequest>(req);
  EXPECT_EQ(back.host_index, 4u);
  EXPECT_EQ(back.reason, SplitRequest::Reason::kMemory);

  SplitDone done;
  done.from_host = 1;
  done.to_host = 2;
  const auto done_back = roundtrip<SplitDone>(done);
  EXPECT_EQ(done_back.from_host, 1u);
  EXPECT_EQ(done_back.to_host, 2u);

  SplitFailed failed;
  failed.requester = 6;
  failed.peer = 8;
  const auto failed_back = roundtrip<SplitFailed>(failed);
  EXPECT_EQ(failed_back.requester, 6u);
  EXPECT_EQ(failed_back.peer, 8u);

  Migrated migrated;
  migrated.from_host = 2;
  migrated.to_host = 0;
  EXPECT_EQ(roundtrip<Migrated>(migrated).to_host, 0u);
}

TEST(ProtocolTest, SubproblemPayloadRoundTrips) {
  // A real subproblem from a real split.
  const auto f = gen::pigeonhole_unsat(6);
  solver::CdclSolver solver(f);
  while (!solver.can_split() &&
         solver.solve(200) == solver::SolveStatus::kUnknown) {
  }
  ASSERT_TRUE(solver.can_split());
  SubproblemMsg msg{solver.split()};
  const auto back = roundtrip<SubproblemMsg>(msg);
  // The codec reorders clauses into canonical wire order (length runs,
  // sorted literals), so compare canonical serializations rather than
  // in-memory layout; decoding canonical bytes is the identity.
  EXPECT_EQ(back.subproblem.to_bytes(), msg.subproblem.to_bytes());
  EXPECT_EQ(back.subproblem.units, msg.subproblem.units);
  EXPECT_EQ(back.subproblem.assumptions, msg.subproblem.assumptions);
  EXPECT_EQ(back.subproblem.num_problem_clauses,
            msg.subproblem.num_problem_clauses);
  const auto again = roundtrip<SubproblemMsg>(back);
  EXPECT_EQ(again.subproblem, back.subproblem);

  SubproblemReject reject;
  reject.host_index = 11;
  reject.subproblem = msg.subproblem;
  const auto reject_back = roundtrip<SubproblemReject>(reject);
  EXPECT_EQ(reject_back.host_index, 11u);
  EXPECT_EQ(reject_back.subproblem.to_bytes(), msg.subproblem.to_bytes());
}

TEST(ProtocolTest, SubproblemBaseRefRoundTrips) {
  const auto f = gen::pigeonhole_unsat(6);
  solver::CdclSolver solver(f);
  while (!solver.can_split() &&
         solver.solve(200) == solver::SolveStatus::kUnknown) {
  }
  ASSERT_TRUE(solver.can_split());
  SubproblemMsg msg{solver.split(), solver::WireMode::kBaseRef};
  msg.subproblem.base_fingerprint = solver::formula_fingerprint(f);

  const auto back = roundtrip<SubproblemMsg>(msg);
  EXPECT_EQ(back.mode, solver::WireMode::kBaseRef);
  EXPECT_TRUE(back.subproblem.needs_base);
  EXPECT_EQ(back.subproblem.num_problem_clauses, 0u);
  EXPECT_EQ(back.subproblem.base_fingerprint, msg.subproblem.base_fingerprint);
  EXPECT_EQ(back.subproblem.units, msg.subproblem.units);
  EXPECT_EQ(back.subproblem.assumptions, msg.subproblem.assumptions);

  // The base-ref form must be strictly smaller than the full ship.
  EXPECT_LT(msg.subproblem.wire_size(solver::WireMode::kBaseRef),
            msg.subproblem.wire_size(solver::WireMode::kFull));

  // Rehydrating from the cached base restores the full problem block.
  SubproblemMsg hydrated = back;
  hydrated.subproblem.rehydrate(f.clauses());
  EXPECT_FALSE(hydrated.subproblem.needs_base);
  EXPECT_EQ(hydrated.subproblem.num_problem_clauses, f.num_clauses());
}

TEST(ProtocolTest, ClauseBatchRoundTrips) {
  ClauseBatch batch;
  batch.clauses = {{Lit(1, false), Lit(2, true)},
                   {Lit(3, false)},
                   {Lit(4, true), Lit(5, false), Lit(6, true)}};
  const auto back = roundtrip<ClauseBatch>(batch);
  // Canonical wire order: ascending clause length (stable), sorted codes.
  const std::vector<cnf::Clause> expect = {
      {Lit(3, false)},
      {Lit(1, false), Lit(2, true)},
      {Lit(4, true), Lit(5, false), Lit(6, true)}};
  EXPECT_EQ(back.clauses, expect);
}

TEST(ProtocolTest, SatFoundCarriesModel) {
  SatFound msg;
  msg.host_index = 2;
  msg.model = {cnf::LBool::kUndef, cnf::LBool::kTrue, cnf::LBool::kFalse};
  const auto back = roundtrip<SatFound>(msg);
  EXPECT_EQ(back.host_index, 2u);
  EXPECT_TRUE(back.model == msg.model);
}

TEST(ProtocolTest, CheckpointRoundTrips) {
  CheckpointMsg msg;
  msg.host_index = 13;
  msg.checkpoint.heavy = true;
  msg.checkpoint.units = {{Lit(1, false), false}, {Lit(4, true), true}};
  msg.checkpoint.learned = {{Lit(2, false), Lit(3, true)}};
  const auto back = roundtrip<CheckpointMsg>(msg);
  EXPECT_EQ(back.host_index, 13u);
  EXPECT_EQ(back.checkpoint, msg.checkpoint);
}

TEST(ProtocolTest, TypeNames) {
  // One schema: every kind has a distinct, non-empty wire name.
  std::set<std::string> names;
  for (std::size_t code = 1; code <= kMsgKinds; ++code) {
    const std::string name = to_string(static_cast<Msg>(code));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?") << "code " << code;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_STREQ(to_string(static_cast<Msg>(0)), "?");
  EXPECT_STREQ(to_string(static_cast<Msg>(kMsgKinds + 1)), "?");

  // Each codec payload's kind is the Msg carrying its wire name, and the
  // frame's type byte is that Msg's value.
  const std::vector<std::pair<Message, std::string>> payloads = {
      {Launch{}, "LAUNCH"},
      {Register{}, "REGISTER"},
      {SubproblemMsg{}, "SUBPROBLEM"},
      {SubproblemAck{}, "SUBPROBLEM_ACK"},
      {SplitRequest{}, "SPLIT_REQUEST"},
      {SplitGrant{}, "SPLIT_GRANT"},
      {SplitDone{}, "SPLIT_DONE"},
      {SplitFailed{}, "SPLIT_FAILED"},
      {MigrateOrder{}, "MIGRATE_ORDER"},
      {Migrated{}, "MIGRATED"},
      {ClauseBatch{}, "CLAUSES"},
      {SatFound{}, "SAT_FOUND"},
      {SubproblemUnsat{}, "SUBPROBLEM_UNSAT"},
      {CheckpointMsg{}, "CHECKPOINT"},
      {SubproblemReject{}, "SUBPROBLEM_REJECT"},
      {CheckpointAck{}, "CHECKPOINT_ACK"},
      {CheckpointNack{}, "CHECKPOINT_NACK"},
      {BaseMiss{}, "BASE_MISS"},
  };
  ASSERT_EQ(payloads.size(), std::variant_size_v<Message>);
  for (const auto& [message, name] : payloads) {
    const Msg kind = type_of(message);
    EXPECT_EQ(to_string(kind), name);
    const auto frame = encode(message);
    ASSERT_GE(frame.size(), 2u);
    EXPECT_EQ(frame[1], static_cast<std::uint8_t>(kind)) << name;
  }
  // Campaign-only kinds carry no codec payload: a frame claiming one is
  // rejected.
  const std::uint8_t base_ship = static_cast<std::uint8_t>(Msg::kBaseShip);
  EXPECT_FALSE(
      decode({cnf::kWireFormatVersion, base_ship, 0, 0, 0, 0}).has_value());
}

TEST(ProtocolTest, MalformedFramesRejected) {
  EXPECT_FALSE(decode({}).has_value());
  EXPECT_FALSE(decode({0}).has_value());      // type 0 invalid
  EXPECT_FALSE(decode({99, 0, 0, 0, 0}).has_value());  // unknown type
  // Valid frame, then truncate / extend.
  const auto good = encode(Message{Register{5}});
  auto truncated = good;
  truncated.pop_back();
  EXPECT_FALSE(decode(truncated).has_value());
  auto extended = good;
  extended.push_back(0xaa);
  EXPECT_FALSE(decode(extended).has_value());
}

TEST(ProtocolTest, FuzzNeverCrashes) {
  util::Xoshiro256 rng(99);
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> junk(rng.below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    (void)decode(junk);  // must not throw or crash
  }
  // Bit-flip mutations of a valid large frame.
  const auto f = gen::pigeonhole_unsat(4);
  SubproblemMsg msg;
  msg.subproblem.num_vars = f.num_vars();
  msg.subproblem.clauses = cnf::ClausePool(f.clauses());
  msg.subproblem.num_problem_clauses = f.num_clauses();
  auto frame = encode(Message{msg});
  for (int i = 0; i < 300; ++i) {
    auto mutated = frame;
    mutated[rng.below(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    (void)decode(mutated);
  }
}

}  // namespace
}  // namespace gridsat::core::protocol
