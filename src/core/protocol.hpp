// Typed wire protocol of GridSAT — the EveryWare-messaging analog made
// concrete. `Msg` is the one message schema: the simulated Campaign
// sends every message under a Msg kind, and the codec writes the same
// value as the frame's type byte. The Campaign delivers payloads as
// in-process closures and only charges byte *counts*; this codec defines
// the actual byte format each message would carry on a real network (and
// is what a socket-transport port of the Campaign would serialize with).
// Round-trip tests pin the format; the split payload reuses Subproblem's
// encoding, clause batches and checkpoints theirs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "cnf/formula.hpp"
#include "core/checkpoint.hpp"
#include "solver/subproblem.hpp"
#include "util/bytes.hpp"

namespace gridsat::core {

/// Every GridSAT message kind, one schema for the campaign and the codec.
/// The value is the frame's type byte: kinds 1-18 have a codec payload
/// (protocol::Message, in this order); 19-28 are campaign-only kinds the
/// simulation charges by size but never encodes. Each kind is interned
/// once per campaign under to_string(kind), so the send path never
/// touches the strings.
enum class Msg : std::uint8_t {
  kLaunch = 1,
  kRegister = 2,
  kSubproblem = 3,       ///< Figure-3 message 3 (also the initial assignment)
  kSubproblemAck = 4,    ///< Figure-3 message 4
  kSplitRequest = 5,     ///< Figure-3 message 1
  kSplitGrant = 6,       ///< Figure-3 message 2
  kSplitDone = 7,        ///< Figure-3 message 5
  kSplitFailed = 8,
  kMigrateOrder = 9,
  kMigrated = 10,
  kClauses = 11,
  kSatFound = 12,
  kSubproblemUnsat = 13,
  kCheckpoint = 14,
  kSubproblemReject = 15,
  kCheckpointAck = 16,   ///< master acked (incarnation, epoch); advances the
                         ///< delta base for incremental checkpoints
  kCheckpointNack = 17,  ///< master refused a delta (stale incarnation or
                         ///< epoch gap); client must re-ship a full checkpoint
  kBaseMiss = 18,        ///< receiver of a base-ref payload does not hold the
                         ///< referenced base; master degrades to a full ship
  kBaseShip = 19,        ///< master -> client: the base block, ahead of a
                         ///< renegotiated full start
  kCancelSubproblem = 20,  ///< master -> racer: a co-racer won; stand down
  kCancelled = 21,         ///< racer -> master: tenancy abandoned, host idle
  // Hierarchical-master protocol (DESIGN.md §4j).
  kSubRegister = 22,   ///< sub-master -> root: registration forward
  kSiteSummary = 23,   ///< sub-master -> root: cadenced site-state summary
  kClauseDigest = 24,  ///< sub-master <-> root: deduped inter-site digest
  kWorkRequest = 25,   ///< sub-master -> root: site starving (idle, no work)
  kSplitBroker = 26,   ///< root -> sub-master: grant a split toward a peer
  kBrokerFailed = 27,  ///< sub-master -> root: nothing left; release peer
  kSubHello = 28,      ///< root -> site clients: fresh sub-master incarnation
};

/// Number of Msg kinds; valid type bytes are 1..kMsgKinds.
inline constexpr std::size_t kMsgKinds = 28;

/// Wire name of a kind ("SPLIT_REQUEST"); "?" for a value outside the
/// schema.
const char* to_string(Msg kind) noexcept;

}  // namespace gridsat::core

namespace gridsat::core::protocol {

struct Launch {};
struct Register {
  std::uint32_t host_index = 0;
};
struct SubproblemMsg {
  solver::Subproblem subproblem;
  /// kBaseRef ships the base-formula fingerprint instead of the problem
  /// clauses; the decoded subproblem comes back with needs_base set and
  /// must be rehydrate()d from the receiver's cached base.
  solver::WireMode mode = solver::WireMode::kFull;
};
struct SubproblemAck {
  std::uint32_t host_index = 0;
};
struct SplitRequest {
  std::uint32_t host_index = 0;
  /// Why the client asked (the paper's two triggers).
  enum class Reason : std::uint8_t { kTimeout = 0, kMemory = 1 } reason =
      Reason::kTimeout;
};
struct SplitGrant {
  std::uint32_t peer_host = 0;
};
struct SplitDone {
  std::uint32_t from_host = 0;
  std::uint32_t to_host = 0;
};
struct SplitFailed {
  std::uint32_t requester = 0;
  std::uint32_t peer = 0;
};
struct MigrateOrder {
  std::uint32_t peer_host = 0;
};
struct Migrated {
  std::uint32_t from_host = 0;
  std::uint32_t to_host = 0;
};
struct ClauseBatch {
  std::vector<cnf::Clause> clauses;
};
struct SatFound {
  std::uint32_t host_index = 0;
  /// The assignment stack (paper §3.4), one tri-state per variable.
  cnf::Assignment model;
};
struct SubproblemUnsat {
  std::uint32_t host_index = 0;
};
struct CheckpointMsg {
  std::uint32_t host_index = 0;
  Checkpoint checkpoint;
};
struct SubproblemReject {
  std::uint32_t host_index = 0;
  solver::Subproblem subproblem;
};
struct CheckpointAck {
  std::uint32_t host_index = 0;
  std::uint64_t incarnation = 0;
  std::uint64_t epoch = 0;
};
struct CheckpointNack {
  std::uint32_t host_index = 0;
  std::uint64_t incarnation = 0;
};
struct BaseMiss {
  std::uint32_t host_index = 0;
  std::uint64_t fingerprint = 0;
};

using Message =
    std::variant<Launch, Register, SubproblemMsg, SubproblemAck, SplitRequest,
                 SplitGrant, SplitDone, SplitFailed, MigrateOrder, Migrated,
                 ClauseBatch, SatFound, SubproblemUnsat, CheckpointMsg,
                 SubproblemReject, CheckpointAck, CheckpointNack, BaseMiss>;

/// The variant index is the schema order, so the kind is index + 1.
[[nodiscard]] Msg type_of(const Message& message) noexcept;

/// Encode with a 6-byte header (format version + type + payload length)
/// followed by the typed payload. The version byte makes any future
/// encoding change a deliberate bump of cnf::kWireFormatVersion rather
/// than a silent break (the golden-bytes tests pin the current layout).
std::vector<std::uint8_t> encode(const Message& message);

/// Decode; nullopt on malformed input (bad type, truncated payload,
/// trailing bytes).
std::optional<Message> decode(const std::vector<std::uint8_t>& bytes);

}  // namespace gridsat::core::protocol
