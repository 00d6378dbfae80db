#include "core/protocol.hpp"

#include <iterator>

#include "cnf/wire.hpp"

namespace gridsat::core {

namespace {
/// Wire names in type-byte order (Msg value - 1).
constexpr const char* kMsgNames[] = {
    "LAUNCH",          "REGISTER",          "SUBPROBLEM",
    "SUBPROBLEM_ACK",  "SPLIT_REQUEST",     "SPLIT_GRANT",
    "SPLIT_DONE",      "SPLIT_FAILED",      "MIGRATE_ORDER",
    "MIGRATED",        "CLAUSES",           "SAT_FOUND",
    "SUBPROBLEM_UNSAT", "CHECKPOINT",       "SUBPROBLEM_REJECT",
    "CHECKPOINT_ACK",  "CHECKPOINT_NACK",   "BASE_MISS",
    "BASE_SHIP",       "CANCEL_SUBPROBLEM", "CANCELLED",
    "SUB_REGISTER",    "SITE_SUMMARY",      "CLAUSE_DIGEST",
    "WORK_REQUEST",    "SPLIT_BROKER",      "BROKER_FAILED",
    "SUB_HELLO",
};
static_assert(std::size(kMsgNames) == kMsgKinds);
static_assert(static_cast<std::size_t>(Msg::kSubHello) == kMsgKinds);
}  // namespace

const char* to_string(Msg kind) noexcept {
  const auto code = static_cast<std::size_t>(kind);
  return code >= 1 && code <= kMsgKinds ? kMsgNames[code - 1] : "?";
}

}  // namespace gridsat::core

namespace gridsat::core::protocol {

static_assert(std::variant_size_v<Message> ==
              static_cast<std::size_t>(Msg::kBaseMiss));

Msg type_of(const Message& message) noexcept {
  return static_cast<Msg>(message.index() + 1);
}

namespace {

void encode_clauses(util::ByteWriter& out,
                    const std::vector<cnf::Clause>& clauses) {
  // Shared-pool batches ride the same delta/run stream as subproblem and
  // checkpoint clause sections (cnf/wire.hpp).
  cnf::encode_clause_stream(out, std::span<const cnf::Clause>(clauses));
}

std::vector<cnf::Clause> decode_clauses(util::ByteReader& in) {
  std::vector<cnf::Clause> clauses;
  cnf::decode_clause_stream(in, clauses);
  return clauses;
}

void encode_model(util::ByteWriter& out, const cnf::Assignment& model) {
  out.var_u64(model.size());
  for (const cnf::LBool value : model) {
    out.u8(static_cast<std::uint8_t>(value));
  }
}

cnf::Assignment decode_model(util::ByteReader& in) {
  cnf::Assignment model(in.var_u64(), cnf::LBool::kUndef);
  for (auto& value : model) {
    const std::uint8_t raw = in.u8();
    if (raw > 2) throw util::DecodeError("bad tri-state value");
    value = static_cast<cnf::LBool>(raw);
  }
  return model;
}

struct Encoder {
  util::ByteWriter& out;

  void operator()(const Launch&) {}
  void operator()(const Register& m) { out.u32(m.host_index); }
  void operator()(const SubproblemMsg& m) {
    m.subproblem.serialize(out, m.mode);
  }
  void operator()(const SubproblemAck& m) { out.u32(m.host_index); }
  void operator()(const SplitRequest& m) {
    out.u32(m.host_index);
    out.u8(static_cast<std::uint8_t>(m.reason));
  }
  void operator()(const SplitGrant& m) { out.u32(m.peer_host); }
  void operator()(const SplitDone& m) {
    out.u32(m.from_host);
    out.u32(m.to_host);
  }
  void operator()(const SplitFailed& m) {
    out.u32(m.requester);
    out.u32(m.peer);
  }
  void operator()(const MigrateOrder& m) { out.u32(m.peer_host); }
  void operator()(const Migrated& m) {
    out.u32(m.from_host);
    out.u32(m.to_host);
  }
  void operator()(const ClauseBatch& m) { encode_clauses(out, m.clauses); }
  void operator()(const SatFound& m) {
    out.u32(m.host_index);
    encode_model(out, m.model);
  }
  void operator()(const SubproblemUnsat& m) { out.u32(m.host_index); }
  void operator()(const CheckpointMsg& m) {
    out.u32(m.host_index);
    const auto bytes = m.checkpoint.to_bytes();
    out.var_u64(bytes.size());
    out.bytes(bytes);
  }
  void operator()(const SubproblemReject& m) {
    out.u32(m.host_index);
    m.subproblem.serialize(out);
  }
  void operator()(const CheckpointAck& m) {
    out.u32(m.host_index);
    out.var_u64(m.incarnation);
    out.var_u64(m.epoch);
  }
  void operator()(const CheckpointNack& m) {
    out.u32(m.host_index);
    out.var_u64(m.incarnation);
  }
  void operator()(const BaseMiss& m) {
    out.u32(m.host_index);
    out.u64(m.fingerprint);
  }
};

Message decode_payload(Msg type, util::ByteReader& in) {
  switch (type) {
    case Msg::kLaunch:
      return Launch{};
    case Msg::kRegister:
      return Register{in.u32()};
    case Msg::kSubproblem: {
      SubproblemMsg m;
      m.subproblem = solver::Subproblem::deserialize(in);
      m.mode = m.subproblem.needs_base ? solver::WireMode::kBaseRef
                                       : solver::WireMode::kFull;
      return m;
    }
    case Msg::kSubproblemAck:
      return SubproblemAck{in.u32()};
    case Msg::kSplitRequest: {
      SplitRequest m;
      m.host_index = in.u32();
      const std::uint8_t reason = in.u8();
      if (reason > 1) throw util::DecodeError("bad split reason");
      m.reason = static_cast<SplitRequest::Reason>(reason);
      return m;
    }
    case Msg::kSplitGrant:
      return SplitGrant{in.u32()};
    case Msg::kSplitDone: {
      SplitDone m;
      m.from_host = in.u32();
      m.to_host = in.u32();
      return m;
    }
    case Msg::kSplitFailed: {
      SplitFailed m;
      m.requester = in.u32();
      m.peer = in.u32();
      return m;
    }
    case Msg::kMigrateOrder:
      return MigrateOrder{in.u32()};
    case Msg::kMigrated: {
      Migrated m;
      m.from_host = in.u32();
      m.to_host = in.u32();
      return m;
    }
    case Msg::kClauses:
      return ClauseBatch{decode_clauses(in)};
    case Msg::kSatFound: {
      SatFound m;
      m.host_index = in.u32();
      m.model = decode_model(in);
      return m;
    }
    case Msg::kSubproblemUnsat:
      return SubproblemUnsat{in.u32()};
    case Msg::kCheckpoint: {
      CheckpointMsg m;
      m.host_index = in.u32();
      const std::uint64_t len = in.var_u64();
      std::vector<std::uint8_t> raw;
      raw.reserve(len);
      for (std::uint64_t i = 0; i < len; ++i) raw.push_back(in.u8());
      m.checkpoint = Checkpoint::from_bytes(raw);
      return m;
    }
    case Msg::kSubproblemReject: {
      SubproblemReject m;
      m.host_index = in.u32();
      m.subproblem = solver::Subproblem::deserialize(in);
      return m;
    }
    case Msg::kCheckpointAck: {
      CheckpointAck m;
      m.host_index = in.u32();
      m.incarnation = in.var_u64();
      m.epoch = in.var_u64();
      return m;
    }
    case Msg::kCheckpointNack: {
      CheckpointNack m;
      m.host_index = in.u32();
      m.incarnation = in.var_u64();
      return m;
    }
    case Msg::kBaseMiss: {
      BaseMiss m;
      m.host_index = in.u32();
      m.fingerprint = in.u64();
      return m;
    }
    default:
      break;  // campaign-only kinds carry no codec payload
  }
  throw util::DecodeError("unknown message type");
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& message) {
  util::ByteWriter payload;
  std::visit(Encoder{payload}, message);
  util::ByteWriter out;
  out.u8(cnf::kWireFormatVersion);
  out.u8(static_cast<std::uint8_t>(type_of(message)));
  out.u32(static_cast<std::uint32_t>(payload.size()));
  out.bytes(payload.data());
  return out.take();
}

std::optional<Message> decode(const std::vector<std::uint8_t>& bytes) {
  try {
    util::ByteReader in(bytes);
    if (in.u8() != cnf::kWireFormatVersion) return std::nullopt;
    const std::uint8_t raw_type = in.u8();
    if (raw_type < 1 ||
        raw_type > static_cast<std::uint8_t>(Msg::kBaseMiss)) {
      return std::nullopt;
    }
    const std::uint32_t length = in.u32();
    if (length != in.remaining()) return std::nullopt;
    Message message =
        decode_payload(static_cast<Msg>(raw_type), in);
    if (!in.exhausted()) return std::nullopt;
    return message;
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace gridsat::core::protocol
