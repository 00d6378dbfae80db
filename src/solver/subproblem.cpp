#include "solver/subproblem.hpp"

#include <algorithm>

namespace gridsat::solver {

std::size_t Subproblem::wire_size(WireMode mode) const {
  util::ByteCounter counter;
  serialize_to(counter, mode);
  return counter.size();
}

void Subproblem::serialize(util::ByteWriter& out, WireMode mode) const {
  serialize_to(out, mode);
}

Subproblem Subproblem::deserialize(util::ByteReader& in) {
  const std::uint8_t version = in.u8();
  if (version != cnf::kWireFormatVersion) {
    throw util::DecodeError("unsupported subproblem wire version " +
                            std::to_string(version));
  }
  const std::uint8_t flags = in.u8();
  if ((flags & ~detail::kSubproblemFlagBaseRef) != 0) {
    throw util::DecodeError("unknown subproblem flags");
  }
  Subproblem sp;
  sp.num_vars = in.u32();
  const std::uint64_t num_units = in.var_u64();
  if (num_units > in.remaining()) {
    throw util::DecodeError("unit count exceeds buffer");
  }
  sp.units.reserve(num_units);
  for (std::uint64_t i = 0; i < num_units; ++i) {
    const std::uint64_t code = in.var_u64();
    if (code < 2 || code > UINT32_MAX) {
      throw util::DecodeError("unit literal code out of range");
    }
    SubproblemUnit u;
    u.lit = cnf::Lit::from_code(static_cast<std::uint32_t>(code));
    sp.units.push_back(u);
  }
  for (std::uint64_t i = 0; i < num_units; i += 8) {
    const std::uint8_t byte = in.u8();
    for (std::uint64_t b = 0; b < 8 && i + b < num_units; ++b) {
      sp.units[i + b].tainted = ((byte >> b) & 1u) != 0;
    }
  }
  cnf::decode_lit_array(in, sp.assumptions);
  sp.path = in.str();
  sp.base_fingerprint = in.u64();
  if ((flags & detail::kSubproblemFlagBaseRef) != 0) {
    sp.needs_base = true;
    sp.num_problem_clauses = 0;
  } else {
    cnf::decode_clause_stream(in, sp.clauses);
    sp.num_problem_clauses = sp.clauses.size();
  }
  cnf::decode_clause_stream(in, sp.clauses);
  return sp;
}

std::vector<std::uint8_t> Subproblem::to_bytes(WireMode mode) const {
  util::ByteWriter out;
  serialize(out, mode);
  return out.take();
}

Subproblem Subproblem::from_bytes(const std::vector<std::uint8_t>& bytes) {
  util::ByteReader in(bytes);
  return deserialize(in);
}

void Subproblem::rehydrate(std::span<const cnf::Clause> base) {
  clauses.insert(clauses.begin(), base.begin(), base.end());
  num_problem_clauses = base.size();
  needs_base = false;
}

std::size_t Subproblem::trim_learned(std::size_t budget_bytes) {
  const auto first = static_cast<std::size_t>(num_problem_clauses);
  if (first >= clauses.size()) return 0;
  std::stable_sort(clauses.begin() + static_cast<std::ptrdiff_t>(first),
                   clauses.end(),
                   [](const cnf::Clause& a, const cnf::Clause& b) {
                     return a.size() < b.size();
                   });
  // Literal cost is over-estimated (raw literal-code varints; the gap
  // encoding on the wire is never larger), and the 1 byte per clause
  // covers each run's count varint. Only the stream count and each run's
  // length varint go uncharged, so the block can exceed the budget by
  // varint(count) + varint(len) per distinct length (see trim_learned).
  const auto varint_size = [](std::uint64_t v) {
    std::size_t n = 1;
    while ((v >>= 7) != 0) ++n;
    return n;
  };
  std::size_t spent = 0;
  std::size_t keep = first;
  while (keep < clauses.size()) {
    std::size_t cost = 1;  // covers its share of the run count varint
    for (const cnf::Lit l : clauses[keep]) cost += varint_size(l.code());
    if (spent + cost > budget_bytes) break;
    spent += cost;
    ++keep;
  }
  const std::size_t dropped = clauses.size() - keep;
  clauses.resize(keep);
  return dropped;
}

}  // namespace gridsat::solver
