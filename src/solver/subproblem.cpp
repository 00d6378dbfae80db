#include "solver/subproblem.hpp"

#include <bit>

namespace gridsat::solver {

std::size_t Subproblem::wire_size(WireMode mode) const {
  util::ByteCounter counter;
  serialize_to(counter, mode);
  return counter.size();
}

void Subproblem::serialize(util::ByteWriter& out, WireMode mode) const {
  serialize_to(out, mode);
}

std::vector<SubproblemUnit> decode_units(util::ByteReader& in) {
  const std::uint64_t num_units = in.var_u64();
  if (num_units > in.remaining()) {
    throw util::DecodeError("unit count exceeds buffer");
  }
  std::vector<SubproblemUnit> units;
  units.reserve(num_units);
  for (std::uint64_t i = 0; i < num_units; ++i) {
    const std::uint64_t code = in.var_u64();
    if (code < 2 || code > UINT32_MAX) {
      throw util::DecodeError("unit literal code out of range");
    }
    units.push_back({cnf::Lit::from_code(static_cast<std::uint32_t>(code))});
  }
  for (std::uint64_t i = 0; i < num_units; i += 8) {
    const std::uint8_t byte = in.u8();
    for (std::uint64_t b = 0; b < 8 && i + b < num_units; ++b) {
      units[i + b].tainted = ((byte >> b) & 1u) != 0;
    }
  }
  return units;
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
  sp.units = decode_units(in);
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
  cnf::ClausePool spliced(base);
  spliced.reserve(base.size() + clauses.size(),
                  spliced.num_lits() + clauses.num_lits());
  spliced.append(clauses, 0, clauses.size());
  clauses = std::move(spliced);
  num_problem_clauses = base.size();
  needs_base = false;
}

std::size_t Subproblem::trim_learned(std::size_t budget_bytes) {
  const auto first = static_cast<std::size_t>(num_problem_clauses);
  const std::size_t count = clauses.size();
  if (first >= count) return 0;
  // Shortest first, stable. A block already in that order (what
  // CdclSolver::to_subproblem() emits under a budget) is only truncated;
  // any other is ordered by index and copied once, when the kept block is
  // written back.
  bool sorted = true;
  for (std::size_t i = first + 1; i < count && sorted; ++i) {
    sorted = clauses[i].size() >= clauses[i - 1].size();
  }
  std::vector<std::uint32_t> order;
  if (!sorted) order = cnf::order_by_length(clauses.slice(first, count));
  const auto at = [&](std::size_t k) {
    return clauses[first + (sorted ? k : order[k])];
  };
  // Literal cost is over-estimated (raw literal-code varints; the gap
  // encoding on the wire is never larger), and the 1 byte per clause
  // covers each run's count varint. Only the stream count and each run's
  // length varint go uncharged, so the block can exceed the budget by
  // varint(count) + varint(len) per distinct length (see trim_learned).
  const auto varint_size = [](std::uint32_t v) {
    return static_cast<std::size_t>(std::bit_width(v | 1u) + 6) / 7;
  };
  const std::size_t learned = count - first;
  std::size_t spent = 0;
  std::size_t keep = 0;
  std::size_t kept_lits = 0;
  while (keep < learned) {
    const std::span<const cnf::Lit> clause = at(keep);
    std::size_t cost = 1;  // covers its share of the run count varint
    for (const cnf::Lit l : clause) cost += varint_size(l.code());
    if (spent + cost > budget_bytes) break;
    spent += cost;
    kept_lits += clause.size();
    ++keep;
  }
  if (sorted) {
    clauses.truncate(first + keep);
    return learned - keep;
  }
  // Rebuild right-sized: the problem block in one copy, then the kept
  // learned clauses shortest first.
  cnf::ClausePool trimmed;
  trimmed.reserve(first + keep, clauses.lit_offset(first) + kept_lits);
  trimmed.append(clauses, 0, first);
  for (std::size_t k = 0; k < keep; ++k) trimmed.push_back(at(k));
  clauses = std::move(trimmed);
  return learned - keep;
}

}  // namespace gridsat::solver
