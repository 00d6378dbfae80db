#include "core/checkpoint.hpp"

#include <cassert>
#include <string>

namespace gridsat::core {

std::size_t Checkpoint::wire_size() const {
  util::ByteCounter counter;
  serialize_to(counter);
  return counter.size();
}

std::vector<std::uint8_t> Checkpoint::to_bytes() const {
  util::ByteWriter out;
  serialize_to(out);
  return out.take();
}

Checkpoint Checkpoint::from_bytes(const std::vector<std::uint8_t>& bytes) {
  util::ByteReader in(bytes);
  const std::uint8_t version = in.u8();
  if (version != cnf::kWireFormatVersion) {
    throw util::DecodeError("unsupported checkpoint wire version " +
                            std::to_string(version));
  }
  const std::uint8_t flags = in.u8();
  if ((flags & ~3u) != 0) throw util::DecodeError("unknown checkpoint flags");
  Checkpoint cp;
  cp.heavy = (flags & 1u) != 0;
  cp.delta = (flags & 2u) != 0;
  cp.incarnation = in.var_u64();
  cp.epoch = in.var_u64();
  cp.base_epoch = in.var_u64();
  cp.units = solver::decode_units(in);
  cnf::decode_lit_array(in, cp.assumptions);
  cnf::decode_clause_stream(in, cp.learned);
  return cp;
}

solver::Subproblem Checkpoint::restore(const cnf::CnfFormula& original) const {
  return restore_chain({this, 1}, original);
}

solver::Subproblem restore_chain(std::span<const Checkpoint> chain,
                                 const cnf::CnfFormula& original) {
  assert(!chain.empty());
  assert(!chain.front().delta);
  const Checkpoint& tip = chain.back();
  solver::Subproblem sp;
  sp.num_vars = original.num_vars();
  sp.units = tip.units;
  sp.clauses = cnf::ClausePool(original.clauses());
  sp.num_problem_clauses = sp.clauses.size();
  for (const Checkpoint& cp : chain) sp.clauses.append(cp.learned);
  sp.assumptions = tip.assumptions;
  sp.path = "checkpoint-restore";
  // Keep the restored subproblem's causal identity: the recovery ship
  // continues the original lineage and flow instead of starting new ones.
  sp.lineage_id = tip.lineage_id;
  sp.flow_id = tip.flow_id;
  return sp;
}

}  // namespace gridsat::core
