// A subproblem: one node of the recursive search-space split tree
// (paper §3.1). "The new problem generated consists of a set of variable
// assignments and a set of clauses."
//
// `units` are the level-0 assignments. A unit can be *tainted*, meaning
// it is a split assumption (or a consequence of one) and therefore not a
// globally valid fact of the original formula; learned clauses keep the
// negations of tainted level-0 literals they depend on, which is what
// makes GridSAT's global clause sharing sound (see solver/cdcl.hpp).
//
// This is the payload of the Figure-3 message (3): "10 KBytes to 500
// MBytes ... 100s of MBytes on average" in the paper; serialized size is
// what the simulated network charges for. Two wire forms exist
// (DESIGN.md §4e): the full form carries the problem-clause block, and
// the base-ref form replaces it with the original formula's fingerprint
// for hosts that already hold the base — the receiver splices its cached
// copy back in with rehydrate().
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cnf/clause_pool.hpp"
#include "cnf/formula.hpp"
#include "cnf/wire.hpp"
#include "util/bytes.hpp"

namespace gridsat::solver {

struct SubproblemUnit {
  cnf::Lit lit;
  bool tainted = false;

  friend bool operator==(const SubproblemUnit&, const SubproblemUnit&) = default;
};

/// Unit-list codec shared by the subproblem and checkpoint payloads: the
/// count, each unit's literal code, then the taint flags as an LSB-first
/// bitmap (one bit per unit instead of one byte).
template <class W>
void encode_units(W& out, std::span<const SubproblemUnit> units) {
  out.var_u64(units.size());
  for (const SubproblemUnit& u : units) out.var_u64(u.lit.code());
  std::uint8_t acc = 0;
  int bits = 0;
  for (const SubproblemUnit& u : units) {
    acc = static_cast<std::uint8_t>(acc | ((u.tainted ? 1u : 0u) << bits));
    if (++bits == 8) {
      out.u8(acc);
      acc = 0;
      bits = 0;
    }
  }
  if (bits != 0) out.u8(acc);
}

/// Inverse of encode_units; throws util::DecodeError on a count larger
/// than the buffer or a literal code out of range.
[[nodiscard]] std::vector<SubproblemUnit> decode_units(util::ByteReader& in);

/// How a subproblem goes on the wire: kFull ships the problem-clause
/// block; kBaseRef replaces it with the base-formula fingerprint (only
/// valid when the receiver's cached base matches — the master tracks
/// residency and falls back to kFull on any doubt).
enum class WireMode : std::uint8_t { kFull = 0, kBaseRef = 1 };

namespace detail {

inline constexpr std::uint8_t kSubproblemFlagBaseRef = 0x01;

}  // namespace detail

struct Subproblem {
  cnf::Var num_vars = 0;
  std::vector<SubproblemUnit> units;
  /// Clause set the receiving client starts from: the (pruned) problem
  /// clauses plus the learned clauses the splitting client passes along.
  /// All are valid for the original formula. The first
  /// `num_problem_clauses` entries are problem clauses (never deleted by
  /// DB reduction); the rest are learned and reducible. One flat pool:
  /// building, sizing and rebuilding a ship allocate per list, not per
  /// clause.
  cnf::ClausePool clauses;
  std::uint64_t num_problem_clauses = 0;
  /// The *pure* guiding-path assumptions: the split decisions themselves,
  /// in split order, without the tainted consequences that `units` also
  /// carries. Certification needs exactly this set — a refuted subproblem
  /// contributes ¬(assumptions) as its proof leaf, and sibling leaves
  /// (¬(P∧d), ¬(P∧¬d)) only resolve when consequences are excluded
  /// (consequences are re-derivable by unit propagation, so dropping them
  /// keeps the leaf RUP).
  std::vector<cnf::Lit> assumptions;
  /// Human-readable guiding path, e.g. "~V10.V7" (for traces and tests).
  std::string path;
  /// splitmix64 fingerprint of the original formula every clause here is
  /// valid for (solver::formula_fingerprint). Keys the base-formula cache.
  std::uint64_t base_fingerprint = 0;
  /// True after decoding a kBaseRef payload: the problem-clause block is
  /// absent until rehydrate() splices the receiver's cached base back in.
  bool needs_base = false;
  /// In-memory observability identity (never serialized — the v2 payload
  /// codec is unchanged; the ids travel in the sim-level MessageHeader
  /// and trace events instead, and a decoded payload gets them re-stamped
  /// by the campaign). lineage_id names this node of the split tree;
  /// parent_lineage + branch_lit (the Lit code picked at the split, 0 for
  /// the root) reconstruct the guiding-path tree from the trace alone.
  std::uint64_t lineage_id = 0;
  std::uint64_t parent_lineage = 0;
  std::uint32_t branch_lit = 0;
  /// Causal flow id stitching every message of this subproblem's lifetime
  /// (ship → checkpoints → kill → recover → refute) into one trace flow.
  std::uint64_t flow_id = 0;
  /// Diversification slot for portfolio/hybrid racing (also in-memory
  /// only): racers of one cohort get slots 0..k-1, and slot 0 keeps the
  /// reference heuristics (solver::diversified_config).
  std::uint64_t race_slot = 0;

  [[nodiscard]] bool empty() const noexcept {
    return units.empty() && clauses.empty();
  }

  /// Serialized size in bytes — the network transfer cost in the sim.
  /// Runs the real encoder against util::ByteCounter, so it equals
  /// serialize().size() by construction.
  [[nodiscard]] std::size_t wire_size(WireMode mode = WireMode::kFull) const;

  template <class W>
  void serialize_to(W& out, WireMode mode = WireMode::kFull) const {
    out.u8(cnf::kWireFormatVersion);
    out.u8(mode == WireMode::kBaseRef ? detail::kSubproblemFlagBaseRef : 0);
    out.u32(num_vars);
    encode_units(out, units);
    cnf::encode_lit_array(out, std::span<const cnf::Lit>(assumptions));
    out.str(path);
    out.u64(base_fingerprint);
    const auto split = static_cast<std::size_t>(num_problem_clauses);
    if (mode == WireMode::kFull) {
      cnf::encode_clause_stream(out, clauses.slice(0, split));
    }
    cnf::encode_clause_stream(out, clauses.slice(split, clauses.size()));
  }

  void serialize(util::ByteWriter& out, WireMode mode = WireMode::kFull) const;
  static Subproblem deserialize(util::ByteReader& in);

  [[nodiscard]] std::vector<std::uint8_t> to_bytes(
      WireMode mode = WireMode::kFull) const;
  static Subproblem from_bytes(const std::vector<std::uint8_t>& bytes);

  /// Splice the cached base (the original formula's clauses) back into a
  /// decoded kBaseRef payload. The caller must have verified the
  /// fingerprint; a mismatch is renegotiated to a full ship, never
  /// rehydrated (DESIGN.md §4e).
  void rehydrate(std::span<const cnf::Clause> base);

  /// Bound the learned-clause block by `budget_bytes`, keeping the
  /// shortest (strongest) clauses. Each kept clause costs 1 byte plus the
  /// varints of its literal codes; the encoded block is at most budget +
  /// varint(count) + varint(len) per distinct clause length, i.e. ≤ budget
  /// + varint(count) + 2 × distinct lengths for clauses under 16384
  /// literals. Learned clauses are consequences of the original formula,
  /// so dropping any subset is always sound — the receiver re-derives
  /// what it needs and the sharing layer keeps streaming high-value
  /// clauses anyway. Returns the number of clauses dropped. The kept
  /// block comes out shortest first, stable; a block already in that
  /// order (CdclSolver::to_subproblem() with the same budget) is
  /// truncated in place, any other is copied once.
  std::size_t trim_learned(std::size_t budget_bytes);

  friend bool operator==(const Subproblem&, const Subproblem&) = default;
};

}  // namespace gridsat::solver
