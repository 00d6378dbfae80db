// Client checkpoints (paper §3.4). Light checkpoints record only the
// level-0 assignments — "updated only when more variables are added to
// decision level 0" — and rebuild the clause set from the problem file.
// Heavy checkpoints add the learned clauses.
//
// Since the wire-transfer overhaul (DESIGN.md §4e) heavy checkpoints are
// incremental: a client ships one *full* checkpoint per subproblem
// incarnation and then *delta* checkpoints carrying only the learned
// clauses appended since the last master-acknowledged epoch. The master
// keeps the chain (full + deltas) per host; recovery replays the whole
// chain — units and assumptions always come from the newest entry (every
// checkpoint carries the complete guiding-path state), learned clauses
// are the concatenation. The PR-4 erase rules (on unsat/sat/ack/
// migration) apply to the chain as a unit, and the incarnation nonce
// keeps a delta from one subproblem from ever landing on another's
// chain, so stale-chain recovery stays impossible.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cnf/formula.hpp"
#include "cnf/wire.hpp"
#include "solver/subproblem.hpp"
#include "util/bytes.hpp"

namespace gridsat::core {

struct Checkpoint {
  bool heavy = false;
  /// True for an incremental entry: `learned` holds only the clauses
  /// appended since epoch `base_epoch`, not the full set. Light
  /// checkpoints and the first heavy checkpoint of an incarnation are
  /// always full.
  bool delta = false;
  /// Nonce identifying the subproblem incarnation this checkpoint
  /// belongs to; the master refuses to append across incarnations.
  std::uint64_t incarnation = 0;
  /// Position in this incarnation's chain, starting at 1.
  std::uint64_t epoch = 0;
  /// For deltas: the epoch this delta extends (the last master-acked
  /// epoch at ship time). 0 for full checkpoints.
  std::uint64_t base_epoch = 0;
  std::vector<solver::SubproblemUnit> units;
  /// Learned clauses; empty for light checkpoints. For deltas, only the
  /// clauses learned since `base_epoch`.
  std::vector<cnf::Clause> learned;
  /// Pure guiding-path assumptions at checkpoint time (see
  /// solver::Subproblem::assumptions) — recovery must resume under the
  /// same assumption set or the certification stitch falls apart.
  std::vector<cnf::Lit> assumptions;
  /// In-memory observability identity (never serialized; stamped by the
  /// master from the owning client's state when a checkpoint lands, so a
  /// recovery restore re-ships under the same lineage and flow — the
  /// checkpoint→recovery arrow in the trace).
  std::uint64_t lineage_id = 0;
  std::uint64_t flow_id = 0;

  /// Exact serialized size (runs the encoder against util::ByteCounter).
  [[nodiscard]] std::size_t wire_size() const;

  template <class W>
  void serialize_to(W& out) const {
    out.u8(cnf::kWireFormatVersion);
    out.u8(static_cast<std::uint8_t>((heavy ? 1u : 0u) |
                                     (delta ? 2u : 0u)));
    out.var_u64(incarnation);
    out.var_u64(epoch);
    out.var_u64(base_epoch);
    solver::encode_units(out, units);
    cnf::encode_lit_array(out, assumptions);
    cnf::encode_clause_stream(out, std::span<const cnf::Clause>(learned));
  }

  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const;
  static Checkpoint from_bytes(const std::vector<std::uint8_t>& bytes);

  /// Reconstruct a runnable subproblem: the original formula's clauses
  /// (the "initial set of clauses ... obtained from the problem file"),
  /// plus the checkpointed units and, for heavy checkpoints, the learned
  /// clauses.
  [[nodiscard]] solver::Subproblem restore(
      const cnf::CnfFormula& original) const;

  friend bool operator==(const Checkpoint&, const Checkpoint&) = default;
};

/// Replay a full+delta chain (oldest first) into one runnable
/// subproblem. Units and assumptions come from the newest entry; learned
/// clauses are the concatenation of every entry's contribution.
/// Preconditions (enforced by the master's append rules): non-empty,
/// chain.front() is full, all entries share one incarnation.
[[nodiscard]] solver::Subproblem restore_chain(
    std::span<const Checkpoint> chain, const cnf::CnfFormula& original);

}  // namespace gridsat::core
