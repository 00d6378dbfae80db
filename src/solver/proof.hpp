// Clausal (DRUP-style) proof logging and checking.
//
// The solver can record every learned clause it adds and every clause it
// deletes. For an UNSAT run the record is a machine-checkable refutation:
// each added clause must be RUP — unit-propagating its negation over the
// original formula plus the previously added clauses yields a conflict —
// and the final entry is the empty clause.
//
// This postdates the paper (DRUP checking became standard a decade
// later), but it earns its place here twice over: it certifies the
// UNSAT verdicts of the reproduction, and it gives a direct mechanical
// witness for GridSAT's sharing soundness — clauses learned in a *split*
// solver (under guiding-path assumptions) check as RUP against the
// ORIGINAL formula, because tainted level-0 literals stay in the clause
// (see cdcl.hpp).
//
// Distributed runs (ParallelSolver, Campaign) extend this to a single
// global refutation (DESIGN.md §4d):
//   * every solver streams each proof event to one sink, here a shared log
//     (a DistributedProofBuilder) that keeps additions only, in arrival
//     order: a deletion replayed from one worker would remove the single
//     shared copy others still depend on (RUP is monotone under growth), an
//     import is on record from its learner, and a terminal repeats a leaf;
//   * a subproblem refuted under guiding-path assumptions contributes the
//     *negated-assumption* clause as its leaf;
//   * stitch() resolves sibling leaves bottom-up (¬(P∧d) and ¬(P∧¬d)
//     yield ¬P, which is RUP given both) until the empty clause falls
//     out. When checkpoint recovery re-splits a subtree under a fresh
//     decision order the leaves form OVERLAPPING trees with no exact
//     siblings; stitch() then refutes the residual leaf clauses with a
//     CdclSolver that streams its derivation straight into the log (each
//     step is RUP against the leaf clauses preceding it). A genuinely
//     incomplete leaf cover — the signature of a dropped subproblem or a
//     stale checkpoint — makes stitch() fail and name the never-refuted
//     guiding path, which is exactly what the certification fuzz oracle
//     looks for.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cnf/formula.hpp"

namespace gridsat::solver {

/// Compile-time kill switch for the proof hooks on the solver hot path
/// (CMake option GRIDSAT_PROOF, default ON). Mirrors obs::kTraceCompiledIn:
/// with the option OFF every `log_proof` check constant-folds to false, so
/// the overhead guard can compare the runtime-disabled default against a
/// build with no hooks at all.
#if defined(GRIDSAT_PROOF_OFF)
inline constexpr bool kProofCompiledIn = false;
#else
inline constexpr bool kProofCompiledIn = true;
#endif

struct ProofStep {
  bool deletion = false;
  cnf::Clause clause;  ///< empty clause = final refutation step

  friend bool operator==(const ProofStep&, const ProofStep&) = default;
};

/// One clause of a solver's proof stream: derived here (learned, strengthened
/// or a level-0 unit), deleted, imported, or the terminal ¬(assumptions).
enum class ProofEvent : std::uint8_t { kAdd, kDelete, kImport, kTerminal };

/// Where a solver streams its proof. Each event goes to exactly one sink,
/// which decides what to keep. The clause arrives as a view of the
/// solver's own literals, valid only for the call: the sink copies what
/// it keeps, so an event it drops costs no allocation.
class ProofSink {
 public:
  virtual ~ProofSink() = default;
  virtual void proof_event(ProofEvent event,
                           std::span<const cnf::Lit> clause) = 0;
};

/// Append-only proof record. The solver writes it; the checker replays it.
/// As a sink it keeps a copy of every event, a kDelete as a deletion step.
class ProofLog final : public ProofSink {
 public:
  void proof_event(ProofEvent event,
                   std::span<const cnf::Lit> clause) override {
    steps_.push_back(ProofStep{event == ProofEvent::kDelete,
                               cnf::Clause(clause.begin(), clause.end())});
  }
  void add(cnf::Clause c) { steps_.push_back(ProofStep{false, std::move(c)}); }
  void remove(cnf::Clause c) {
    steps_.push_back(ProofStep{true, std::move(c)});
  }
  void add_empty() { add({}); }

  [[nodiscard]] const std::vector<ProofStep>& steps() const noexcept {
    return steps_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return steps_.size(); }
  [[nodiscard]] bool ends_with_empty_clause() const noexcept {
    return !steps_.empty() && !steps_.back().deletion &&
           steps_.back().clause.empty();
  }

  /// Standard DRAT text rendering ("d" lines for deletions, "0"
  /// terminators), consumable by external checkers.
  void write_drat(std::ostream& out) const;

 private:
  std::vector<ProofStep> steps_;
};

struct ProofCheckResult {
  bool valid = false;
  std::size_t steps_checked = 0;
  std::size_t failed_step = 0;  ///< index of the first bad step, if any
  std::string message;          ///< empty when valid
};

/// Replay a refutation against `formula`: every addition must be RUP with
/// respect to the current clause database; deletions shrink it; the proof
/// must end with (or reach) the empty clause. O(steps x database) — a
/// reference checker, not a competition one. Use certify() for anything
/// bigger than a unit test.
ProofCheckResult check_unsat_proof(const cnf::CnfFormula& formula,
                                   const ProofLog& proof);

/// Check a single clause for the RUP property against a clause set
/// (exposed for the sharing-soundness property tests).
bool is_rup(const std::vector<cnf::Clause>& database, cnf::Var num_vars,
            const cnf::Clause& clause);

/// Incremental watched-literal RUP checker. Same verdicts as
/// check_unsat_proof on adds-only proofs, but O(propagations) per step
/// instead of O(database^2): the root trail persists across steps,
/// assumption literals are pushed and rolled back per check, and
/// deletions detach lazily. One difference from the reference checker is
/// deliberate: root-level implications survive the deletion of their
/// antecedent clause (sound — the implication was already derived), so
/// this checker accepts a superset of what the reference accepts.
class ProofChecker {
 public:
  explicit ProofChecker(const cnf::CnfFormula& formula);

  /// Replay a whole proof from the post-construction state. A fresh
  /// checker is required per proof (state is consumed).
  ProofCheckResult check(const ProofLog& proof);

 private:
  struct StoredClause {
    std::vector<cnf::Lit> lits;
    bool dead = false;
  };

  [[nodiscard]] cnf::LBool value(cnf::Lit l) const noexcept {
    return l.value_under(assign_[l.var()]);
  }
  void enqueue(cnf::Lit l);
  bool propagate();  // true iff a conflict was reached
  void rollback_to_root();
  void add_clause(const cnf::Clause& clause);
  void delete_clause(const cnf::Clause& clause);
  bool rup(const cnf::Clause& clause);

  cnf::Var num_vars_ = 0;
  std::vector<StoredClause> clauses_;
  std::vector<std::vector<std::uint32_t>> watches_;  // indexed by lit code
  std::vector<cnf::LBool> assign_;                   // indexed by var
  std::vector<cnf::Lit> trail_;
  std::size_t qhead_ = 0;
  std::size_t root_size_ = 0;    // trail prefix that persists across checks
  bool root_falsified_ = false;  // formula already refuted at level 0
  std::map<cnf::Clause, std::vector<std::uint32_t>> index_;  // sorted -> ids
};

/// One-call certification with the watched-literal checker.
ProofCheckResult certify(const cnf::CnfFormula& formula,
                         const ProofLog& proof);

/// Accumulates the global arrival-ordered adds-only proof of a
/// distributed UNSAT run, then stitches the split tree shut.
///
/// Usage: hand the builder (as a ProofSink) to every solver; call
/// add_leaf(assumptions) each time a subproblem is refuted; after the
/// run's verdict, call stitch() and check the log with certify().
/// proof_event/add_leaf are mutex-serialized so ParallelSolver workers can
/// share one builder; the Campaign's virtual-time loop is single-threaded
/// and pays one uncontended lock per kept addition.
class DistributedProofBuilder final : public ProofSink {
 public:
  /// The shared log's keep rule: kAdd clauses are copied in, in arrival
  /// order; every other event is dropped before any copy or lock (see
  /// the header comment).
  void proof_event(ProofEvent event,
                   std::span<const cnf::Lit> clause) override;

  /// Record that a subproblem with this guiding-path assumption set was
  /// refuted, and append its negated-assumption clause to the log. An
  /// empty assumption set is the root: its leaf is the empty clause.
  void add_leaf(const std::vector<cnf::Lit>& assumptions);

  [[nodiscard]] std::size_t leaf_count() const;

  /// Resolve sibling leaves bottom-up and append the resolvents (and the
  /// final empty clause) to the log; leaves that form overlapping split
  /// trees (checkpoint recovery re-splits under a fresh decision order)
  /// are closed by refuting the residual leaf clauses with a solver that
  /// streams its derivation into the log. Returns false
  /// — leaving the log without an empty clause — when the recorded leaves
  /// do not cover the split tree; stitch_error() then names the
  /// never-refuted guiding path. Duplicate and ancestor-subsumed leaves
  /// are pruned. Idempotent: a second call returns the first call's
  /// verdict.
  bool stitch();

  [[nodiscard]] const std::string& stitch_error() const noexcept {
    return stitch_error_;
  }
  [[nodiscard]] const ProofLog& log() const noexcept { return log_; }
  [[nodiscard]] ProofLog take_log() { return std::move(log_); }

 private:
  // Assumption sets as sorted literal-code vectors.
  using LitSet = std::vector<std::uint32_t>;

  /// Subsumption-reducing insert: skipped if a subset is present; erases
  /// supersets.
  void insert_reduced(LitSet s);

  mutable std::recursive_mutex mu_;  // stitch()'s refuter streams in
  ProofLog log_;
  std::set<LitSet> sets_;
  std::size_t leaves_ = 0;
  bool stitched_ = false;
  bool stitch_ok_ = false;
  std::string stitch_error_;
};

}  // namespace gridsat::solver
