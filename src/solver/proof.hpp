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

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <map>
#include <mutex>
#include <ranges>
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

/// One step of a ProofLog, viewed in place: valid while the log lives
/// and is not appended to.
struct ProofStep {
  bool deletion = false;
  std::span<const cnf::Lit> clause;  ///< empty clause = refutation step

  friend bool operator==(const ProofStep& a, const ProofStep& b) {
    return a.deletion == b.deletion && std::ranges::equal(a.clause, b.clause);
  }
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
///
/// Stored flat (DESIGN.md §4d): the literals of every step back to back in
/// one buffer, one 32-bit end offset and one deletion byte per step, so a
/// step costs its literals plus five bytes and no allocation of its own.
/// Empty steps (the refutation, a root leaf) are ordinary steps here; the
/// wire's ClausePool keeps its non-empty rule. Offsets are 32-bit: a log
/// holds fewer than 2^32 literals.
class ProofLog final : public ProofSink {
 public:
  void proof_event(ProofEvent event,
                   std::span<const cnf::Lit> clause) override {
    append(event == ProofEvent::kDelete, clause);
  }
  void add(std::span<const cnf::Lit> clause) { append(false, clause); }
  void remove(std::span<const cnf::Lit> clause) { append(true, clause); }
  void add_empty() { append(false, {}); }

  [[nodiscard]] std::size_t size() const noexcept { return ends_.size(); }

  [[nodiscard]] ProofStep step(std::size_t i) const {
    assert(i < ends_.size());
    const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
    return {deletion_[i] != 0,
            std::span<const cnf::Lit>(lits_.data() + begin, ends_[i] - begin)};
  }

  [[nodiscard]] bool ends_with_empty_clause() const {
    if (ends_.empty()) return false;
    const ProofStep last = step(size() - 1);
    return !last.deletion && last.clause.empty();
  }

  /// Standard DRAT text rendering ("d" lines for deletions, "0"
  /// terminators), consumable by external checkers.
  void write_drat(std::ostream& out) const;

  /// Forward iteration yields each step as a ProofStep view.
  class const_iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = ProofStep;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = value_type;
    const_iterator() = default;
    [[nodiscard]] value_type operator*() const { return log_->step(i_); }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator prev = *this;
      ++i_;
      return prev;
    }
    friend bool operator==(const const_iterator&,
                           const const_iterator&) = default;
    friend difference_type operator-(const const_iterator& a,
                                     const const_iterator& b) {
      return static_cast<difference_type>(a.i_) -
             static_cast<difference_type>(b.i_);
    }

   private:
    friend class ProofLog;
    const_iterator(const ProofLog* log, std::size_t i) : log_(log), i_(i) {}
    // No default member initializers: they would keep the iterator from
    // counting as default-constructible inside ProofLog, where steps()
    // names the subrange type.
    const ProofLog* log_;
    std::size_t i_;
  };
  /// Every step in order, as ProofStep views.
  [[nodiscard]] std::ranges::subrange<const_iterator> steps() const {
    return {const_iterator(this, 0), const_iterator(this, size())};
  }

  friend bool operator==(const ProofLog& a, const ProofLog& b) {
    return a.lits_ == b.lits_ && a.ends_ == b.ends_ &&
           a.deletion_ == b.deletion_;
  }

 private:
  void append(bool deletion, std::span<const cnf::Lit> clause) {
    lits_.insert(lits_.end(), clause.begin(), clause.end());
    assert(lits_.size() <= UINT32_MAX);
    ends_.push_back(static_cast<std::uint32_t>(lits_.size()));
    deletion_.push_back(deletion ? 1 : 0);
  }

  std::vector<cnf::Lit> lits_;
  /// ends_[i] is one past step i's last literal in lits_.
  std::vector<std::uint32_t> ends_;
  std::vector<std::uint8_t> deletion_;  ///< 1 = step i is a deletion
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
/// check_unsat_proof on adds-only proofs, without rescanning the
/// database: the root trail persists across steps, the negated clause is
/// pushed and rolled back per check, and a step costs the watchers its
/// propagation visits (a blocker read each, the clause itself only on a
/// blocker miss). One difference from the reference checker is
/// deliberate: root-level implications survive the deletion of their
/// antecedent clause (sound — the implication was already derived), so
/// this checker accepts a superset of what the reference accepts.
///
/// Storage is flat (DESIGN.md §4d): every clause's literals back to back
/// in one buffer, sized for the formula at construction and grown once,
/// when check() starts, for every literal the proof adds; one offset and
/// one dead byte per clause. Deletions mark a clause dead and
/// its watchers drop it lazily. The index that finds a deleted clause by
/// its literal set is built at the first deletion step, from the live
/// clauses, so an adds-only proof never pays for it.
class ProofChecker {
 public:
  explicit ProofChecker(const cnf::CnfFormula& formula);

  /// Replay a whole proof from the post-construction state. A fresh
  /// checker is required per proof (state is consumed).
  ProofCheckResult check(const ProofLog& proof);

 private:
  /// A watch on clause `id`. The blocker is some other literal of the
  /// clause: while it is true the clause is satisfied and not read.
  struct Watcher {
    std::uint32_t id;
    cnf::Lit blocker;
  };

  [[nodiscard]] cnf::LBool value(cnf::Lit l) const noexcept {
    return l.value_under(assign_[l.var()]);
  }
  [[nodiscard]] std::span<cnf::Lit> lits(std::uint32_t id) noexcept {
    return {lits_.data() + starts_[id], starts_[id + 1] - starts_[id]};
  }
  void enqueue(cnf::Lit l);
  bool propagate();  // true iff a conflict was reached
  void rollback_to_root();
  void add_clause(std::span<const cnf::Lit> clause);
  void delete_clause(std::span<const cnf::Lit> clause);
  bool rup(std::span<const cnf::Lit> clause);

  cnf::Var num_vars_ = 0;
  std::vector<cnf::Lit> lits_;           // every clause, back to back
  std::vector<std::uint32_t> starts_;    // clause id -> offset; + end sentinel
  std::vector<std::uint8_t> dead_;       // 1 = deleted
  std::vector<std::vector<Watcher>> watches_;  // indexed by lit code
  std::vector<cnf::LBool> assign_;             // indexed by var
  std::vector<cnf::Lit> trail_;
  std::size_t qhead_ = 0;
  std::size_t root_size_ = 0;    // trail prefix that persists across checks
  bool root_falsified_ = false;  // formula already refuted at level 0
  bool indexed_ = false;         // index_ built (first deletion seen)
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
