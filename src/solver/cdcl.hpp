// CDCL solver — a from-scratch re-implementation of the Chaff algorithm
// the paper uses as its core (§2):
//
//   * two-watched-literal BCP (§2.4),
//   * VSIDS per-literal decision heuristic with periodic decay (§2.4),
//   * FirstUIP conflict analysis and non-chronological backjumping (§2.2),
//   * learned-clause database with activity-based reduction,
//   * level-0 pruning of satisfied clauses (§3.1 — the paper's own patch
//     to sequential zChaff, applied here to both comparator and clients),
//   * budgeted, resumable execution (the Grid client runs the solver in
//     slices between message-handling turns),
//   * splitting (§3.1 / Fig. 2) and sound global clause sharing (§3.2).
//
// Soundness of sharing under splits: a split plants an *assumption*
// literal at decision level 0, so naively-learned clauses would be valid
// only relative to that guiding path. We track a taint bit per level-0
// variable (assumption, or implied through a tainted literal). Conflict
// analysis normally drops level-0 literals; tainted ones are instead kept
// in the learned clause. Every learned clause is therefore implied by the
// *original* formula and can be shared with any client, exactly the
// "shares clauses globally as soon as they are generated" behaviour of
// §5, without unsound pruning.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cnf/clause_pool.hpp"
#include "cnf/formula.hpp"
#include "obs/trace.hpp"
#include "solver/clause_arena.hpp"
#include "solver/proof.hpp"
#include "solver/subproblem.hpp"
#include "util/rng.hpp"

namespace gridsat::solver {

enum class SolveStatus : std::uint8_t {
  kSat,      ///< model found (retrieve with model())
  kUnsat,    ///< subproblem refuted
  kUnknown,  ///< work budget exhausted; call solve() again to resume
  kMemOut,   ///< clause database exceeded the configured memory limit
};

const char* to_string(SolveStatus s) noexcept;

/// Restart cadence shape (all schedules count conflicts and share
/// SolverConfig::restart_base as their unit).
enum class RestartPolicy : std::uint8_t {
  kLuby,       ///< base * luby(n): 1,1,2,1,1,2,4,... (the default)
  kGeometric,  ///< base * 1.5^n: slow exponential back-off
  kLinear,     ///< base * (n + 1): arithmetic back-off
};

/// Polarity of a fresh decision variable when no phase has been saved
/// (or phase saving is off).
enum class PolarityInit : std::uint8_t {
  kActivity,  ///< the winning VSIDS literal's own sign (the default)
  kFalse,     ///< always assign false
  kTrue,      ///< always assign true
  kRandom,    ///< coin flip per decision (seeded; deterministic)
};

struct SolverConfig {
  /// VSIDS: activity added per bump; decays by dividing the increment.
  double var_activity_decay = 0.95;
  double clause_activity_decay = 0.999;
  /// Conflicts between VSIDS decays. Chaff divides all counters by a
  /// constant periodically; dividing the *increment* by var_activity_decay
  /// every decay_interval conflicts is the constant-time equivalent.
  /// interval 1 + decay 0.95 is the standard smooth schedule; interval
  /// 256 + decay 0.5 mimics zChaff's coarse halving.
  std::uint32_t decay_interval = 1;

  /// Restart interval unit (conflicts); 0 disables restarting.
  std::uint32_t restart_base = 512;

  /// Shape of the restart schedule (portfolio diversification axis; see
  /// solver/diversify.hpp). Luby reproduces the historical behaviour.
  RestartPolicy restart_policy = RestartPolicy::kLuby;

  /// Learned-DB reduction trigger: start threshold and geometric growth.
  std::size_t reduce_base = 8000;
  double reduce_growth = 1.15;

  /// Hard cap on live clause-database bytes; exceeded (and unreclaimable
  /// by reduction) => kMemOut. The sequential comparator gets the host's
  /// capacity; GridSAT clients split before they hit it.
  std::size_t memory_limit_bytes = std::numeric_limits<std::size_t>::max();

  /// When false, hitting the memory limit is immediately fatal (kMemOut)
  /// instead of triggering emergency DB reductions. 2003-era zChaff could
  /// not free antecedent clauses (paper §4.2): "the solver cannot make
  /// any further progress" once the DB overflows — the Table-1 MEM_OUT
  /// comparator semantics. GridSAT clients keep the squeeze (they ask for
  /// a split at 60% and the squeeze only bridges the grant latency).
  bool allow_memory_squeeze = true;

  /// Memory-pressure squeezes tolerated before giving up (kMemOut): a
  /// solver squeezing this often is destroying clauses as fast as it
  /// learns them. 0 = unlimited (GridSAT clients: stay alive, degraded,
  /// until the split goes through).
  std::uint32_t max_memory_squeezes = 64;

  /// Probability of a random decision (diversification); 0 = pure VSIDS.
  double random_decision_freq = 0.0;
  std::uint64_t seed = 1;

  /// Phase of a fresh variable when VSIDS has no signal (Chaff's per-
  /// literal counters give a natural phase; saved phases refine it).
  bool phase_saving = true;

  /// Starting polarity when neither a saved phase nor a decision hook
  /// decides (portfolio diversification axis). kActivity keeps the
  /// per-literal VSIDS sign, the historical behaviour.
  PolarityInit polarity_init = PolarityInit::kActivity;

  /// Learned-clause minimization (MiniSat-era extension, postdates the
  /// paper): recursive stamp-based minimization (MiniSat's "deep" mode /
  /// dawn's otf=2), a DFS over reason antecedents with memoized
  /// redundant/required verdicts and an abstraction-level filter. Default
  /// on since it paid for itself on the micro suite (BENCH_solver.json
  /// "minimize_ablation" rows); turn off for paper-era fidelity or the
  /// ablation baseline.
  bool minimize_learned = true;

  /// Binary-resolution strengthening of the learned clause: resolve
  /// against binary clauses watching the asserting literal to drop
  /// further literals (Glucose's minimisationWithBinaryResolution). Only
  /// active alongside minimize_learned (the binary implication store is
  /// the index it scans).
  bool minimize_bin = true;

  /// On-the-fly subsumption during conflict analysis (Han–Somenzi): when
  /// an intermediate resolvent has exactly one literal fewer than the
  /// antecedent it was resolved with, the antecedent is strengthened in
  /// place by dropping the pivot (self-subsuming resolution), with a
  /// DRAT add+delete pair when proof logging is on.
  bool otf_subsume = true;

  /// Locality-aware arena compaction on reduce_db(): rewrite survivors in
  /// watcher-traversal order (problem clauses first, then learned, glue
  /// first) instead of preserving allocation order, so late-run watcher
  /// scans stay cache-resident. Falls back to the allocation-order gc()
  /// under memory pressure.
  bool arena_compact = true;

  /// Accumulate wall time spent inside propagate() into
  /// SolverStats::propagation_ns. Off by default: two clock reads per
  /// propagate() call are cheap but not free, and only the benches need
  /// the breakdown.
  bool measure_propagation = false;

  /// Record a DRUP-style clausal proof (solver/proof.hpp) in proof(), or
  /// stream it to set_proof_sink()'s sink: every learned (and imported)
  /// clause and every deletion. An UNSAT run ends it with the refutation
  /// terminal: the empty clause for a full-formula solver, or ¬(assumptions)
  /// for a solver running under split assumptions (the leaf a
  /// DistributedProofBuilder stitches on). Compiled out entirely when
  /// kProofCompiledIn is false (CMake GRIDSAT_PROOF=OFF).
  bool log_proof = false;
};

struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;   ///< implied assignments
  std::uint64_t binary_propagations = 0;  ///< subset implied via the binary store
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t learned_literals = 0;
  /// Literals removed from learned clauses by minimization before
  /// attach; not counted in learned_literals.
  std::uint64_t minimized_literals = 0;
  /// Literals removed by binary-resolution strengthening of the learned
  /// clause (on top of minimization).
  std::uint64_t bin_strengthened_literals = 0;
  /// Existing clauses strengthened in place by on-the-fly subsumption
  /// during conflict analysis (one literal dropped each).
  std::uint64_t otf_strengthened = 0;
  std::uint64_t deleted_clauses = 0;
  std::uint64_t db_reductions = 0;
  /// Locality-ordered arena rewrites performed by reduce_db().
  std::uint64_t arena_compactions = 0;
  std::uint64_t max_decision_level = 0;
  std::uint64_t imported_clauses = 0;
  std::uint64_t imported_useless = 0;  ///< arrived satisfied/duplicate
  /// Imported clauses later walked by conflict analysis at least once —
  /// the "did sharing actually help" numerator over imported_clauses.
  std::uint64_t imported_used = 0;
  std::uint64_t exported_clauses = 0;
  std::uint64_t splits = 0;
  /// Abstract cost: watcher visits + analysis steps; the discrete-event
  /// simulator converts work units to virtual seconds via host speed.
  std::uint64_t work = 0;
  /// Wall time spent inside propagate(), accumulated only while
  /// SolverConfig::measure_propagation is on (used by bench_solver_micro
  /// to report BCP throughput undiluted by analysis/heap work).
  std::uint64_t propagation_ns = 0;
  std::size_t peak_db_bytes = 0;
};

/// Snapshot of one conflict, for introspection (used to reproduce the
/// paper's Figure-1 worked example and by tests).
struct ConflictRecord {
  std::vector<cnf::Lit> conflicting_clause;
  std::vector<cnf::Lit> learned_clause;  ///< [0] is the asserting literal
  cnf::Lit uip;                          ///< FirstUIP literal (assignment)
  std::uint32_t conflict_level = 0;
  std::uint32_t backjump_level = 0;
  /// LBD of the learned clause: number of distinct decision levels among
  /// its literals at learning time (the clause-quality metric sharing
  /// and DB reduction tier on).
  std::uint32_t lbd = 0;
};

class CdclSolver {
 public:
  CdclSolver(const cnf::CnfFormula& formula, SolverConfig config = {});
  CdclSolver(const Subproblem& subproblem, SolverConfig config = {});

  CdclSolver(const CdclSolver&) = delete;
  CdclSolver& operator=(const CdclSolver&) = delete;
  CdclSolver(CdclSolver&&) = default;
  CdclSolver& operator=(CdclSolver&&) = default;

  /// Run until a verdict or until `work_budget` additional work units
  /// have been consumed. Resumable: kUnknown keeps all state.
  SolveStatus solve(
      std::uint64_t work_budget = std::numeric_limits<std::uint64_t>::max());

  /// Last verdict returned by solve() (kUnknown before the first call).
  [[nodiscard]] SolveStatus status() const noexcept { return status_; }

  /// Total assignment after kSat; index by variable, slot 0 unused.
  [[nodiscard]] const cnf::Assignment& model() const;

  [[nodiscard]] const SolverStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const SolverConfig& config() const noexcept { return config_; }

  /// Live clause-database footprint in bytes (arena + watcher overhead
  /// estimate); what the GridSAT client's memory monitor watches.
  [[nodiscard]] std::size_t db_bytes() const noexcept;

  [[nodiscard]] cnf::Var num_vars() const noexcept { return num_vars_; }
  [[nodiscard]] std::uint32_t decision_level() const noexcept {
    return static_cast<std::uint32_t>(trail_lim_.size());
  }
  [[nodiscard]] std::size_t num_assigned() const noexcept {
    return trail_.size();
  }

  // --- BCP probing (bench_solver_micro; failed-literal probing later) ---

  /// Push a decision level, assume p, and propagate to fixpoint. Returns
  /// false on conflict (state is then mid-conflict; call probe_reset()).
  /// Already-assigned literals are a no-op returning true. No clause is
  /// learned: probing leaves the clause database untouched, which is what
  /// makes it usable as a pure BCP throughput measurement.
  bool probe_assume(cnf::Lit p);

  /// Abandon all probe levels: backtrack to decision level 0.
  void probe_reset();

  // --- Splitting (paper §3.1, Figure 2) --------------------------------

  /// True when there is at least one decision to split on. A solver at
  /// level 0 (or already finished) cannot split.
  [[nodiscard]] bool can_split() const noexcept;

  /// Split the search space: this solver folds its first decision level
  /// into level 0 (the decision becomes a tainted assumption) and keeps
  /// searching; the returned subproblem carries the complementary branch
  /// (level-0 units + negated first decision) together with the current
  /// clause set, pruned of clauses satisfied at level 0 of the *new*
  /// branch. Requires can_split(). `learned_budget_bytes` is passed to
  /// to_subproblem().
  Subproblem split(std::size_t learned_budget_bytes = 0);

  /// Current state as a subproblem (migration §3.4 / heavy checkpoint):
  /// level-0 units + full clause set, without the clauses satisfied at
  /// level 0. Levels above 0 are discarded (the paper's checkpoints do
  /// the same). Every clause comes out with strictly ascending literal
  /// codes, the order the wire encoder and the receiver's rebuild take
  /// without sorting. Each block keeps arena order, except that a nonzero
  /// `learned_budget_bytes` (the budget the ship will be trimmed to)
  /// emits the learned block shortest first, stable over arena order:
  /// the order Subproblem::trim_learned() keeps, so the trim truncates in
  /// place. Nothing is dropped here; the trim does that.
  [[nodiscard]] Subproblem to_subproblem(
      std::size_t learned_budget_bytes = 0) const;

  // --- Clause sharing (paper §3.2) --------------------------------------

  /// Callback invoked for every learned clause with its LBD (clients
  /// filter by quality — LBD and/or length — and forward on the network).
  /// The clause is globally valid. It arrives as a view of the solver's
  /// own literals, valid only for the call: the callback copies what it
  /// keeps.
  void set_share_callback(
      std::function<void(std::span<const cnf::Lit>, std::uint32_t lbd)> cb) {
    share_cb_ = std::move(cb);
  }

  /// Queue a batch of clauses received from other clients; merged the
  /// next time the solver is at decision level 0 (paper: "only ... after
  /// the algorithm has backtracked to the first decision level"). The
  /// solver reads the shared pool in place and never writes it, so one
  /// batch can be queued at any number of receivers. Clauses with
  /// strictly ascending literals merge in one pass; others are sorted
  /// into scratch first.
  void import_clauses(std::shared_ptr<const cnf::ClausePool> clauses);

  /// Clauses queued and not yet merged.
  [[nodiscard]] std::size_t pending_imports() const noexcept {
    return pending_imports_;
  }

  // --- Level-0 state (checkpoints §3.4, termination, tests) ------------

  [[nodiscard]] std::vector<SubproblemUnit> level0_units() const;
  /// Length of the level-0 trail prefix: level0_units().size() without
  /// building the vector.
  [[nodiscard]] std::size_t level0_size() const noexcept {
    return trail_lim_.empty() ? trail_.size() : trail_lim_[0];
  }

  /// All live learned clauses with at most `max_len` literals
  /// (max_len = 0 means no limit), each with strictly ascending literal
  /// codes. Used by heavy checkpoints.
  [[nodiscard]] std::vector<cnf::Clause> learned_clauses(
      std::size_t max_len = 0) const;

  // --- Introspection hooks ----------------------------------------------

  /// Observe every conflict (Figure-1 reproduction, tests).
  void set_conflict_observer(std::function<void(const ConflictRecord&)> cb) {
    conflict_observer_ = std::move(cb);
  }

  /// Override decision making: return a literal to decide, or kUndefLit
  /// to fall back to VSIDS (drives the §2.3 scripted example).
  void set_decision_hook(std::function<cnf::Lit()> hook) {
    decision_hook_ = std::move(hook);
  }

  /// Attach an event tracer (obs/trace.hpp): conflicts (with LBD),
  /// restarts, DB reductions, batched decisions, and level-0 imports are
  /// emitted under `worker`. Pass nullptr to detach. The tracer is not
  /// owned and must outlive the solver's use of it.
  void set_tracer(obs::Tracer* tracer, std::uint32_t worker) noexcept {
    tracer_ = tracer;
    trace_worker_ = worker;
  }

  /// Value of a variable under the current (partial) assignment.
  [[nodiscard]] cnf::LBool value(cnf::Var v) const noexcept {
    return vals_[cnf::Lit(v, false).code()];
  }
  [[nodiscard]] cnf::LBool value(cnf::Lit l) const noexcept {
    return vals_[l.code()];
  }
  [[nodiscard]] std::uint32_t level_of(cnf::Var v) const noexcept {
    return vars_[v].level;
  }
  [[nodiscard]] bool tainted(cnf::Var v) const noexcept {
    return vars_[v].taint != 0;
  }

  /// Visit every live clause in arena order: fn(literals in storage
  /// order, learned flag). Tests check what a ship carries against it.
  template <class Fn>
  void for_each_clause(Fn&& fn) const {
    arena_.for_each(
        [&](ClauseRef r) { fn(arena_.lits(r), arena_.learned(r)); });
  }

  /// Debug invariant check: watched pairs sane, trail consistent. Returns
  /// an empty string when all invariants hold (tests call this).
  [[nodiscard]] std::string check_invariants() const;

  /// The recorded proof (empty unless config.log_proof and no sink is set).
  [[nodiscard]] const ProofLog& proof() const noexcept { return proof_; }

  /// The pure guiding-path assumptions this solver runs under: split
  /// decisions only, in split order, without their propagated
  /// consequences. Empty for a full-formula solver. Seeded from
  /// Subproblem::assumptions and extended by split().
  [[nodiscard]] const std::vector<cnf::Lit>& assumptions() const noexcept {
    return assumptions_;
  }

  /// Attach an external cancellation flag (not owned; may be null to
  /// detach). solve() polls it at the top of every propagate-analyze
  /// round and returns kUnknown — resumably, with all state intact —
  /// within one propagation batch of the flag going true. This is how
  /// ParallelSolver stops its busy workers once one of them ends the solve,
  /// instead of letting them burn the rest of their work slice.
  void set_cancel_flag(const std::atomic<bool>* flag) noexcept {
    cancel_ = flag;
  }

  /// Send every proof event to `sink` instead of proof(): the solver then
  /// keeps no private record, and the sink decides what to keep (the
  /// shared DistributedProofBuilder keeps additions only). Null restores
  /// the solver's own log. Not owned; must outlive the solver's use. Only
  /// consulted while config.log_proof is on.
  void set_proof_sink(ProofSink* sink) noexcept { proof_sink_ = sink; }

 private:
  struct Watcher {
    ClauseRef cref;
    cnf::Lit blocker;  ///< some other literal; clause skipped if true
  };

  /// One entry of the binary-implication store: the list for literal code
  /// L holds, for every binary clause (¬L ∨ implied), the implied literal
  /// plus the clause reference (needed as a reason for conflict analysis
  /// and for proof/DB bookkeeping). Propagating from this 8-byte record
  /// touches one cache line per few clauses and never dereferences the
  /// arena on the skip path.
  struct BinWatcher {
    cnf::Lit implied;
    ClauseRef cref;
  };

  /// `clauses` is a std::vector<cnf::Clause> or a cnf::ClausePool.
  template <class Clauses>
  void init(cnf::Var num_vars, const Clauses& clauses,
            std::size_t num_problem_clauses,
            const std::vector<SubproblemUnit>& units);

  // Core search machinery.
  bool enqueue(cnf::Lit p, ClauseRef reason);
  bool enqueue_level0(cnf::Lit p, bool tainted);
  ClauseRef propagate();
  ClauseRef propagate_fast();
  ClauseRef propagate_binary(cnf::Lit falsified, std::uint32_t dl);
  void enqueue_implied(cnf::Lit p, ClauseRef reason, std::uint32_t dl);
  /// True when this clause is (or would be) watched by the binary store.
  [[nodiscard]] bool in_binary_store(ClauseRef cref) const {
    return arena_.size(cref) == 2;
  }
  void analyze(ClauseRef confl, std::vector<cnf::Lit>& learned,
               std::uint32_t& backjump_level, cnf::Lit& uip,
               std::uint32_t& lbd);
  void minimize(std::vector<cnf::Lit>& learned);
  void minimize_deep(std::vector<cnf::Lit>& learned);
  /// Recursive-minimization probe: true when `root` (a learned-clause
  /// literal) is implied by the rest of the clause plus untainted level-0
  /// facts, established by DFS over reason antecedents. `levels_mask` is
  /// the abstraction of the clause's decision levels (1 << (level & 63));
  /// an antecedent outside it can never bottom out in the clause.
  bool lit_redundant(cnf::Lit root, std::uint64_t levels_mask);
  /// Resolve the learned clause against binary clauses of the asserting
  /// literal, dropping any literal whose negation they imply.
  void strengthen_binary(std::vector<cnf::Lit>& learned);
  /// Apply the on-the-fly subsumption jobs collected by analyze(): runs
  /// right after backtrack(), while the pivots are unassigned and before
  /// any allocation can move the arena.
  void apply_otf_strengthening();
  /// Number of distinct decision levels among `lits` (the Glucose glue
  /// metric); every literal must be assigned.
  [[nodiscard]] std::uint32_t compute_lbd(const std::vector<cnf::Lit>& lits);
  void backtrack(std::uint32_t target_level);
  std::optional<cnf::Lit> pick_branch();
  void learn_and_attach(const std::vector<cnf::Lit>& learned,
                        std::uint32_t lbd);
  void attach(ClauseRef cref);
  void detach(ClauseRef cref);
  /// Add a clause at level 0 with standard preprocessing (dedupe,
  /// tautology skip, satisfied skip, untainted-false-literal drop).
  /// Returns false when the clause (with propagation pending) refutes
  /// the subproblem. Input with strictly ascending literal codes (what
  /// to_subproblem() and learned_clauses() emit) takes one loop with no
  /// copy and no sort; the stored clause is the same either way.
  /// `new_ref` (optional) receives the allocated clause ref, or kNoClause
  /// when the clause was pruned, became a unit, or conflicted. With
  /// `attach_now` false the stored clause is left for the caller to
  /// attach (init() attaches a whole clause set at once).
  bool add_clause_at_level0(std::span<const cnf::Lit> clause, bool learned,
                            ClauseRef* new_ref = nullptr,
                            bool attach_now = true);
  /// add_clause_at_level0()'s one loop, for a clause with strictly
  /// ascending literal codes: the order and tautology check, the level-0
  /// classification and the write of the kept literals straight into the
  /// arena. Hands the new ref (or kNoClause) back through `new_ref`,
  /// unattached. Returns nullopt, having changed nothing, at a literal
  /// out of order or outside the variable universe.
  std::optional<bool> add_ascending_at_level0(std::span<const cnf::Lit> clause,
                                              bool learned,
                                              ClauseRef& new_ref);
  /// Attach `crefs` in order, each watch list sized once up front: the
  /// lists end up as attach() one by one would leave them, minus the
  /// regrowth.
  void attach_all(std::span<const ClauseRef> crefs);

  // Maintenance.
  void reduce_db();
  void drop_all_learned();       ///< emergency memory escalation
  bool merge_imports();          ///< at level 0; false => UNSAT
  /// Drop clauses satisfied at level 0 (false literals stay put);
  /// false => UNSAT.
  bool simplify_at_level0();
  /// Arena compaction (order-preserving). Safe at any decision
  /// level: the remap rewrites both watch stores and the reason of every
  /// trail literal, and backtrack() clears reasons of unassigned
  /// variables, so no stale ref survives. reduce_db() relies on this
  /// mid-search.
  void garbage_collect();
  /// Locality pass: rebuild the arena with problem clauses first, then
  /// learned clauses glue-first (LBD ascending, allocation order within a
  /// band). Falls back to garbage_collect() under memory pressure.
  void compact_ordered();
  /// Rewrite every external ClauseRef (watch lists, binary store, trail
  /// reasons) through a compaction remap.
  void rewrite_refs(const ClauseArena::Remap& remap);

  // VSIDS.
  void bump_lit(cnf::Lit l);
  void bump_clause(ClauseRef c);
  void decay_activities();
  void heap_insert(std::uint32_t lit_code);
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  std::uint32_t heap_pop();

  [[nodiscard]] bool heap_less(std::uint32_t a, std::uint32_t b) const noexcept {
    return activity_[a] < activity_[b] ||
           (activity_[a] == activity_[b] && a > b);
  }

  void record_conflict(ClauseRef confl, const std::vector<cnf::Lit>& learned,
                       cnf::Lit uip, std::uint32_t backjump_level,
                       std::uint32_t lbd);

  SolverConfig config_;
  cnf::Var num_vars_ = 0;

  ClauseArena arena_;
  std::vector<std::vector<Watcher>> watches_;  ///< indexed by literal code
  /// Binary-clause implications, indexed by the falsified literal's code;
  /// disjoint from watches_ (which holds only clauses of 3+ literals).
  std::vector<std::vector<BinWatcher>> bin_watches_;
  /// Occupancy bitmaps (bit per literal code, cache-resident): a clear bit
  /// proves the corresponding watch list is empty, so propagate_fast()
  /// skips the (usually cold) list-header load entirely. Conservative:
  /// bits are set on every insertion and never cleared on removal — a
  /// stale set bit only costs the lookup it would have cost anyway.
  std::vector<std::uint64_t> bin_occupied_;
  std::vector<std::uint64_t> watch_occupied_;

  static void set_occupied(std::vector<std::uint64_t>& bits,
                           std::uint32_t code) noexcept {
    bits[code >> 6] |= std::uint64_t{1} << (code & 63);
  }
  [[nodiscard]] static bool occupied(const std::vector<std::uint64_t>& bits,
                                     std::uint32_t code) noexcept {
    return ((bits[code >> 6] >> (code & 63)) & 1) != 0;
  }

  /// Per-variable search state packed into one 12-byte record so the BCP
  /// enqueue path (level + reason + taint) touches a single cache line
  /// per variable instead of three parallel arrays.
  struct VarState {
    std::uint8_t taint = 0;
    std::uint32_t level = 0;
    ClauseRef reason = kNoClause;
  };

  /// The assignment, one byte per literal code: value(Lit) is a single
  /// load with no polarity logic. A variable's two entries are
  /// complements, or both kUndef while it is unassigned.
  std::vector<cnf::LBool> vals_;
  void assign_true(cnf::Lit p) noexcept {
    vals_[p.code()] = cnf::LBool::kTrue;
    vals_[p.code() ^ 1] = cnf::LBool::kFalse;
  }

  // Per-variable search state, indexed by variable (slot 0 unused).
  std::vector<VarState> vars_;
  std::vector<std::uint8_t> phase_;  ///< saved phase (1 = last true)

  std::vector<cnf::Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;
  std::size_t qhead_ = 0;

  // VSIDS state: activity per literal code + binary max-heap.
  std::vector<double> activity_;
  std::vector<std::uint32_t> heap_;
  std::vector<std::int32_t> heap_pos_;  ///< -1 = not in heap
  double activity_inc_ = 1.0;
  double clause_activity_inc_ = 1.0;

  // Analysis scratch. learned_ is the clause analyze() derives, reused
  // across conflicts instead of regrown on each.
  std::vector<cnf::Lit> learned_;
  std::vector<std::uint8_t> seen_;
  std::vector<cnf::Lit> analyze_clear_;
  /// Per-level stamps for compute_lbd(): level L was counted for the
  /// current clause iff lbd_stamp_[L] == lbd_stamp_counter_. O(1) reset.
  std::vector<std::uint64_t> lbd_stamp_;
  std::uint64_t lbd_stamp_counter_ = 0;

  // Recursive-minimization scratch (minimize_deep): per-variable verdict
  // memo, valid for the current epoch only (O(1) reset per minimize()
  // call). kMinSupport = in the learned clause, proven redundant, or on
  // the current probe path; kMinPoison = proven required by an intrinsic
  // leaf property (decision, tainted level-0, or level outside the
  // abstraction mask), safe to memoize across probes.
  static constexpr std::uint8_t kMinUnknown = 0;
  static constexpr std::uint8_t kMinSupport = 1;
  static constexpr std::uint8_t kMinPoison = 2;
  std::vector<std::uint64_t> min_stamp_;  ///< per var; valid iff == min_epoch_
  std::vector<std::uint8_t> min_mark_;    ///< per var
  std::uint64_t min_epoch_ = 0;
  std::vector<cnf::Lit> min_stack_;  ///< DFS worklist of pending pivots
  std::vector<cnf::Var> min_clear_;  ///< vars marked during this minimize()

  /// Per-literal stamps for strengthen_binary(): literal code C is in the
  /// learned clause iff lit_stamp_[C] == lit_stamp_counter_.
  std::vector<std::uint64_t> lit_stamp_;
  std::uint64_t lit_stamp_counter_ = 0;

  /// On-the-fly subsumption jobs: antecedent clause + the pivot variable
  /// to drop. Collected during analyze(), applied after backtrack() (the
  /// pivot — the antecedent's implied literal — is unassigned by then, so
  /// the clause is no longer anyone's reason).
  struct OtfJob {
    ClauseRef cref;
    cnf::Var pivot;
  };
  std::vector<OtfJob> otf_jobs_;

  // add_clause_at_level0() scratch: the sorted copy of unsorted input,
  // and the tainted-false literals of the clause being stored.
  std::vector<cnf::Lit> add_lits_;
  std::vector<cnf::Lit> add_tainted_false_;

  // Restart / reduce schedule.
  std::uint64_t conflicts_until_restart_ = 0;
  std::uint32_t restart_count_ = 0;
  /// Current kGeometric interval; seeded to restart_base in init() and
  /// grown by iterative multiplication (no pow(), so the schedule is
  /// bit-identical across platforms).
  double geom_interval_ = 0.0;
  /// Interval until the next restart under config_.restart_policy;
  /// advances the geometric state. Call once per (re)start.
  [[nodiscard]] std::uint64_t next_restart_interval();
  std::size_t max_learned_ = 0;
  std::size_t last_simplify_trail_ = 0;
  std::size_t proof_logged_units_ = 0;
  std::uint32_t memory_squeezes_ = 0;

  // Sharing.
  std::vector<std::shared_ptr<const cnf::ClausePool>> import_queue_;
  std::size_t pending_imports_ = 0;  ///< clauses across import_queue_
  std::function<void(std::span<const cnf::Lit>, std::uint32_t)> share_cb_;

  std::function<void(const ConflictRecord&)> conflict_observer_;
  std::function<cnf::Lit()> decision_hook_;

  // Observability (null = untraced; see obs/trace.hpp for the costs).
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t trace_worker_ = 0;

  /// External cancellation flag (see set_cancel_flag); null = never.
  const std::atomic<bool>* cancel_ = nullptr;

  /// Proof hooks. proof_on() folds to a compile-time false under
  /// GRIDSAT_PROOF=OFF so every logging site vanishes from the hot path.
  [[nodiscard]] bool proof_on() const noexcept {
    return kProofCompiledIn && config_.log_proof;
  }
  void proof_emit(ProofEvent event, std::span<const cnf::Lit> clause);
  void proof_delete(ClauseRef cref);
  /// Log the refutation terminal once: ¬(assumptions), which is the empty
  /// clause for a full-formula solver.
  void log_terminal();

  util::Xoshiro256 rng_;
  ProofLog proof_;
  ProofSink* proof_sink_ = nullptr;  ///< null: proof_ (safe across moves)
  std::vector<cnf::Lit> assumptions_;
  bool terminal_logged_ = false;
  SolverStats stats_;
  SolveStatus status_ = SolveStatus::kUnknown;
  bool root_conflict_ = false;  ///< formula (or subproblem) refuted
  cnf::Assignment model_;
};

}  // namespace gridsat::solver
