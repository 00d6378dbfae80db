// Thread-parallel GridSAT-style solver: the paper's algorithm (guiding-
// path splitting + global sharing of short learned clauses) on real
// std::thread workers instead of simulated Grid clients.
//
// The Campaign in core/ reproduces the paper's *system* (scheduling,
// networks, memory pressure) deterministically in virtual time; this
// class is the practical counterpart a downstream user runs on a
// multicore box. Same soundness machinery: split assumptions are tainted,
// every shared clause is valid for the original formula.
//
// Scheduling model: a shared work queue of subproblems. Workers run their
// solver in fixed work-unit slices; between slices they flush learned
// clauses that pass the quality filter (LBD and/or length — see
// ParallelOptions) into their own shard of a SharedClausePool, import
// what other workers published (per-shard cursors; never a full-pool
// copy), and — when any worker is starving — split their problem and
// push the complementary branch. A global fingerprint filter suppresses
// duplicate shipments of the same clause learned by several workers.
// SAT anywhere wins; UNSAT everywhere (queue empty, all workers idle)
// refutes. See DESIGN.md §4b for the exchange microarchitecture.
//
// Splitting is the only strategy here: every worker runs the same loop.
// Racing diversified solvers on one subproblem (portfolio / hybrid) is a
// campaign-level mode only (GridSatConfig::parallel_mode, DESIGN.md §4i).
//
// Verdicts are deterministic; timings and the discovered model are not
// (thread interleaving picks the branch that wins).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cnf/formula.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/cdcl.hpp"
#include "solver/sharing.hpp"
#include "solver/subproblem.hpp"

namespace gridsat::solver {

struct ParallelOptions {
  /// 0 = one per hardware thread.
  std::size_t num_threads = 0;
  /// Share filter: a learned clause is exported when
  ///   (share_max_len > 0 && length <= share_max_len) ||
  ///   (share_max_lbd > 0 && lbd <= share_max_lbd).
  /// Length alone is the paper's filter (§3.2, cap 10 then 3); LBD is the
  /// clause-quality metric (HordeSat/Glucose) that admits long-but-strong
  /// clauses and rejects long-and-weak ones. Both zero = sharing off.
  std::size_t share_max_len = 8;
  std::uint32_t share_max_lbd = 4;
  /// Work units a worker runs between cooperation points.
  std::uint64_t slice_work = 200'000;
  /// log2 of the duplicate-fingerprint table size (entries, not bytes).
  std::size_t dedup_log2_slots = 17;
  /// Re-share epoch length: the duplicate filter forgets everything after
  /// this many admitted publishes. Without it a clause published once is
  /// suppressed for the whole run, even after every importer evicts its
  /// copy in reduce_db() — a long-lived run could never re-converge on a
  /// clause it threw away. 0 = permanent suppression (the pre-epoch
  /// behaviour). Epoch resets only widen what may be shipped; verdicts
  /// are unaffected.
  std::uint64_t dedup_clear_every = 8192;
  SolverConfig solver;
  /// Optional externally owned metric registry. Counters accumulate under
  /// "parallel.*" / "sharing.*" names; ParallelStats still reports this
  /// run's deltas even when the registry is reused across runs. Null =
  /// the solver keeps a private registry.
  obs::MetricRegistry* metrics = nullptr;
  /// Optional event tracer (not owned). Workers are registered as
  /// "worker-<i>" and emit conflict/restart/share/split events; null (or
  /// a disabled tracer) costs one pointer test per would-be event.
  obs::Tracer* tracer = nullptr;
};

struct ParallelStats {
  std::size_t threads = 0;
  std::uint64_t splits = 0;
  std::uint64_t subproblems_refuted = 0;
  /// Clauses that entered the shared pool (post-filter, post-dedup).
  std::uint64_t clauses_published = 0;
  /// Export candidates suppressed because another worker (or an earlier
  /// subproblem) already published an identical literal set.
  std::uint64_t clauses_deduped = 0;
  /// Clauses handed to importing solvers (each shipment counts once per
  /// importing worker).
  std::uint64_t clauses_imported = 0;
  /// Imported clauses later walked by some importer's conflict analysis
  /// — the usefulness numerator over clauses_imported.
  std::uint64_t clauses_imported_used = 0;
  /// Times a publisher or importer found a shard mutex already held —
  /// the residual serialization of the exchange path.
  std::uint64_t shard_lock_contention = 0;
  std::uint64_t total_work = 0;
};

struct ParallelResult {
  SolveStatus status = SolveStatus::kUnknown;
  cnf::Assignment model;  ///< verified against the input when kSat
  ParallelStats stats;
  /// Global arrival-ordered refutation of the input formula, stitched
  /// over the split tree; present only for kUnsat runs with
  /// options.solver.log_proof set (and GRIDSAT_PROOF compiled in).
  /// Validate with certify(formula, *proof).
  std::shared_ptr<const ProofLog> proof;
  /// False when the split-tree stitch failed (some refuted branch never
  /// reported — the proof then lacks its empty clause and will not
  /// certify); proof_error carries the diagnosis.
  bool proof_stitched = false;
  std::string proof_error;
};

class ParallelSolver {
 public:
  ParallelSolver(const cnf::CnfFormula& formula, ParallelOptions options = {});

  /// Blocking solve; spawns the workers and joins them.
  ParallelResult solve();

 private:
  void worker_loop(std::size_t worker_index);
  void run_subproblem(std::size_t worker_index, const Subproblem& sp);
  /// SAT / MemOut anywhere ends the whole solve: trip stop_ (which every
  /// worker's solver polls inside its propagation loop) and wake every
  /// waiter.
  void request_global_stop();

  // Work queue.
  bool pop_work(Subproblem& out);
  void push_work(Subproblem sp);

  /// Dedup + append to the worker's own shard; returns clauses admitted.
  std::size_t publish_clauses(std::size_t worker_index,
                              std::vector<SharedClause> batch);

  const cnf::CnfFormula& formula_;
  ParallelOptions options_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Subproblem> queue_;
  std::size_t active_workers_ = 0;
  bool finished_ = false;  ///< guarded by queue_mutex_

  // Clause exchange: per-worker publish shards + global duplicate filter
  // (see solver/sharing.hpp). Constructed in solve() once the thread
  // count is known.
  std::unique_ptr<SharedClausePool> pool_;
  std::unique_ptr<FingerprintFilter> dedup_;
  /// Admitted publishes since solve() start, for the dedup epoch clear.
  std::atomic<std::uint64_t> publish_count_{0};

  /// Shared arrival-ordered proof log (null unless solver.log_proof).
  std::unique_ptr<DistributedProofBuilder> proof_builder_;

  std::mutex result_mutex_;
  ParallelResult result_;

  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> hungry_workers_{0};

  // Metrics live in a registry (options_.metrics, or a private one) so an
  // external sampler can watch a solve in flight. The handles below are
  // resolved once per solve(); `*_base_` holds each counter's value at
  // solve() start so ParallelStats reports this run's deltas even when a
  // caller reuses one registry across runs.
  obs::MetricRegistry own_metrics_;
  obs::Counter* splits_ctr_ = nullptr;
  obs::Counter* refuted_ctr_ = nullptr;
  obs::Counter* published_ctr_ = nullptr;
  obs::Counter* deduped_ctr_ = nullptr;
  obs::Counter* imported_ctr_ = nullptr;
  obs::Counter* imported_used_ctr_ = nullptr;
  obs::Counter* work_ctr_ = nullptr;
  std::uint64_t splits_base_ = 0;
  std::uint64_t refuted_base_ = 0;
  std::uint64_t published_base_ = 0;
  std::uint64_t deduped_base_ = 0;
  std::uint64_t imported_base_ = 0;
  std::uint64_t imported_used_base_ = 0;
  std::uint64_t work_base_ = 0;

  /// worker index -> tracer worker id (empty when no tracer is attached).
  std::vector<std::uint32_t> trace_ids_;
  [[nodiscard]] std::uint32_t trace_id(std::size_t worker) const noexcept {
    return worker < trace_ids_.size() ? trace_ids_[worker] : 0;
  }
};

}  // namespace gridsat::solver
