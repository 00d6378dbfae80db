#include "solver/parallel.hpp"

#include <algorithm>

#include "solver/diversify.hpp"

namespace gridsat::solver {

ParallelSolver::ParallelSolver(const cnf::CnfFormula& formula,
                               ParallelOptions options)
    : formula_(formula), options_(options) {
  if (options_.num_threads == 0) {
    options_.num_threads =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
}

ParallelResult ParallelSolver::solve() {
  // One publish shard per worker; the dedup table is shared by all.
  pool_ = std::make_unique<SharedClausePool>(options_.num_threads);
  dedup_ = std::make_unique<FingerprintFilter>(options_.dedup_log2_slots);
  publish_count_.store(0);
  proof_builder_.reset();
  if (kProofCompiledIn && options_.solver.log_proof) {
    proof_builder_ = std::make_unique<DistributedProofBuilder>();
  }

  obs::MetricRegistry& reg =
      options_.metrics != nullptr ? *options_.metrics : own_metrics_;
  splits_ctr_ = &reg.counter("parallel.splits");
  refuted_ctr_ = &reg.counter("parallel.subproblems_refuted");
  published_ctr_ = &reg.counter("parallel.clauses_published");
  deduped_ctr_ = &reg.counter("parallel.clauses_deduped");
  imported_ctr_ = &reg.counter("parallel.clauses_imported");
  imported_used_ctr_ = &reg.counter("parallel.clauses_imported_used");
  work_ctr_ = &reg.counter("parallel.total_work");
  splits_base_ = splits_ctr_->get();
  refuted_base_ = refuted_ctr_->get();
  published_base_ = published_ctr_->get();
  deduped_base_ = deduped_ctr_->get();
  imported_base_ = imported_ctr_->get();
  imported_used_base_ = imported_used_ctr_->get();
  work_base_ = work_ctr_->get();
  // Live pool state for mid-run snapshots; frozen to plain values below,
  // before the pool dies with this call.
  reg.gauge_fn("sharing.pool_clauses", [this] {
    return static_cast<double>(pool_->size());
  });
  reg.gauge_fn("sharing.shard_lock_contention", [this] {
    return static_cast<double>(pool_->lock_contention());
  });

  trace_ids_.clear();
  if constexpr (obs::kTraceCompiledIn) {
    if (options_.tracer != nullptr) {
      // Register every worker before the threads spawn: registration
      // mutates the tracer's ring table, emission may not.
      trace_ids_.reserve(options_.num_threads);
      for (std::size_t i = 0; i < options_.num_threads; ++i) {
        trace_ids_.push_back(
            options_.tracer->register_worker("worker-" + std::to_string(i)));
      }
      pool_->set_tracer(options_.tracer, trace_ids_);
    }
  }

  // Seed the queue with the whole problem.
  Subproblem root;
  root.num_vars = formula_.num_vars();
  root.clauses = formula_.clauses();
  root.num_problem_clauses = root.clauses.size();
  root.path = "root";
  push_work(std::move(root));

  std::vector<std::thread> workers;
  workers.reserve(options_.num_threads);
  for (std::size_t i = 0; i < options_.num_threads; ++i) {
    workers.emplace_back([this, i] { worker_loop(i); });
  }
  for (auto& t : workers) t.join();

  std::lock_guard<std::mutex> lock(result_mutex_);
  if (result_.status == SolveStatus::kUnknown) {
    // Queue drained with every branch refuted.
    result_.status = SolveStatus::kUnsat;
  }
  if (proof_builder_ && result_.status == SolveStatus::kUnsat) {
    result_.proof_stitched = proof_builder_->stitch();
    if (!result_.proof_stitched) {
      result_.proof_error = proof_builder_->stitch_error();
    }
    result_.proof =
        std::make_shared<const ProofLog>(proof_builder_->take_log());
  }
  result_.stats.threads = options_.num_threads;
  result_.stats.splits = splits_ctr_->get() - splits_base_;
  result_.stats.subproblems_refuted = refuted_ctr_->get() - refuted_base_;
  result_.stats.clauses_published = published_ctr_->get() - published_base_;
  result_.stats.clauses_deduped = deduped_ctr_->get() - deduped_base_;
  result_.stats.clauses_imported = imported_ctr_->get() - imported_base_;
  result_.stats.clauses_imported_used =
      imported_used_ctr_->get() - imported_used_base_;
  result_.stats.shard_lock_contention = pool_->lock_contention();
  result_.stats.total_work = work_ctr_->get() - work_base_;
  // Freeze the callback gauges: their closures read pool_, which does not
  // outlive this solve for an external registry's purposes.
  reg.set_gauge("sharing.pool_clauses", static_cast<double>(pool_->size()));
  reg.set_gauge("sharing.shard_lock_contention",
                static_cast<double>(pool_->lock_contention()));
  return result_;
}

bool ParallelSolver::pop_work(Subproblem& out) {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  ++hungry_workers_;
  queue_cv_.wait(lock, [this] {
    return finished_ || stop_.load() || !queue_.empty() ||
           (queue_.empty() && active_workers_ == 0);
  });
  --hungry_workers_;
  if (finished_ || stop_.load()) return false;
  if (queue_.empty()) {
    if (active_workers_ == 0) {
      // Global UNSAT: nothing queued, nobody working.
      finished_ = true;
      queue_cv_.notify_all();
    }
    return false;
  }
  out = std::move(queue_.front());
  queue_.pop_front();
  ++active_workers_;
  return true;
}

void ParallelSolver::push_work(Subproblem sp) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back(std::move(sp));
  }
  queue_cv_.notify_one();
}

std::size_t ParallelSolver::publish_clauses(std::size_t worker_index,
                                            std::vector<SharedClause> batch) {
  if (batch.empty()) return 0;
  // Duplicate suppression happens before the shard lock: the fingerprint
  // table is lock-free, so the (global) dedup step adds no serialization.
  std::vector<SharedClause> fresh;
  fresh.reserve(batch.size());
  std::size_t dropped = 0;
  for (SharedClause& sc : batch) {
    if (dedup_->insert(clause_fingerprint(sc.lits))) {
      fresh.push_back(std::move(sc));
    } else {
      ++dropped;
    }
  }
  if (dropped > 0) {
    deduped_ctr_->add(dropped);
    obs::trace_event(options_.tracer, trace_id(worker_index),
                     obs::EventKind::kClauseDedup, dropped);
  }
  const std::size_t n = pool_->publish(worker_index, std::move(fresh));
  published_ctr_->add(n);
  // Dedup epoch: forget all fingerprints every dedup_clear_every admitted
  // publishes, so a clause every importer has since evicted can be shared
  // again (see ParallelOptions::dedup_clear_every).
  if (options_.dedup_clear_every > 0 && n > 0) {
    const std::uint64_t total =
        publish_count_.fetch_add(n, std::memory_order_relaxed) + n;
    if (total / options_.dedup_clear_every !=
        (total - n) / options_.dedup_clear_every) {
      dedup_->clear();
    }
  }
  return n;
}

void ParallelSolver::worker_loop(std::size_t worker_index) {
  Subproblem sp;
  while (pop_work(sp)) {
    run_subproblem(worker_index, sp);
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --active_workers_;
      if (queue_.empty() && active_workers_ == 0) {
        // Possibly the last branch: wake everyone to re-evaluate.
        queue_cv_.notify_all();
      }
    }
  }
  queue_cv_.notify_all();
}

void ParallelSolver::request_global_stop() {
  stop_.store(true);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    finished_ = true;
  }
  queue_cv_.notify_all();
}

void ParallelSolver::run_subproblem(std::size_t worker_index,
                                    const Subproblem& sp) {
  SolverConfig config = options_.solver;
  // Decorrelate ties between workers. Mixing (not adding) matters:
  // `seed + worker_index` makes worker 1 of base seed s replay worker 0
  // of base seed s+1, so adjacent-seed runs half-overlap.
  config.seed = decorrelated_seed(options_.solver.seed, worker_index);
  CdclSolver solver(sp, config);
  solver.set_tracer(options_.tracer, trace_id(worker_index));
  solver.set_cancel_flag(&stop_);
  if (proof_builder_) solver.set_proof_sink(proof_builder_.get());
  std::vector<SharedClause> exports;
  const std::size_t max_len = options_.share_max_len;
  const std::uint32_t max_lbd = options_.share_max_lbd;
  solver.set_share_callback(
      [&exports, max_len, max_lbd](const cnf::Clause& c, std::uint32_t lbd) {
        // Quality filter: short clauses are always cheap to ship; long
        // ones must earn it with a low LBD.
        if ((max_len > 0 && c.size() <= max_len) ||
            (max_lbd > 0 && lbd <= max_lbd)) {
          exports.push_back(SharedClause{c, lbd});
        }
      });
  // Start reading from "now": clauses this subproblem should know about
  // arrived inside sp.clauses; re-importing the pool's history would
  // mostly ship duplicates.
  SharedClausePool::Cursor cursor = pool_->make_cursor();
  pool_->skip_to_now(cursor);
  std::vector<SharedClause> incoming;

  for (;;) {
    if (stop_.load()) return;
    const std::uint64_t before = solver.stats().work;
    const std::uint64_t used_before = solver.stats().imported_used;
    const SolveStatus status = solver.solve(options_.slice_work);
    work_ctr_->add(solver.stats().work - before);
    imported_used_ctr_->add(solver.stats().imported_used - used_before);
    publish_clauses(worker_index, std::move(exports));
    exports.clear();
    switch (status) {
      case SolveStatus::kSat: {
        {
          std::lock_guard<std::mutex> lock(result_mutex_);
          if (result_.status != SolveStatus::kSat) {
            cnf::Assignment model = solver.model();
            if (cnf::is_model(formula_, model)) {
              result_.status = SolveStatus::kSat;
              result_.model = std::move(model);
            }
          }
        }
        request_global_stop();
        return;
      }
      case SolveStatus::kUnsat:
        refuted_ctr_->add(1);
        if (proof_builder_) proof_builder_->add_leaf(solver.assumptions());
        return;
      case SolveStatus::kMemOut: {
        // Only reachable under options_.solver.memory_limit_bytes. A
        // branch that cannot be searched leaves the formula undecided, so
        // the whole solve ends with kMemOut.
        {
          std::lock_guard<std::mutex> lock(result_mutex_);
          result_.status = SolveStatus::kMemOut;
        }
        request_global_stop();
        return;
      }
      case SolveStatus::kUnknown:
        break;  // cooperate, then continue
    }
    // Import what others published while we were solving. Only shards
    // with news are touched (and only their new suffix is copied).
    incoming.clear();
    if (pool_->collect(worker_index, cursor, incoming) > 0) {
      std::vector<cnf::Clause> fresh;
      fresh.reserve(incoming.size());
      for (SharedClause& sc : incoming) fresh.push_back(std::move(sc.lits));
      imported_ctr_->add(fresh.size());
      solver.import_clauses(std::move(fresh));
    }
    // Feed starving workers.
    if (hungry_workers_.load() > 0 && solver.can_split()) {
      push_work(solver.split());
      splits_ctr_->add(1);
      obs::trace_event(options_.tracer, trace_id(worker_index),
                       obs::EventKind::kSplit,
                       splits_ctr_->get() - splits_base_);
    }
  }
}

}  // namespace gridsat::solver
