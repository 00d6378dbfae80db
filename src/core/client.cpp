#include "core/client.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>

#include "core/campaign.hpp"

namespace gridsat::core {

using solver::SolveStatus;

Client::Client(Campaign& campaign, std::size_t host_index, std::string name)
    : campaign_(campaign), host_index_(host_index), name_(std::move(name)) {
  if constexpr (obs::kTraceCompiledIn) {
    // Same lane name the message bus uses for this endpoint, so solver
    // and wire events interleave on one timeline row.
    if (campaign_.tracer_ != nullptr) {
      trace_worker_ = campaign_.tracer_->register_worker("client:" + name_);
    }
  }
}

void Client::trace_phase(const char* phase) {
  if constexpr (obs::kTraceCompiledIn) {
    obs::Tracer* t = campaign_.tracer_;
    if (t != nullptr && t->enabled()) {
      t->emit(trace_worker_, obs::EventKind::kPhase, t->intern(phase));
    }
  } else {
    (void)phase;
  }
}

std::uint64_t Client::work_done() const noexcept {
  return work_accumulated_ + (solver_ ? solver_->stats().work : 0);
}

std::uint64_t Client::clauses_imported() const noexcept {
  return imported_accumulated_ +
         (solver_ ? solver_->stats().imported_clauses : 0);
}

std::uint64_t Client::clauses_imported_used() const noexcept {
  return imported_used_accumulated_ +
         (solver_ ? solver_->stats().imported_used : 0);
}

void Client::start_subproblem(std::shared_ptr<solver::Subproblem> sp,
                              double transfer_seconds,
                              solver::WireMode mode) {
  if (!alive_ || campaign_.done()) return;
  if (solver_) {
    // Collision: a second subproblem arrived while this client is still
    // working (e.g. a restore raced a split whose requester died). Hand
    // it back; the master requeues it for the next idle client.
    const std::size_t host = host_index_;
    campaign_.send_up(
        host_index_, Msg::kSubproblemReject, Campaign::kControlMessageBytes,
        [&c = campaign_, host, sp] { c.on_subproblem_rejected(sp, host); },
        sp->flow_id);
    return;
  }
  if (mode == solver::WireMode::kBaseRef && !base_cached_) {
    // The payload referenced a base this client does not hold (it
    // relaunched after the master recorded residency, so the cache the
    // sender assumed is gone). Renegotiate: the master degrades the ship
    // to a base-block transfer followed by a full start — a stale cache
    // can cost a round trip, never a wrong formula.
    const std::size_t host = host_index_;
    campaign_.send(
        campaign_.endpoints_[host], campaign_.root_, Msg::kBaseMiss,
        Campaign::kControlMessageBytes,
        [&c = campaign_, host, sp] { c.on_base_miss(host, sp); },
        sp->flow_id);
    return;
  }
  base_cached_ = true;
  campaign_.records_[host_index_].base_resident = true;
  // Adopt the payload's causal identity: this tenancy's protocol
  // messages join the subproblem's trace flow, and its checkpoints carry
  // the lineage so a recovery re-ships under the same tree node.
  lineage_ = sp->lineage_id;
  flow_ = sp->flow_id;
  solver::SolverConfig solver_config = campaign_.config().solver;
  if (campaign_.config().parallel_mode != solver::ParallelMode::kSplit) {
    // Racing modes: co-racers of one subproblem must search differently,
    // or k racers are k-1 wasted hosts. The slot picks the heuristic
    // profile; the lineage salts the seed so distinct subproblems'
    // same-slot racers are decorrelated too.
    solver_config = solver::diversified_config(
        solver_config, sp->race_slot,
        sp->lineage_id * 131 + sp->race_slot);
  }
  solver_config.memory_limit_bytes =
      campaign_.host(host_index_).memory_bytes();
  // zChaff's heuristics are deterministic: every client runs the same
  // engine and search diversity comes from the subproblems themselves.
  // A client must also survive memory pressure until its split request
  // is granted, so squeezes are unlimited (the 60% rule makes them rare).
  solver_config.max_memory_squeezes = 0;
  solver_ = std::make_unique<solver::CdclSolver>(*sp, solver_config);
  solver_->set_tracer(campaign_.tracer_, trace_worker_);
  if (campaign_.proof_builder_) {
    solver_->set_proof_sink(campaign_.proof_builder_.get());
  }
  trace_phase("subproblem-start");
  const std::size_t share_cap = campaign_.config().share_max_len;
  const bool collect_deltas =
      campaign_.config().checkpoint == CheckpointMode::kHeavy &&
      campaign_.config().checkpoint_chain_max > 0;
  // The simulated campaign keeps the paper's pure length filter (§3.2).
  // The LBD rides along with each kept export: the flat path drops it,
  // the hierarchical path ships it to the sub-master, whose inter-site
  // digest keys on it (config.inter_site_lbd_cap).
  solver_->set_share_callback(
      [this, share_cap, collect_deltas](std::span<const cnf::Lit> clause,
                                        std::uint32_t lbd) {
        if (clause.size() <= share_cap) {
          // The one copy every hop and receiver reads, sorted in place.
          const std::span<cnf::Lit> lits =
              exports_.clauses.open_clause(clause.size());
          std::copy(clause.begin(), clause.end(), lits.begin());
          std::sort(lits.begin(), lits.end());
          exports_.clauses.close_clause(lits.size());
          exports_.lbds.push_back(lbd);
        }
        if (collect_deltas) {
          ckpt_fresh_.emplace_back(clause.begin(), clause.end());
        }
      });
  subproblem_started_ = campaign_.engine().now();
  last_transfer_s_ = transfer_seconds;
  split_requested_ = false;
  checkpointed_level0_ = 0;
  last_checkpoint_ = campaign_.engine().now();
  ckpt_incarnation_ = campaign_.next_incarnation();
  ckpt_epoch_ = 0;
  ckpt_acked_epoch_ = 0;
  ckpt_deltas_since_full_ = 0;
  ckpt_force_full_ = false;
  ckpt_unacked_.clear();
  ckpt_fresh_.clear();
  // Message 4 of Figure 3: acknowledge receipt to the master. The ack
  // announces this tenancy's incarnation nonce; the master refuses
  // checkpoints carrying any other incarnation, so a stale checkpoint
  // reordered past its own ack can never poison the new chain.
  const std::size_t host = host_index_;
  const std::uint64_t incarnation = ckpt_incarnation_;
  campaign_.send_up(
      host_index_, Msg::kSubproblemAck, Campaign::kControlMessageBytes,
      [&c = campaign_, host, incarnation] {
        c.on_subproblem_ack(host, incarnation);
      },
      flow_);
  if (!slice_scheduled_) {
    slice_scheduled_ = true;
    campaign_.engine().schedule_in(0.0, [this] {
      slice_scheduled_ = false;
      compute_slice();
    });
  }
}

void Client::receive_clauses(std::shared_ptr<const ClauseBatch> batch) {
  if (!alive_ || !solver_) return;  // idle clients drop stale batches
  // The solver queues the batch's own pool: an aliasing pointer, no copy.
  solver_->import_clauses(
      std::shared_ptr<const cnf::ClausePool>(batch, &batch->clauses));
}

bool Client::decline_stale_grant() {
  if (solver_) return false;
  // Finished in the meantime: give the reservation back (the master will
  // re-dispatch the peers to someone else; release_grant frees every
  // reserved peer of this grant).
  const std::size_t requester = host_index_;
  campaign_.send_up(
      host_index_, Msg::kSplitFailed, Campaign::kControlMessageBytes,
      [&c = campaign_, requester] { c.on_split_failed(requester); });
  return true;
}

void Client::grant_split(std::vector<std::size_t> peer_hosts) {
  if (!alive_ || peer_hosts.empty() || decline_stale_grant()) return;
  pending_split_peers_ = std::move(peer_hosts);
}

void Client::order_migration(std::size_t peer_host) {
  if (!alive_ || decline_stale_grant()) return;
  pending_migrate_peer_ = static_cast<std::ptrdiff_t>(peer_host);
}

void Client::cancel_subproblem(std::uint64_t incarnation) {
  if (!alive_ || campaign_.done() || !solver_) return;
  // Stale cancel for a tenancy this host no longer runs (it finished or
  // re-registered in the meantime): ignore. The incarnation nonce is the
  // same guard the checkpoint chain uses.
  if (incarnation != ckpt_incarnation_) return;
  trace_phase("race-cancelled");
  // The loser's work still counts (and its exported clauses stay valid —
  // every learned clause is a consequence of the shared formula), but the
  // tenancy ends here, at the next cooperation point.
  end_tenancy();
  pending_split_peers_.clear();
  pending_migrate_peer_ = -1;
  split_requested_ = false;
  const std::size_t host = host_index_;
  campaign_.send(
      campaign_.endpoints_[host], campaign_.root_, Msg::kCancelled,
      Campaign::kControlMessageBytes,
      [&c = campaign_, host] { c.on_race_cancelled(host); }, flow_);
}

void Client::end_tenancy() {
  work_accumulated_ += solver_->stats().work;
  imported_accumulated_ += solver_->stats().imported_clauses;
  imported_used_accumulated_ += solver_->stats().imported_used;
  solver_.reset();
  exports_ = {};
}

void Client::kill() {
  alive_ = false;
  solver_.reset();
  exports_ = {};
}

void Client::sub_hello() {
  if (!alive_ || campaign_.done() || !solver_) return;
  // Only a request the dead incarnation could have swallowed needs
  // re-sending: one that was issued but has produced no grant yet.
  if (!split_requested_ || !pending_split_peers_.empty() ||
      pending_migrate_peer_ >= 0) {
    return;
  }
  const std::size_t host = host_index_;
  campaign_.send_up(
      host_index_, Msg::kSplitRequest, Campaign::kControlMessageBytes,
      [&c = campaign_, host] { c.enqueue_split_request(host); });
}

double Client::effective_split_timeout() const {
  // Paper §3.3: request more resource after twice the time it took to
  // send/receive the problem, floored by the configured base (100 s).
  return std::max(campaign_.config().split_timeout_s, 2.0 * last_transfer_s_);
}

void Client::compute_slice() {
  if (!alive_ || campaign_.done() || !solver_) return;
  if (pending_migrate_peer_ >= 0) {
    perform_migration();
    return;
  }
  if (!pending_split_peers_.empty() && solver_->can_split()) {
    perform_split();
    if (!solver_) return;  // defensive; split keeps the solver
  }
  sim::SimEngine& engine = campaign_.engine();
  const double speed =
      campaign_.host(host_index_).effective_speed(engine.now());
  const double quantum = campaign_.config().client_quantum_s;
  const auto budget = static_cast<std::uint64_t>(
      std::max(1.0, quantum * speed));
  const std::uint64_t work_before = solver_->stats().work;
  const SolveStatus status = solver_->solve(budget);
  const std::uint64_t consumed = solver_->stats().work - work_before;
  // Charge exactly the work performed; a verdict inside the slice lands
  // at its true virtual moment instead of the slice boundary.
  const double dt = std::max(1e-6, static_cast<double>(consumed) / speed);
  if (status == SolveStatus::kUnknown) {
    slice_scheduled_ = true;
    engine.schedule_in(dt, [this] {
      slice_scheduled_ = false;
      post_slice();
    });
  } else {
    engine.schedule_in(dt, [this, status] { finish_subproblem(status); });
  }
}

void Client::post_slice() {
  if (!alive_ || campaign_.done() || !solver_) return;
  flush_exports();
  maybe_checkpoint();
  check_split_triggers();
  compute_slice();
}

void Client::check_split_triggers() {
  // Portfolio racers never split: each covers the whole formula, so a
  // guiding-path child would be redundant with every other racer.
  if (campaign_.config().parallel_mode == solver::ParallelMode::kPortfolio) {
    return;
  }
  if (split_requested_ || !pending_split_peers_.empty() ||
      pending_migrate_peer_ >= 0) {
    return;
  }
  const double now = campaign_.engine().now();
  const std::size_t capacity = campaign_.host(host_index_).memory_bytes();
  const bool memory_pressure =
      static_cast<double>(solver_->db_bytes()) >
      GridSatConfig::mem_split_fraction * static_cast<double>(capacity);
  const bool long_running =
      (now - subproblem_started_) > effective_split_timeout();
  if (memory_pressure || long_running) {
    split_requested_ = true;
    const std::size_t host = host_index_;
    // enqueue_split_request parks the request wherever this topology
    // keeps it: the site backlog under a covering sub-master, the root
    // backlog otherwise (including the bounce off a dead sub-master).
    campaign_.send_up(
        host_index_, Msg::kSplitRequest, Campaign::kControlMessageBytes,
        [&c = campaign_, host] { c.enqueue_split_request(host); });
  }
}

void Client::flush_exports() {
  if (exports_.clauses.empty()) return;
  const auto batch =
      std::make_shared<const ClauseBatch>(std::exchange(exports_, {}));
  const std::size_t host = host_index_;
  const Campaign::Endpoint from = campaign_.endpoints_[host];
  const std::size_t home = campaign_.home_of(host);
  if (home == Campaign::kRoot) {
    campaign_.send(from, campaign_.root_, Msg::kClauses,
                   Campaign::clause_batch_bytes(*batch),
                   [&c = campaign_, host, batch] {
                     c.admit_and_relay(Campaign::kRoot, batch, host);
                   });
    return;
  }
  // Hierarchical topology: the batch travels one intra-site hop to the
  // sub-master, LBDs riding along for the inter-site digest filter. A dead
  // sub-master bounces it to the root, which relays it flat: sharing stays
  // best-effort, never lost to a failure window.
  campaign_.deliver_at_sub(
      from, home, Msg::kClauses,
      Campaign::clause_batch_bytes(*batch, /*lbd_tagged=*/true),
      [&c = campaign_, home, host, batch] {
        c.admit_and_relay(home, batch, host);
      },
      [&c = campaign_, host, batch] {
        c.admit_and_relay(Campaign::kRoot, batch, host);
      });
}

void Client::maybe_checkpoint() {
  const CheckpointMode mode = campaign_.config().checkpoint;
  if (mode == CheckpointMode::kNone || !solver_) return;
  const double now = campaign_.engine().now();
  const std::size_t level0 = solver_->level0_size();
  // Light checkpoints update only when level 0 grows (§3.4); heavy ones
  // also refresh on the configured cadence.
  const bool level0_grew = level0 > checkpointed_level0_;
  const bool periodic_due =
      mode == CheckpointMode::kHeavy &&
      (now - last_checkpoint_) >= campaign_.config().checkpoint_interval_s;
  if (!level0_grew && !periodic_due) return;
  Checkpoint cp;
  cp.heavy = (mode == CheckpointMode::kHeavy);
  cp.incarnation = ckpt_incarnation_;
  cp.lineage_id = lineage_;
  cp.flow_id = flow_;
  cp.units = solver_->level0_units();
  cp.assumptions = solver_->assumptions();
  // Incremental heavy checkpoints (DESIGN.md §4e): one full snapshot per
  // incarnation, then deltas carrying only clauses learned since the
  // last master-acked epoch. Fall back to a full snapshot until the
  // first ship is acked, after a NACK, and every checkpoint_chain_max
  // deltas (bounding chain memory and recovery replay length).
  const bool delta = cp.heavy && ckpt_acked_epoch_ > 0 && !ckpt_force_full_ &&
                     ckpt_deltas_since_full_ <
                         campaign_.config().checkpoint_chain_max;
  cp.epoch = ++ckpt_epoch_;
  if (!cp.heavy) {
    ++campaign_.result_.checkpoints_full;
  } else if (delta) {
    cp.delta = true;
    cp.base_epoch = ckpt_acked_epoch_;
    // The master truncates its chain back to base_epoch before
    // appending, so the delta must cover the whole unacked gap plus the
    // fresh clauses on its own.
    for (const auto& [epoch, clauses] : ckpt_unacked_) {
      cp.learned.insert(cp.learned.end(), clauses.begin(), clauses.end());
    }
    cp.learned.insert(cp.learned.end(), ckpt_fresh_.begin(),
                      ckpt_fresh_.end());
    ckpt_unacked_.emplace_back(cp.epoch, std::move(ckpt_fresh_));
    ckpt_fresh_.clear();
    ++ckpt_deltas_since_full_;
    ++campaign_.result_.checkpoints_delta;
  } else {
    cp.learned = solver_->learned_clauses();
    ckpt_unacked_.clear();
    ckpt_fresh_.clear();
    ckpt_force_full_ = false;
    ckpt_deltas_since_full_ = 0;
    ++campaign_.result_.checkpoints_full;
  }
  checkpointed_level0_ = level0;
  last_checkpoint_ = now;
  const std::size_t bytes = cp.wire_size();
  const std::size_t host = host_index_;
  campaign_.send(
      campaign_.endpoints_[host], campaign_.root_, Msg::kCheckpoint, bytes,
      [&c = campaign_, host, cp = std::move(cp)]() mutable {
        c.on_checkpoint(host, std::move(cp));
      },
      flow_);
}

void Client::checkpoint_acked(std::uint64_t incarnation, std::uint64_t epoch) {
  if (!alive_ || incarnation != ckpt_incarnation_) return;  // stale tenancy
  ckpt_acked_epoch_ = std::max(ckpt_acked_epoch_, epoch);
  std::erase_if(ckpt_unacked_, [this](const auto& entry) {
    return entry.first <= ckpt_acked_epoch_;
  });
}

void Client::checkpoint_nacked(std::uint64_t incarnation) {
  if (!alive_ || incarnation != ckpt_incarnation_) return;
  // The master refused a delta (its chain lost the base we built on):
  // the next checkpoint re-ships a full snapshot.
  ckpt_force_full_ = true;
}

void Client::perform_split() {
  assert(solver_ && solver_->can_split());
  const std::vector<std::size_t> peers = std::move(pending_split_peers_);
  pending_split_peers_.clear();
  split_requested_ = false;
  // The learned block leaves in ship order, so plan_subproblem_ship's
  // trim is a truncation (§4e).
  auto child = std::make_shared<solver::Subproblem>(
      solver_->split(campaign_.config().split_learned_budget_bytes));
  subproblem_started_ = campaign_.engine().now();  // fresh (folded) problem
  obs::trace_event(campaign_.tracer_, trace_worker_, obs::EventKind::kSplit,
                   campaign_.result_.total_splits + 1, peers.front());
  // Split-tree lineage: the node this client held becomes an interior
  // node with two fresh children — the shipped branch (the negated split
  // decision, which is the last assumption of the outgoing payload) and
  // the branch this client keeps. Both get new ids so every tree node is
  // immutable once announced; allocation order (kept child first) is
  // part of the deterministic id sequence. A hybrid multicast ships the
  // SAME child node to every racing peer — one tree node, k tenancies.
  const std::uint64_t parent = lineage_;
  const std::uint32_t branch =
      child->assumptions.empty() ? 0 : child->assumptions.back().code();
  lineage_ = campaign_.allocate_lineage();
  child->lineage_id = campaign_.allocate_lineage();
  child->parent_lineage = parent;
  child->branch_lit = branch;
  obs::trace_event(campaign_.tracer_, trace_worker_,
                   obs::EventKind::kLineageSplit,
                   (lineage_ & 0xffffffffull) |
                       (static_cast<std::uint64_t>(branch ^ 1u) << 32),
                   parent);
  obs::trace_event(campaign_.tracer_, trace_worker_,
                   obs::EventKind::kLineageSplit,
                   (child->lineage_id & 0xffffffffull) |
                       (static_cast<std::uint64_t>(branch) << 32),
                   parent);
  double slowest_transfer = 0.0;
  for (std::size_t k = 0; k < peers.size(); ++k) {
    const std::size_t peer = peers[k];
    // Each racer gets its own payload copy (flow, diversification slot,
    // trim accounting) of the one shared tree node.
    auto sp = k + 1 == peers.size()
                  ? child
                  : std::make_shared<solver::Subproblem>(*child);
    sp->flow_id = campaign_.allocate_flow();
    sp->race_slot = k;
    obs::trace_event(campaign_.tracer_, trace_worker_,
                     obs::EventKind::kLineageShip, sp->lineage_id,
                     campaign_.client_lane(peer));
    // Message 3 of Figure 3: peer-to-peer subproblem transfer. The
    // transfer time also parameterizes both sides' split timeouts (§3.3).
    slowest_transfer = std::max(
        slowest_transfer,
        campaign_.ship(campaign_.endpoints_[host_index_], peer, sp));
  }
  last_transfer_s_ = slowest_transfer;
  // Message 5: tell the master the split succeeded (and, for a hybrid
  // multicast, which hosts form the racing cohort).
  const std::size_t from = host_index_;
  campaign_.send_up(
      host_index_, Msg::kSplitDone, Campaign::kControlMessageBytes,
      [&c = campaign_, from, peers] { c.on_subproblem_sent(from, peers); },
      flow_);
}

void Client::perform_migration() {
  assert(solver_);
  const auto peer = static_cast<std::size_t>(pending_migrate_peer_);
  pending_migrate_peer_ = -1;
  split_requested_ = false;
  auto sp = std::make_shared<solver::Subproblem>(solver_->to_subproblem(
      campaign_.config().split_learned_budget_bytes));
  // The whole problem moves: the tree node and its flow move with it.
  sp->lineage_id = lineage_;
  sp->flow_id = flow_;
  trace_phase("migrate-out");
  obs::trace_event(campaign_.tracer_, trace_worker_,
                   obs::EventKind::kLineageShip, sp->lineage_id,
                   campaign_.client_lane(peer));
  end_tenancy();
  campaign_.ship(campaign_.endpoints_[host_index_], peer, std::move(sp));
  const std::size_t from = host_index_;
  campaign_.send_up(
      host_index_, Msg::kMigrated, Campaign::kControlMessageBytes,
      [&c = campaign_, from] { c.on_migrated(from); }, flow_);
}

void Client::finish_subproblem(SolveStatus status) {
  if (!alive_ || campaign_.done() || !solver_) return;
  flush_exports();
  switch (status) {
    case SolveStatus::kSat: {
      trace_phase("sat-found");
      cnf::Assignment model = solver_->model();
      end_tenancy();
      const std::size_t bytes =
          model.size();  // one byte per variable: the assignment stack
      const std::size_t host = host_index_;
      // The verdict is the root's to declare: a covering sub-master
      // forwards it immediately (both hops charged).
      campaign_.send_up(
          host_index_, Msg::kSatFound, bytes,
          [&c = campaign_, host, model = std::move(model)]() mutable {
            c.on_sat_found(host, std::move(model));
          },
          flow_, /*forward_to_root=*/true);
      break;
    }
    case SolveStatus::kUnsat: {
      trace_phase("subproblem-unsat");
      // The refuted guiding path becomes a leaf of the campaign-wide
      // refutation: ¬(assumptions) is RUP against everything this solver
      // logged, all of which precedes it in the shared log's event order.
      if (campaign_.proof_builder_) {
        campaign_.proof_builder_->add_leaf(solver_->assumptions());
      }
      obs::trace_event(campaign_.tracer_, trace_worker_,
                       obs::EventKind::kLineageRefute, lineage_);
      // An empty guiding path refutes the whole formula — in portfolio
      // (and a hybrid racer holding the root) that alone decides the
      // campaign, with no split tree left to drain.
      const bool root_refuted = solver_->assumptions().empty();
      end_tenancy();
      const std::size_t host = host_index_;
      campaign_.send_up(
          host_index_, Msg::kSubproblemUnsat, Campaign::kControlMessageBytes,
          [&c = campaign_, host, root_refuted] {
            c.on_subproblem_unsat(host, root_refuted);
          },
          flow_);
      break;
    }
    case SolveStatus::kMemOut: {
      // The OS out-of-memory killer takes the client (§3.3 footnote).
      trace_phase("mem-out");
      end_tenancy();
      kill();
      const std::size_t host = host_index_;
      campaign_.engine().schedule_in(Campaign::kMasterMonitorDelay,
                                     [&c = campaign_, host] {
                                       c.on_mem_out(host);
                                     });
      break;
    }
    case SolveStatus::kUnknown:
      assert(false && "finish_subproblem called without a verdict");
      break;
  }
}

}  // namespace gridsat::core
