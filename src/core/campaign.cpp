#include "core/campaign.hpp"

#include <algorithm>
#include <cassert>
#include <span>

#include "cnf/wire.hpp"
#include "solver/sharing.hpp"
#include "util/bytes.hpp"
#include "util/log.hpp"

namespace gridsat::core {

using grid::HostState;
using solver::SolveStatus;

namespace {
constexpr std::size_t kControlMessageBytes = 96;   ///< headers, acks, requests
constexpr double kMasterMonitorDelay = 1.0;        ///< failure detection lag
/// A sub-master ships SITE_SUMMARY every this-many relay ticks (clause
/// digests go every tick; aggregated host state tolerates the staleness).
constexpr std::uint64_t kSummaryTickPeriod = 4;
}  // namespace

// ===========================================================================
// Client
// ===========================================================================

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
        host_index_, Msg::kSubproblemReject, kControlMessageBytes,
        [&c = campaign_, host, sp] { c.on_subproblem_rejected(sp, host); },
        sp->flow_id);
    return;
  }
  if (mode == solver::WireMode::kBaseRef &&
      base_cached_ != campaign_.base_fingerprint()) {
    // The payload referenced a base this client does not hold (it
    // relaunched after the master recorded residency, so the cache the
    // sender assumed is gone). Renegotiate: the master degrades the ship
    // to a base-block transfer followed by a full start — a stale cache
    // can cost a round trip, never a wrong formula.
    const std::size_t host = host_index_;
    campaign_.send_to_master(
        host_index_, Msg::kBaseMiss, kControlMessageBytes,
        [&c = campaign_, host, sp] { c.on_base_miss(host, sp); },
        sp->flow_id);
    return;
  }
  base_cached_ = campaign_.base_fingerprint();
  campaign_.note_base_resident(host_index_);
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
      campaign_.config().incremental_checkpoints;
  // The simulated campaign keeps the paper's pure length filter (§3.2).
  // The LBD rides along with each kept export: the flat path drops it,
  // the hierarchical path ships it to the sub-master, whose inter-site
  // digest keys on it (config.inter_site_lbd_cap).
  solver_->set_share_callback(
      [this, share_cap, collect_deltas](const cnf::Clause& clause,
                                        std::uint32_t lbd) {
        if (clause.size() <= share_cap) {
          export_buffer_.push_back(clause);
          export_lbds_.push_back(lbd);
        }
        if (collect_deltas) ckpt_fresh_.push_back(clause);
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
      host_index_, Msg::kSubproblemAck, kControlMessageBytes,
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

void Client::receive_clauses(std::shared_ptr<std::vector<cnf::Clause>> batch) {
  if (!alive_ || !solver_) return;  // idle clients drop stale batches
  solver_->import_clauses(*batch);
}

void Client::grant_split(std::vector<std::size_t> peer_hosts) {
  if (!alive_ || peer_hosts.empty()) return;
  if (!solver_) {
    // Finished in the meantime: give the reservation back (the master
    // will re-dispatch the peers to someone else; release_grant frees
    // every reserved peer of this grant).
    const std::size_t requester = host_index_;
    campaign_.send_up(host_index_, Msg::kSplitFailed, kControlMessageBytes,
                      [&c = campaign_, requester] {
                        c.on_split_failed(requester);
                      });
    return;
  }
  pending_split_peers_ = std::move(peer_hosts);
}

void Client::order_migration(std::size_t peer_host) {
  if (!alive_) return;
  if (!solver_) {
    const std::size_t requester = host_index_;
    campaign_.send_up(host_index_, Msg::kSplitFailed, kControlMessageBytes,
                      [&c = campaign_, requester] {
                        c.on_split_failed(requester);
                      });
    return;
  }
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
  campaign_.send_to_master(
      host_index_, Msg::kCancelled, kControlMessageBytes,
      [&c = campaign_, host] { c.on_race_cancelled(host); }, flow_);
}

void Client::end_tenancy() {
  work_accumulated_ += solver_->stats().work;
  imported_accumulated_ += solver_->stats().imported_clauses;
  imported_used_accumulated_ += solver_->stats().imported_used;
  solver_.reset();
  export_buffer_.clear();
  export_lbds_.clear();
}

void Client::kill() {
  alive_ = false;
  solver_.reset();
  export_buffer_.clear();
  export_lbds_.clear();
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
  campaign_.send_up(host_index_, Msg::kSplitRequest, kControlMessageBytes,
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
      campaign_.config().mem_split_fraction * static_cast<double>(capacity);
  const bool long_running =
      (now - subproblem_started_) > effective_split_timeout();
  if (memory_pressure || long_running) {
    split_requested_ = true;
    const std::size_t host = host_index_;
    // enqueue_split_request parks the request wherever this topology
    // keeps it: the site backlog under a covering sub-master, the root
    // backlog otherwise (including the bounce off a dead sub-master).
    campaign_.send_up(host_index_, Msg::kSplitRequest, kControlMessageBytes,
                      [&c = campaign_, host] {
                        c.enqueue_split_request(host);
                      });
  }
}

void Client::flush_exports() {
  if (export_buffer_.empty()) return;
  const std::size_t host = host_index_;
  const std::ptrdiff_t sub = campaign_.route_sub(host_index_);
  if (sub < 0) {
    auto batch = std::make_shared<std::vector<cnf::Clause>>(
        std::move(export_buffer_));
    export_buffer_.clear();
    export_lbds_.clear();
    const std::size_t bytes = Campaign::clause_batch_bytes(*batch);
    campaign_.send_to_master(host_index_, Msg::kClauses, bytes,
                             [&c = campaign_, host, batch] {
                               c.on_client_clauses(host, batch);
                             });
    return;
  }
  // Hierarchical topology: the batch travels one intra-site hop to the
  // sub-master, LBDs riding along for the inter-site digest filter.
  auto batch = std::make_shared<ClauseBatch>();
  batch->clauses = std::move(export_buffer_);
  batch->lbds = std::move(export_lbds_);
  export_buffer_.clear();
  export_lbds_.clear();
  // One extra byte per clause: the LBD tag.
  const std::size_t bytes =
      Campaign::clause_batch_bytes(batch->clauses) + batch->clauses.size();
  const auto s = static_cast<std::size_t>(sub);
  campaign_.deliver_at_sub(
      s, host_index_, Msg::kClauses, bytes, /*flow=*/0,
      [&c = campaign_, s, host, batch] { c.sub_on_clauses(s, host, batch); },
      [&c = campaign_, host, batch] {
        // Bounced off a dead sub-master: the root relays flat, so the
        // clauses still travel — sharing stays best-effort, never lost
        // to a failure window.
        auto flat = std::make_shared<std::vector<cnf::Clause>>(
            batch->clauses);
        c.on_client_clauses(host, flat);
      });
}

void Client::maybe_checkpoint() {
  const CheckpointMode mode = campaign_.config().checkpoint;
  if (mode == CheckpointMode::kNone || !solver_) return;
  const double now = campaign_.engine().now();
  const std::size_t level0 = solver_->level0_units().size();
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
  const bool delta = cp.heavy && campaign_.config().incremental_checkpoints &&
                     ckpt_acked_epoch_ > 0 && !ckpt_force_full_ &&
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
  campaign_.send_to_master(
      host_index_, Msg::kCheckpoint, bytes,
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
  auto child = std::make_shared<solver::Subproblem>(solver_->split());
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
        campaign_.ship(static_cast<std::ptrdiff_t>(host_index_), peer, sp));
  }
  last_transfer_s_ = slowest_transfer;
  // Message 5: tell the master the split succeeded (and, for a hybrid
  // multicast, which hosts form the racing cohort).
  const std::size_t from = host_index_;
  campaign_.send_up(
      host_index_, Msg::kSplitDone, kControlMessageBytes,
      [&c = campaign_, from, peers] { c.on_subproblem_sent(from, peers); },
      flow_);
}

void Client::perform_migration() {
  assert(solver_);
  const auto peer = static_cast<std::size_t>(pending_migrate_peer_);
  pending_migrate_peer_ = -1;
  split_requested_ = false;
  auto sp = std::make_shared<solver::Subproblem>(solver_->to_subproblem());
  // The whole problem moves: the tree node and its flow move with it.
  sp->lineage_id = lineage_;
  sp->flow_id = flow_;
  trace_phase("migrate-out");
  obs::trace_event(campaign_.tracer_, trace_worker_,
                   obs::EventKind::kLineageShip, sp->lineage_id,
                   campaign_.client_lane(peer));
  end_tenancy();
  campaign_.ship(static_cast<std::ptrdiff_t>(host_index_), peer,
                 std::move(sp));
  const std::size_t from = host_index_;
  campaign_.send_up(
      host_index_, Msg::kMigrated, kControlMessageBytes,
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
          host_index_, Msg::kSubproblemUnsat, kControlMessageBytes,
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
      campaign_.engine().schedule_in(kMasterMonitorDelay,
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

// ===========================================================================
// Campaign (master + orchestration)
// ===========================================================================

namespace {
/// Wire names of the Msg kinds, indexable by the enum value.
constexpr const char* kMsgNames[] = {
    "LAUNCH",          "REGISTER",        "SUBPROBLEM",
    "SUBPROBLEM_ACK",  "SUBPROBLEM_REJECT", "SUBPROBLEM_UNSAT",
    "SAT_FOUND",       "CLAUSES",         "SPLIT_REQUEST",
    "SPLIT_GRANT",     "SPLIT_FAILED",    "SPLIT_DONE",
    "MIGRATE_ORDER",   "MIGRATED",        "CHECKPOINT",
    "CHECKPOINT_ACK",  "CHECKPOINT_NACK", "BASE_MISS",
    "BASE_SHIP",       "CANCEL_SUBPROBLEM", "CANCELLED",
    "SUB_REGISTER",    "SITE_SUMMARY",    "CLAUSE_DIGEST",
    "WORK_REQUEST",    "SPLIT_BROKER",    "BROKER_FAILED",
    "SUB_HELLO",
};
static_assert(std::size(kMsgNames) == static_cast<std::size_t>(Msg::kCount));
}  // namespace

Campaign::Campaign(cnf::CnfFormula formula, std::string master_site,
                   std::vector<sim::HostSpec> hosts, GridSatConfig config)
    : formula_(std::move(formula)),
      master_site_(std::move(master_site)),
      config_(config),
      network_(names_),
      bus_(engine_, network_) {
  master_id_ = names_.intern("master");
  master_site_id_ = names_.intern(master_site_);
  for (std::size_t i = 0; i < std::size(kMsgNames); ++i) {
    msg_ids_[i] = names_.intern(kMsgNames[i]);
  }
  hosts_.reserve(hosts.size());
  clients_.reserve(hosts.size());
  for (auto& spec : hosts) {
    directory_.add(spec);
    hosts_.push_back(std::make_unique<sim::Host>(spec));
    clients_.push_back(nullptr);  // created at launch
    register_host_names(hosts_.size() - 1);
  }
  if (solver::kProofCompiledIn && config_.solver.log_proof) {
    proof_builder_ = std::make_unique<solver::DistributedProofBuilder>();
  }
  // Base-formula caching (DESIGN.md §4e): the fingerprint keys per-host
  // residency; the base-block cost is what a renegotiated BASE_MISS ships.
  base_fingerprint_ = solver::formula_fingerprint(formula_);
  util::ByteCounter counter;
  cnf::encode_clause_stream(
      counter, std::span<const cnf::Clause>(formula_.clauses()));
  base_block_bytes_ = counter.size() + kControlMessageBytes;
  setup_sub_masters();
}

Campaign::~Campaign() = default;

void Campaign::set_batch(BatchOptions options) {
  batch_options_ = std::move(options);
}

void Campaign::schedule_client_failure(std::size_t host_index, double at) {
  engine_.schedule_at(at, [this, host_index] {
    kill_client(host_index, /*host_gone=*/false);
  });
}

void Campaign::kill_client(std::size_t host_index, bool host_gone) {
  Client* victim = client(host_index);
  const bool alive = victim != nullptr && victim->alive();
  // A process failure needs a live process; a departing machine is
  // reported to the master whether or not its client still runs.
  if (!alive && !host_gone) return;
  const bool was_busy = alive && victim->busy();
  if (alive) {
    victim->kill();
    ++result_.client_deaths;
  }
  // The master's monitoring notices shortly afterwards (§3.3: "the
  // master becomes aware of it").
  engine_.schedule_in(kMasterMonitorDelay, [this, host_index, was_busy,
                                            host_gone] {
    on_client_died(host_index, was_busy);
    // on_client_died frees the resource for relaunch; a departed machine
    // is gone until something (a site's return) frees it again.
    if (host_gone && !done_) directory_.at(host_index).state = HostState::kDead;
  });
}

void Campaign::schedule_host_join(sim::HostSpec spec, double at) {
  engine_.schedule_at(at, [this, spec = std::move(spec)] {
    if (done_) return;
    const std::size_t index = directory_.add(spec);
    hosts_.push_back(std::make_unique<sim::Host>(spec));
    clients_.push_back(nullptr);
    register_host_names(index);
    ++result_.hosts_joined;
    launch_client(index);
  });
}

void Campaign::schedule_host_release(std::size_t host_index, double at) {
  engine_.schedule_at(at, [this, host_index] { release_host(host_index); });
}

void Campaign::release_host(std::size_t host_index) {
  if (done_) return;
  grid::ResourceEntry& entry = directory_.at(host_index);
  if (entry.state == HostState::kDead) return;
  ++result_.hosts_released;
  kill_client(host_index, /*host_gone=*/true);
}

void Campaign::schedule_site_outage(const std::string& site, double at,
                                    double down_for) {
  engine_.schedule_at(at, [this, site, down_for] {
    begin_site_outage(site, down_for);
  });
}

void Campaign::begin_site_outage(const std::string& site, double down_for) {
  if (done_) return;
  ++result_.site_outages;
  std::vector<std::size_t> victims;
  for (std::size_t i = 0; i < directory_.size(); ++i) {
    if (directory_.at(i).spec.site != site) continue;
    if (directory_.at(i).state == HostState::kDead) continue;
    victims.push_back(i);
  }
  // One monitoring report per machine, as with any other death.
  for (const std::size_t i : victims) kill_client(i, /*host_gone=*/true);
  engine_.schedule_in(down_for, [this, victims = std::move(victims)] {
    if (done_) return;
    for (const std::size_t i : victims) {
      grid::ResourceEntry& entry = directory_.at(i);
      if (entry.state == HostState::kDead) entry.state = HostState::kFree;
    }
    // Freed machines rejoin the pool; dispatch relaunches on demand.
    try_dispatch();
  });
}

void Campaign::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  engine_.set_tracer(tracer);
  bus_.set_tracer(tracer);
  if (tracer_ != nullptr) {
    master_trace_worker_ = tracer_->register_worker("master");
  }
}

void Campaign::set_metrics(obs::MetricRegistry* metrics) {
  metrics_ = metrics;
  engine_.set_metrics(metrics);
  bus_.set_latency_histogram(nullptr);
  if (metrics_ == nullptr) return;
  // Per-message delivery latency (send -> delivery, virtual seconds).
  // Log buckets: control acks and multi-hundred-MB subproblem ships
  // differ by orders of magnitude, so linear buckets would pile
  // everything into the first bin.
  bus_.set_latency_histogram(&metrics_->histogram(
      "campaign.flow.latency_s", 1e-4, 1e4, 48,
      obs::HistogramMetric::Scale::kLog));
  // Live master state, readable mid-run through snapshots scheduled on
  // the sim engine; frozen to plain values when run() returns.
  metrics_->gauge_fn("campaign.active_clients", [this] {
    return static_cast<double>(directory_.count_in_state(HostState::kBusy));
  });
  metrics_->gauge_fn("campaign.split_backlog", [this] {
    return static_cast<double>(backlog_.size());
  });
  metrics_->gauge_fn("campaign.subproblems_in_flight", [this] {
    return static_cast<double>(subproblems_in_flight_);
  });
  // Clause-sharing usefulness: imports merged vs imports that conflict
  // analysis actually walked (per-solver imported_used, accumulated
  // across tenancies). A dead client's counts die with it, like work.
  metrics_->gauge_fn("campaign.imports", [this] {
    std::uint64_t total = 0;
    for (const auto& c : clients_) {
      if (c) total += c->clauses_imported();
    }
    return static_cast<double>(total);
  });
  metrics_->gauge_fn("campaign.imports_used", [this] {
    std::uint64_t total = 0;
    for (const auto& c : clients_) {
      if (c) total += c->clauses_imported_used();
    }
    return static_cast<double>(total);
  });
  metrics_->gauge_fn("campaign.messages", [this] {
    return static_cast<double>(bus_.messages_sent());
  });
  // Wire-transfer accounting (DESIGN.md §4e): bytes actually shipped.
  metrics_->gauge_fn("campaign.wire.bytes_sent", [this] {
    return static_cast<double>(bus_.bytes_sent());
  });
  // Result counters are published from one table, so each is named
  // once. Per-tier master accounting (DESIGN.md §4j) is registered only
  // under a hierarchical topology, so flat-campaign metric snapshots do
  // not carry it.
  struct ResultGauge {
    const char* name;
    std::uint64_t GridSatResult::*field;
  };
  static constexpr ResultGauge kFlatGauges[] = {
      {"campaign.splits", &GridSatResult::total_splits},
      {"campaign.clauses_shared", &GridSatResult::clauses_shared},
      {"campaign.races_cancelled", &GridSatResult::races_cancelled},
      // Wire-transfer accounting (DESIGN.md §4e): base-ref ships and the
      // bytes they avoided, trimmed payloads, renegotiations, checkpoints.
      {"campaign.wire.base_ref_transfers", &GridSatResult::base_ref_transfers},
      {"campaign.wire.base_ref_bytes_saved",
       &GridSatResult::base_ref_bytes_saved},
      {"campaign.wire.ship_learned_trimmed",
       &GridSatResult::ship_learned_trimmed},
      {"campaign.wire.base_renegotiations",
       &GridSatResult::base_renegotiations},
      {"campaign.wire.checkpoints_full", &GridSatResult::checkpoints_full},
      {"campaign.wire.checkpoints_delta", &GridSatResult::checkpoints_delta},
  };
  static constexpr ResultGauge kHierGauges[] = {
      {"campaign.master.root_messages", &GridSatResult::root_messages_handled},
      {"campaign.master.sub_messages", &GridSatResult::sub_messages_handled},
      {"campaign.master.relay_batches", &GridSatResult::site_relay_batches},
      {"campaign.master.digests", &GridSatResult::inter_site_digests},
      {"campaign.master.digest_clauses", &GridSatResult::digest_clauses_sent},
      {"campaign.master.digest_deduped",
       &GridSatResult::digest_clauses_deduped},
      {"campaign.master.brokered_splits", &GridSatResult::brokered_splits},
      {"campaign.master.bounces", &GridSatResult::sub_master_bounces},
      {"campaign.master.rehomes", &GridSatResult::sub_master_rehomes},
  };
  const auto publish = [this](std::span<const ResultGauge> gauges) {
    for (const ResultGauge& g : gauges) {
      metrics_->gauge_fn(g.name, [this, field = g.field] {
        return static_cast<double>(result_.*field);
      });
    }
  };
  publish(kFlatGauges);
  if (hier_enabled()) {
    metrics_->gauge_fn("campaign.master.sub_masters", [this] {
      return static_cast<double>(sub_masters_.size());
    });
    publish(kHierGauges);
  }
}

void Campaign::register_host_names(std::size_t host_index) {
  assert(endpoint_ids_.size() == host_index);
  endpoint_ids_.push_back(names_.intern("client:" + hosts_[host_index]->name()));
  site_ids_.push_back(names_.intern(hosts_[host_index]->site()));
  // Late joiners (batch grants, elastic acquisitions) tag their lane as
  // they appear; hosts present before run() are tagged in run() itself,
  // after the tracer is attached and enabled.
  tag_site(host_index);
}

std::uint32_t Campaign::client_lane(std::size_t host_index) {
  if constexpr (obs::kTraceCompiledIn) {
    if (tracer_ == nullptr) return 0;
    // Same lane the bus and the client use (register_worker dedupes).
    return tracer_->register_worker("client:" + hosts_[host_index]->name());
  } else {
    (void)host_index;
    return 0;
  }
}

void Campaign::tag_site(std::size_t host_index) {
  if constexpr (obs::kTraceCompiledIn) {
    if (tracer_ == nullptr || !tracer_->enabled()) return;
    tracer_->emit(client_lane(host_index), obs::EventKind::kSiteTag,
                  tracer_->intern(hosts_[host_index]->site()));
  } else {
    (void)host_index;
  }
}

void Campaign::trace_lineage_master(obs::EventKind kind, std::uint64_t a,
                                    std::uint64_t b) {
  obs::trace_event(tracer_, master_trace_worker_, kind, a, b);
}

void Campaign::stamp_and_trace_ship(std::size_t host_index,
                                    solver::Subproblem& sp) {
  if (sp.lineage_id == 0) {
    // A subproblem born without a split (the root, or a test-injected
    // payload) is its own tree node; announce it so every later lineage
    // event has an ancestor to attach to. Allocation is unconditional:
    // ids are identical with and without a tracer.
    sp.lineage_id = allocate_lineage();
    trace_lineage_master(
        obs::EventKind::kLineageSplit,
        (sp.lineage_id & 0xffffffffull) |
            (static_cast<std::uint64_t>(sp.branch_lit) << 32),
        sp.parent_lineage);
  }
  if (sp.flow_id == 0) sp.flow_id = allocate_flow();
  trace_lineage_master(obs::EventKind::kLineageShip, sp.lineage_id,
                       client_lane(host_index));
}

void Campaign::send(std::uint32_t from, std::uint32_t from_site,
                    std::uint32_t to, std::uint32_t to_site, Msg kind,
                    std::size_t bytes, sim::Callback handler,
                    std::uint64_t flow) {
  sim::MessageHeader header;
  header.from = from;
  header.from_site = from_site;
  header.to = to;
  header.to_site = to_site;
  header.kind = kind_id(kind);
  header.bytes = bytes;
  header.flow_id = flow;
  bus_.send(header, std::move(handler));
}

void Campaign::send_to_master(std::size_t from_host, Msg kind,
                              std::size_t bytes, sim::Callback handler,
                              std::uint64_t flow) {
  // Everything addressed to the root counts against it — the flat/hier
  // comparison metric (result.root_messages_handled).
  ++result_.root_messages_handled;
  send(endpoint_ids_[from_host], site_ids_[from_host], master_id_,
       master_site_id_, kind, bytes, std::move(handler), flow);
}

void Campaign::send_to_client(std::size_t to_host, Msg kind,
                              std::size_t bytes, sim::Callback handler,
                              std::uint64_t flow) {
  send(master_id_, master_site_id_, endpoint_ids_[to_host],
       site_ids_[to_host], kind, bytes, std::move(handler), flow);
}

std::size_t Campaign::clause_batch_bytes(
    const std::vector<cnf::Clause>& batch) {
  std::size_t bytes = 8;
  for (const auto& clause : batch) bytes += 2 + 4 * clause.size();
  return bytes;
}

void Campaign::launch_client(std::size_t host_index) {
  grid::ResourceEntry& entry = directory_.at(host_index);
  if (entry.state != HostState::kFree) return;
  if (entry.spec.memory_bytes < config_.min_client_memory) {
    // §3.3: clients terminate when initial free memory is below the
    // floor; such hosts never join the pool.
    entry.state = HostState::kDead;
    return;
  }
  entry.state = HostState::kLaunching;
  // Launch command + client start-up, then the client registers.
  send_to_client(host_index, Msg::kLaunch, kControlMessageBytes,
                 [this, host_index] {
                   engine_.schedule_in(config_.client_launch_s,
                                       [this, host_index] {
                                         if (done_) return;
                                         clients_[host_index] =
                                             std::make_unique<Client>(
                                                 *this, host_index,
                                                 hosts_[host_index]->name());
                                         // Assignment is the root's call:
                                         // a covering sub-master forwards
                                         // the registration as
                                         // SUB_REGISTER.
                                         send_up(
                                             host_index, Msg::kRegister,
                                             kControlMessageBytes,
                                             [this, host_index] {
                                               on_register(host_index);
                                             },
                                             0, /*forward_to_root=*/true);
                                       });
                 });
}

void Campaign::on_register(std::size_t host_index) {
  if (done_) return;
  grid::ResourceEntry& entry = directory_.at(host_index);
  if (entry.state != HostState::kLaunching) return;
  entry.state = HostState::kIdle;
  if (!problem_assigned_) {
    // First client to register is sent the entire problem (§3.3).
    problem_assigned_ = true;
    auto sp = std::make_shared<solver::Subproblem>();
    sp->num_vars = formula_.num_vars();
    sp->clauses = formula_.clauses();
    sp->num_problem_clauses = sp->clauses.size();
    sp->path = "root";
    entry.state = HostState::kReserved;
    assign_subproblem(host_index, sp);
    // stamp_and_trace_ship allocated the root's tree node; portfolio
    // re-ships of the same node reuse the id (one node, many tenancies).
    root_lineage_ = sp->lineage_id;
    return;
  }
  if (config_.parallel_mode == solver::ParallelMode::kPortfolio) {
    // Portfolio: every registrant races the whole formula under a
    // diversified configuration (slot k != 0 remaps heuristics; the
    // clause bus still connects everyone, so racers cooperate).
    auto sp = std::make_shared<solver::Subproblem>();
    sp->num_vars = formula_.num_vars();
    sp->clauses = formula_.clauses();
    sp->num_problem_clauses = sp->clauses.size();
    sp->path = "root";
    sp->lineage_id = root_lineage_;
    sp->race_slot = ++portfolio_next_slot_;
    entry.state = HostState::kReserved;
    assign_subproblem(host_index, std::move(sp));
    return;
  }
  try_dispatch();
}

void Campaign::assign_subproblem(std::size_t host_index,
                                 std::shared_ptr<solver::Subproblem> sp) {
  stamp_and_trace_ship(host_index, *sp);
  ship(-1, host_index, std::move(sp));
}

double Campaign::ship(std::ptrdiff_t from_host, std::size_t to_host,
                      std::shared_ptr<solver::Subproblem> sp, Msg kind) {
  ShipPlan plan{solver::WireMode::kFull, base_block_bytes_};
  if (kind == Msg::kSubproblem) {
    ++subproblems_in_flight_;
    plan = plan_subproblem_ship(to_host, *sp);
  }
  const bool from_master = from_host < 0;
  const std::uint32_t from =
      from_master ? master_id_ : endpoint_ids_[from_host];
  const std::uint32_t from_site =
      from_master ? master_site_id_ : site_ids_[from_host];
  const double transfer =
      network_.transfer_time(plan.bytes, from_site, site_ids_[to_host]);
  const std::uint64_t flow = sp->flow_id;
  send(from, from_site, endpoint_ids_[to_host], site_ids_[to_host], kind,
       plan.bytes,
       [this, to_host, sp = std::move(sp), transfer, mode = plan.mode] {
         Client* target = client(to_host);
         if (target != nullptr && target->alive()) {
           target->start_subproblem(sp, transfer, mode);
         } else {
           on_lost_subproblem(sp, to_host);
         }
       },
       flow);
  return transfer;
}

Campaign::ShipPlan Campaign::plan_subproblem_ship(std::size_t to_host,
                                                  solver::Subproblem& sp) {
  sp.base_fingerprint = base_fingerprint_;
  // What the pre-overhaul format would ship for this transfer: the whole
  // learned block plus the problem-clause block.
  const std::size_t pre_trim_bytes = sp.wire_size(solver::WireMode::kFull);
  std::size_t full_bytes = pre_trim_bytes;
  if (const std::size_t budget = config_.split_learned_budget_bytes;
      budget > 0) {
    if (const std::size_t dropped = sp.trim_learned(budget); dropped > 0) {
      result_.ship_learned_trimmed += dropped;
      full_bytes = sp.wire_size(solver::WireMode::kFull);
      result_.ship_trim_bytes_saved += pre_trim_bytes - full_bytes;
    }
  }
  const auto resident = base_resident_.find(to_host);
  if (config_.base_ref_caching && resident != base_resident_.end() &&
      resident->second == base_fingerprint_) {
    const std::size_t ref_bytes = sp.wire_size(solver::WireMode::kBaseRef);
    ++result_.base_ref_transfers;
    result_.base_ref_bytes_saved += full_bytes - ref_bytes;
    result_.base_ref_payload_bytes += ref_bytes;
    result_.warm_ship_bytes_v1 += pre_trim_bytes;
    return {solver::WireMode::kBaseRef, ref_bytes};
  }
  return {solver::WireMode::kFull, full_bytes};
}

void Campaign::note_base_resident(std::size_t host_index) {
  base_resident_[host_index] = base_fingerprint_;
}

void Campaign::on_base_miss(std::size_t host_index,
                            std::shared_ptr<solver::Subproblem> sp) {
  if (done_) return;
  ++result_.base_renegotiations;
  base_resident_.erase(host_index);
  // Degrade to a full ship: the base block travels master -> host, then
  // the payload restarts in full mode (the in-memory subproblem still
  // carries its problem clauses; only bytes and time are charged). The
  // subproblem stays in flight throughout, so termination accounting is
  // unchanged.
  ship(-1, host_index, std::move(sp), Msg::kBaseShip);
}

void Campaign::on_subproblem_rejected(
    std::shared_ptr<solver::Subproblem> sp, std::size_t host_index) {
  assert(subproblems_in_flight_ > 0);
  --subproblems_in_flight_;
  if (done_) return;
  grid::ResourceEntry& entry = directory_.at(host_index);
  if (entry.state == HostState::kReserved) entry.state = HostState::kBusy;
  if (forget_racer(host_index)) {
    // A racing copy bounced, but surviving cohort members hold the same
    // child: requeuing it would double-cover their search space.
    try_dispatch();
    check_termination();
    return;
  }
  pending_restores_.push_back(std::move(sp));
  try_dispatch();
  check_termination();
}

void Campaign::on_subproblem_ack(std::size_t host_index,
                                 std::uint64_t incarnation) {
  if (done_) return;
  assert(subproblems_in_flight_ > 0);
  --subproblems_in_flight_;
  // Any checkpoint chain still on file for this host describes a
  // *previous* subproblem (e.g. one it held before dying idle and
  // relaunching); recovering it after a death on the new assignment would
  // resurrect search space some other client already owns. The ack's
  // incarnation nonce becomes the only one checkpoints may carry, which
  // also refuses stale checkpoints whose delivery was reordered past
  // this ack (small messages overtake large ones).
  checkpoint_chains_.erase(host_index);
  expected_incarnation_[host_index] = incarnation;
  grid::ResourceEntry& entry = directory_.at(host_index);
  entry.state = HostState::kBusy;
  entry.busy_since = engine_.now();
  update_peak_active();
  if (cancel_on_ack_.erase(host_index) > 0) {
    // The race was decided while this racer's payload was still in
    // flight; now that the tenancy has an incarnation nonce, cancel it.
    send_race_cancel(host_index);
  }
  try_dispatch();
}

void Campaign::on_split_failed(std::size_t requester) {
  if (done_) return;
  forget_backlog(requester);
  release_grant(requester);
}

void Campaign::release_grant(std::size_t requester) {
  if (done_) return;
  const auto it = outstanding_grants_.find(requester);
  if (it == outstanding_grants_.end()) return;
  const std::vector<std::size_t> peers = std::move(it->second);
  outstanding_grants_.erase(it);
  for (const std::size_t peer : peers) {
    grid::ResourceEntry& entry = directory_.at(peer);
    if (entry.state == HostState::kReserved) entry.state = HostState::kIdle;
  }
  try_dispatch();
  check_termination();
}

void Campaign::on_subproblem_sent(std::size_t from,
                                  std::vector<std::size_t> peers) {
  if (done_) return;
  ++result_.total_splits;
  if (config_.parallel_mode == solver::ParallelMode::kHybrid &&
      peers.size() > 1) {
    // The peers now form a racing cohort over one split child: first
    // verdict wins, the master cancels the rest.
    const std::uint64_t cohort = ++next_cohort_;
    for (const std::size_t p : peers) racing_[p] = cohort;
    cohorts_[cohort] = std::move(peers);
  }
  outstanding_grants_.erase(from);
}

void Campaign::on_lost_subproblem(std::shared_ptr<solver::Subproblem> sp,
                                  std::size_t host_index) {
  assert(subproblems_in_flight_ > 0);
  --subproblems_in_flight_;
  if (done_) return;
  grid::ResourceEntry& entry = directory_.at(host_index);
  if (entry.state == HostState::kReserved) entry.state = HostState::kFree;
  if (forget_racer(host_index)) {
    // The racer died before its copy arrived; co-racers cover the child.
    try_dispatch();
    check_termination();
    return;
  }
  if (config_.recover_from_checkpoints) {
    // The in-flight payload IS the lost search space: requeue it whole.
    ++result_.checkpoint_recoveries;
    trace_lineage_master(obs::EventKind::kLineageRecover, sp->lineage_id,
                         client_lane(host_index));
    pending_restores_.push_back(std::move(sp));
    try_dispatch();
    check_termination();
    return;
  }
  finish(CampaignStatus::kError);
}

void Campaign::on_migrated(std::size_t from) {
  if (done_) return;
  ++result_.migrations;
  outstanding_grants_.erase(from);
  // The subproblem left this host; its checkpoint chain now describes
  // search space the migration target owns.
  drop_checkpoints(from);
  grid::ResourceEntry& entry = directory_.at(from);
  entry.state = HostState::kIdle;
  try_dispatch();
}

void Campaign::on_subproblem_unsat(std::size_t host_index, bool root_refuted) {
  if (done_) return;
  // First verdict in a racing cohort wins: tell the co-racers to stand
  // down before anything else re-dispatches them.
  cancel_co_racers(host_index);
  // The refuted subproblem's checkpoint chain is spent: recovering it
  // after a later death would re-open (and double-count) refuted space.
  drop_checkpoints(host_index);
  grid::ResourceEntry& entry = directory_.at(host_index);
  entry.state = HostState::kIdle;
  forget_backlog(host_index);
  release_grant(host_index);
  try_dispatch();
  if (root_refuted && config_.parallel_mode != solver::ParallelMode::kSplit) {
    // An empty guiding path refuted the whole formula: the campaign is
    // decided regardless of what the other racers still hold. Racers cut
    // off by the finish count as cancelled (they lost the race to the
    // verdict itself).
    for (std::size_t i = 0; i < directory_.size(); ++i) {
      if (directory_.at(i).state == HostState::kBusy) {
        ++result_.races_cancelled;
      }
    }
    finish(CampaignStatus::kUnsat);
    return;
  }
  check_termination();
}

void Campaign::cancel_co_racers(std::size_t winner) {
  const auto it = racing_.find(winner);
  if (it == racing_.end()) return;
  const std::uint64_t cohort = it->second;
  racing_.erase(it);
  cancel_on_ack_.erase(winner);
  const auto members = cohorts_.find(cohort);
  if (members == cohorts_.end()) return;
  const std::vector<std::size_t> peers = std::move(members->second);
  cohorts_.erase(members);
  for (const std::size_t peer : peers) {
    if (peer == winner) continue;
    const auto racer = racing_.find(peer);
    // A co-racer may already be gone (refuted concurrently, died, or was
    // rejected); only live cohort members get the cancel order.
    if (racer == racing_.end() || racer->second != cohort) continue;
    racing_.erase(racer);
    send_race_cancel(peer);
  }
}

void Campaign::send_race_cancel(std::size_t peer) {
  const auto expected = expected_incarnation_.find(peer);
  if (expected == expected_incarnation_.end()) {
    // The racer has not acked its tenancy yet, so there is no incarnation
    // nonce to address: cancel the moment the ack arrives.
    cancel_on_ack_.insert(peer);
    return;
  }
  const std::uint64_t incarnation = expected->second;
  send_to_client(
      peer, Msg::kCancelSubproblem, kControlMessageBytes,
      [this, peer, incarnation] {
        Client* target = client(peer);
        if (target != nullptr && target->alive()) {
          target->cancel_subproblem(incarnation);
        }
      });
}

void Campaign::on_race_cancelled(std::size_t host_index) {
  if (done_) return;
  ++result_.races_cancelled;
  // Same bookkeeping as a refuted subproblem, minus the proof leaf: the
  // winner's leaf already covers this search space.
  drop_checkpoints(host_index);
  grid::ResourceEntry& entry = directory_.at(host_index);
  if (entry.state == HostState::kBusy) entry.state = HostState::kIdle;
  forget_backlog(host_index);
  release_grant(host_index);
  try_dispatch();
  check_termination();
}

bool Campaign::forget_racer(std::size_t host_index) {
  const auto it = racing_.find(host_index);
  if (it == racing_.end()) return false;
  const std::uint64_t cohort = it->second;
  racing_.erase(it);
  cancel_on_ack_.erase(host_index);
  const auto members = cohorts_.find(cohort);
  if (members == cohorts_.end()) return false;
  auto& peers = members->second;
  std::erase(peers, host_index);
  // Covered iff a surviving cohort member still races the same child.
  bool covered = false;
  for (const std::size_t p : peers) {
    if (racing_.count(p) != 0) {
      covered = true;
      break;
    }
  }
  if (!covered) cohorts_.erase(members);
  return covered;
}

void Campaign::on_sat_found(std::size_t host_index, cnf::Assignment model) {
  if (done_) return;
  drop_checkpoints(host_index);
  grid::ResourceEntry& entry = directory_.at(host_index);
  entry.state = HostState::kIdle;
  // §3.4: the master verifies that the assignment stack satisfies the
  // problem before declaring victory.
  if (!cnf::is_model(formula_, model)) {
    LOG_ERROR("master") << "client " << hosts_[host_index]->name()
                        << " reported an invalid model";
    finish(CampaignStatus::kError);
    return;
  }
  result_.model = std::move(model);
  finish(CampaignStatus::kSat);
}

void Campaign::on_client_clauses(
    std::size_t from, std::shared_ptr<std::vector<cnf::Clause>> batch) {
  if (done_) return;
  ++result_.clause_batches_shared;
  result_.clauses_shared += batch->size();
  // Relay to every other live client with work in hand (§3.2: GridSAT
  // "shares clauses globally as soon as they are generated"). The batch
  // collector delivers all recipients reached over the same link class
  // behind one engine event (DESIGN.md §4g), so a broadcast to N busy
  // clients costs O(sites) queue operations instead of O(N).
  const std::size_t bytes = clause_batch_bytes(*batch);
  sim::DeliveryBatch delivery(bus_, master_id_, master_site_id_,
                              kind_id(Msg::kClauses), bytes);
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (i == from) continue;
    Client* target = clients_[i].get();
    if (target == nullptr || !target->alive() || !target->busy()) continue;
    delivery.add(endpoint_ids_[i], site_ids_[i], [this, i, batch] {
      Client* receiver = client(i);
      if (receiver != nullptr) receiver->receive_clauses(batch);
    });
  }
  delivery.flush();
}

void Campaign::drop_checkpoints(std::size_t host_index) {
  checkpoint_chains_.erase(host_index);
  expected_incarnation_.erase(host_index);
}

void Campaign::send_checkpoint_nack(std::size_t host_index,
                                    std::uint64_t incarnation,
                                    std::uint64_t flow) {
  send_to_client(
      host_index, Msg::kCheckpointNack, kControlMessageBytes,
      [this, host_index, incarnation] {
        Client* target = client(host_index);
        if (target != nullptr) {
          target->checkpoint_nacked(incarnation);
        }
      },
      flow);
}

void Campaign::on_checkpoint(std::size_t host_index, Checkpoint cp) {
  if (done_) return;
  const auto expected = expected_incarnation_.find(host_index);
  if (expected == expected_incarnation_.end() ||
      expected->second != cp.incarnation) {
    // Stale tenancy: a checkpoint from a previous assignment (possibly
    // reordered past its own SUBPROBLEM_ACK) must never enter the chain —
    // recovering it would resurrect search space another client owns.
    ++result_.checkpoint_deltas_refused;
    send_checkpoint_nack(host_index, cp.incarnation, cp.flow_id);
    return;
  }
  auto& chain = checkpoint_chains_[host_index];
  if (!cp.delta) {
    // A full snapshot supersedes the whole chain.
    chain.clear();
    chain.push_back(std::move(cp));
  } else {
    // Entries newer than the delta's base were superseded: the delta
    // carries every clause learned since base_epoch on its own.
    while (!chain.empty() && chain.back().epoch > cp.base_epoch) {
      chain.pop_back();
    }
    if (chain.empty()) {
      // The full snapshot this delta builds on never arrived (or was
      // itself truncated away): refuse it; the NACK makes the client
      // re-ship a full snapshot.
      ++result_.checkpoint_deltas_refused;
      checkpoint_chains_.erase(host_index);
      send_checkpoint_nack(host_index, cp.incarnation, cp.flow_id);
      return;
    }
    chain.push_back(std::move(cp));
  }
  const std::uint64_t incarnation = chain.back().incarnation;
  const std::uint64_t epoch = chain.back().epoch;
  send_to_client(
      host_index, Msg::kCheckpointAck, kControlMessageBytes,
      [this, host_index, incarnation, epoch] {
        Client* target = client(host_index);
        if (target != nullptr) {
          target->checkpoint_acked(incarnation, epoch);
        }
      },
      chain.back().flow_id);
}

void Campaign::on_mem_out(std::size_t host_index) {
  ++result_.client_deaths;
  on_client_died(host_index, /*was_busy=*/true);
}

void Campaign::on_client_died(std::size_t host_index, bool was_busy) {
  if (done_) return;
  grid::ResourceEntry& entry = directory_.at(host_index);
  if (entry.state == HostState::kDead) return;
  forget_backlog(host_index);
  release_grant(host_index);
  clients_[host_index].reset();
  // The process that held the cached base block is gone: later ships to
  // a relaunched client on this host must carry the clauses again.
  base_resident_.erase(host_index);
  if (!was_busy) {
    // §3.3: an idle client's death is tolerated; the resource is marked
    // free and may be restarted on demand.
    entry.state = HostState::kFree;
    return;
  }
  // A busy client died: its share of the search space is gone.
  entry.state = HostState::kFree;
  if (forget_racer(host_index)) {
    // A dead racer is survivable as long as a cohort member still holds
    // the same split child — the space stays covered without recovery.
    drop_checkpoints(host_index);
    try_dispatch();
    check_termination();
    return;
  }
  if (config_.parallel_mode == solver::ParallelMode::kPortfolio) {
    // Every portfolio racer covers the whole formula, so any other racer
    // (busy, reserved, or still receiving its copy) keeps the campaign
    // sound after this death.
    bool covered = subproblems_in_flight_ > 0;
    for (std::size_t i = 0; !covered && i < directory_.size(); ++i) {
      if (i == host_index) continue;
      const HostState s = directory_.at(i).state;
      covered = s == HostState::kBusy || s == HostState::kReserved;
    }
    if (covered) {
      drop_checkpoints(host_index);
      try_dispatch();
      check_termination();
      return;
    }
  }
  const auto chain = checkpoint_chains_.find(host_index);
  if (config_.recover_from_checkpoints && chain != checkpoint_chains_.end() &&
      !chain->second.empty()) {
    ++result_.checkpoint_recoveries;
    // Replay base snapshot + delta chain (units/assumptions from the
    // newest entry, learned clauses accumulated across the chain).
    auto restored = std::make_shared<solver::Subproblem>(
        restore_chain(chain->second, formula_));
    trace_lineage_master(obs::EventKind::kLineageRecover,
                         restored->lineage_id, client_lane(host_index));
    pending_restores_.push_back(std::move(restored));
    drop_checkpoints(host_index);
    try_dispatch();
    return;
  }
  drop_checkpoints(host_index);
  // Paper §3.4: "The current implementation ... will not tolerate a
  // machine crash ... for clients which are working on a subproblem."
  finish(CampaignStatus::kError);
}

std::size_t Campaign::idle_at_site(std::uint32_t site) const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < directory_.size(); ++i) {
    if (site_ids_[i] == site && directory_.at(i).state == HostState::kIdle) {
      ++count;
    }
  }
  return count;
}

void Campaign::try_dispatch() {
  if (done_) return;
  // Bounced requests that waited at the root move back once their site's
  // sub-master is re-homed; requests from uncovered sites (in the flat
  // topology, every request) stay root-homed.
  for (auto it = backlog_.begin(); it != backlog_.end();) {
    const std::ptrdiff_t sub = route_sub(*it);
    if (sub >= 0 && sub_masters_[sub].alive) {
      sub_masters_[sub].backlog.insert(*it);
      it = backlog_.erase(it);
    } else {
      ++it;
    }
  }
  // Checkpoint restores take priority and go to the best idle host
  // anywhere: that part of the search space is covered by nobody, and its
  // carrier's site (and sub-master) may be gone.
  while (!pending_restores_.empty()) {
    const std::ptrdiff_t target =
        directory_.best_in_state(HostState::kIdle, config_.min_client_memory);
    if (target < 0) break;
    auto sp = pending_restores_.front();
    pending_restores_.pop_front();
    directory_.at(static_cast<std::size_t>(target)).state =
        HostState::kReserved;
    assign_subproblem(static_cast<std::size_t>(target), std::move(sp));
  }
  // Root-homed backlog: grants against the global idle pool.
  while (!backlog_.empty()) {
    const std::ptrdiff_t target =
        directory_.best_in_state(HostState::kIdle, config_.min_client_memory);
    if (target < 0) break;
    const std::ptrdiff_t requester = oldest_requester(backlog_);
    if (requester < 0) {
      // Stale entries: hosts that finished or died before a grant landed.
      std::erase_if(backlog_, [this](std::size_t host) {
        return directory_.at(host).state != HostState::kBusy;
      });
      break;
    }
    const auto to = static_cast<std::size_t>(target);
    const auto from = static_cast<std::size_t>(requester);
    // Migration opportunity (§3.4), flat split mode only: a markedly
    // better host with idle same-site company (the still-idle target
    // counts itself) takes the whole problem instead of half. Racing
    // modes never migrate — a moved tenancy would break the cohort's
    // one-child-many-racers bookkeeping for no search-space gain.
    const bool migrate =
        !hier_enabled() &&
        config_.parallel_mode == solver::ParallelMode::kSplit &&
        directory_.rank(to) >
            config_.migration_rank_factor * directory_.rank(from) &&
        idle_at_site(site_ids_[to]) >= config_.migration_min_idle_at_site;
    std::vector<std::size_t> targets{to};
    if (config_.parallel_mode == solver::ParallelMode::kHybrid) {
      // Reserve up to race_width idle hosts: the split child is shipped
      // to all of them at once and they race it under diversified
      // configurations (first verdict wins).
      directory_.at(to).state = HostState::kReserved;
      while (targets.size() < std::max<std::size_t>(1, config_.race_width)) {
        const std::ptrdiff_t extra = directory_.best_in_state(
            HostState::kIdle, config_.min_client_memory);
        if (extra < 0) break;
        directory_.at(static_cast<std::size_t>(extra)).state =
            HostState::kReserved;
        targets.push_back(static_cast<std::size_t>(extra));
      }
    }
    grant(from, std::move(targets), /*via_sub=*/-1, migrate);
  }
  // Site-local dispatch everywhere, then cross-site brokering.
  for (std::size_t s = 0; s < sub_masters_.size(); ++s) sub_try_dispatch(s);
  root_broker();
  // Work waiting with nobody idle: restart a client on a free host (§3.3);
  // the dispatch resumes when it registers.
  bool have_work = !pending_restores_.empty() || !backlog_.empty();
  for (const SubMaster& sm : sub_masters_) {
    have_work = have_work || !sm.backlog.empty();
  }
  if (have_work &&
      directory_.best_in_state(HostState::kIdle, config_.min_client_memory) <
          0) {
    const std::ptrdiff_t free_host = directory_.best_in_state(
        HostState::kFree, config_.min_client_memory);
    if (free_host >= 0) launch_client(static_cast<std::size_t>(free_host));
  }
}

std::ptrdiff_t Campaign::oldest_requester(
    const std::set<std::size_t>& backlog) const {
  // §3.4: the client that has been running its subproblem the longest
  // splits first — the stubborn regions get the extra resources. A host
  // with an outstanding grant is mid-negotiation (e.g. a SUB_HELLO
  // re-send raced the original's bounce) and is never granted twice.
  std::ptrdiff_t requester = -1;
  double oldest = -1.0;
  for (const std::size_t host : backlog) {
    const grid::ResourceEntry& e = directory_.at(host);
    if (e.state != HostState::kBusy) continue;
    if (outstanding_grants_.count(host) != 0) continue;
    const double running = engine_.now() - e.busy_since;
    if (running > oldest) {
      oldest = running;
      requester = static_cast<std::ptrdiff_t>(host);
    }
  }
  return requester;
}

void Campaign::grant(std::size_t requester, std::vector<std::size_t> targets,
                     std::ptrdiff_t via_sub, bool migrate) {
  forget_backlog(requester);
  // A brokered peer arrives already held by the root; every other target
  // is an idle host reserved here.
  for (const std::size_t t : targets) {
    grid::ResourceEntry& entry = directory_.at(t);
    if (entry.state == HostState::kIdle) entry.state = HostState::kReserved;
  }
  outstanding_grants_[requester] = targets;
  sim::Callback deliver = [this, requester, migrate,
                           targets = std::move(targets)] {
    Client* c = client(requester);
    if (c == nullptr || !c->alive()) {
      on_split_failed(requester);
    } else if (migrate) {
      c->order_migration(targets.front());
    } else {
      c->grant_split(targets);
    }
  };
  const Msg kind = migrate ? Msg::kMigrateOrder : Msg::kSplitGrant;
  if (via_sub < 0) {
    send_to_client(requester, kind, kControlMessageBytes, std::move(deliver));
  } else {
    send_sub_to_client(static_cast<std::size_t>(via_sub), requester, kind,
                       kControlMessageBytes, std::move(deliver));
  }
}

void Campaign::update_peak_active() {
  const std::size_t active = directory_.count_in_state(HostState::kBusy);
  result_.max_active_clients = std::max(result_.max_active_clients, active);
}

// ===========================================================================
// Hierarchical masters (DESIGN.md §4j)
// ===========================================================================

bool Campaign::hier_enabled() const noexcept { return !sub_masters_.empty(); }

std::ptrdiff_t Campaign::route_sub(std::size_t host_index) const {
  if (sub_masters_.empty()) return -1;
  const auto it = sub_by_site_.find(site_ids_[host_index]);
  return it == sub_by_site_.end() ? -1
                                  : static_cast<std::ptrdiff_t>(it->second);
}

void Campaign::setup_sub_masters() {
  if (config_.sub_masters == 0 ||
      config_.parallel_mode != solver::ParallelMode::kSplit) {
    // Racing modes keep the flat master (like migration): every racer
    // needs the global clause bus and the root's cohort bookkeeping.
    return;
  }
  // The first `sub_masters` distinct sites in host order get a sub-master;
  // hosts at uncovered sites (including late joiners at new sites) keep
  // paper-flat routing.
  for (std::size_t i = 0;
       i < hosts_.size() && sub_masters_.size() < config_.sub_masters; ++i) {
    const std::uint32_t site = site_ids_[i];
    if (sub_by_site_.count(site) != 0) continue;
    SubMaster sm;
    sm.site = hosts_[i]->site();
    sm.site_id = site;
    sm.endpoint = names_.intern("submaster:" + sm.site);
    // 2^14 slots: a site's working set of recently shared clauses, not
    // the campaign-wide history (clear() on re-home starts a new epoch).
    sm.filter = solver::FingerprintFilter(14);
    sub_by_site_[site] = sub_masters_.size();
    sub_masters_.push_back(std::move(sm));
  }
}

void Campaign::schedule_sub_master_failure(const std::string& site,
                                           double at) {
  engine_.schedule_at(at, [this, site] {
    if (done_) return;
    const auto it = sub_by_site_.find(names_.intern(site));
    if (it == sub_by_site_.end()) return;
    const std::size_t sub = it->second;
    SubMaster& sm = sub_masters_[sub];
    if (!sm.alive) return;
    sm.alive = false;
    // Whatever the dead incarnation held dies with it: parked split
    // requests (clients re-send on SUB_HELLO), the unsent digest, and
    // the outstanding starvation claim.
    sm.backlog.clear();
    sm.digest.clear();
    sm.work_requested = false;
    starving_sites_.erase(sub);
    // The root's monitoring notices shortly afterwards, as with client
    // deaths (§3.3), and re-homes the site.
    engine_.schedule_in(kMasterMonitorDelay,
                        [this, sub] { rehome_sub_master(sub); });
  });
}

void Campaign::rehome_sub_master(std::size_t sub) {
  if (done_) return;
  SubMaster& sm = sub_masters_[sub];
  if (sm.alive) return;
  ++result_.sub_master_rehomes;
  ++sm.incarnation;
  sm.alive = true;
  // Fresh suppression epoch: the new incarnation must not silently drop
  // clauses only the dead one had seen.
  sm.filter.clear();
  sm.last_idle = sm.last_busy = sm.last_backlog = ~std::size_t{0};
  // Announce the fresh incarnation to the site: any client whose split
  // request the dead incarnation swallowed re-sends it, so no guiding
  // path is lost (the space itself was never at risk — subproblems
  // travel peer-to-peer, not through sub-masters).
  sim::DeliveryBatch hello(bus_, master_id_, master_site_id_,
                           kind_id(Msg::kSubHello), kControlMessageBytes);
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (site_ids_[i] != sm.site_id) continue;
    Client* target = clients_[i].get();
    if (target == nullptr || !target->alive()) continue;
    hello.add(endpoint_ids_[i], site_ids_[i], [this, i] {
      Client* c = client(i);
      if (c != nullptr) c->sub_hello();
    });
  }
  hello.flush();
  try_dispatch();
}

void Campaign::send_sub_to_root(std::size_t sub, Msg kind, std::size_t bytes,
                                sim::Callback handler, std::uint64_t flow) {
  ++result_.root_messages_handled;
  SubMaster& sm = sub_masters_[sub];
  send(sm.endpoint, sm.site_id, master_id_, master_site_id_, kind, bytes,
       std::move(handler), flow);
}

void Campaign::send_root_to_sub(std::size_t sub, Msg kind, std::size_t bytes,
                                sim::Callback handler, std::uint64_t flow) {
  SubMaster& sm = sub_masters_[sub];
  send(master_id_, master_site_id_, sm.endpoint, sm.site_id, kind, bytes,
       [this, sub, handler = std::move(handler)]() mutable {
         if (sub_masters_[sub].alive) {
           ++result_.sub_messages_handled;
         } else {
           ++result_.sub_master_bounces;
         }
         // The handler itself is alive-aware (a dead sub-master drops a
         // digest, fails a broker back to the root).
         handler();
       },
       flow);
}

void Campaign::send_sub_to_client(std::size_t sub, std::size_t to_host,
                                  Msg kind, std::size_t bytes,
                                  sim::Callback handler, std::uint64_t flow) {
  SubMaster& sm = sub_masters_[sub];
  send(sm.endpoint, sm.site_id, endpoint_ids_[to_host], site_ids_[to_host],
       kind, bytes, std::move(handler), flow);
}

void Campaign::deliver_at_sub(std::size_t sub, std::size_t from_host,
                              Msg kind, std::size_t bytes,
                              std::uint64_t flow, sim::Callback at_sub,
                              sim::Callback at_root) {
  SubMaster& sm = sub_masters_[sub];
  send(endpoint_ids_[from_host], site_ids_[from_host], sm.endpoint,
       sm.site_id, kind, bytes,
       [this, sub, kind, bytes, flow, at_sub = std::move(at_sub),
        at_root = std::move(at_root)]() mutable {
         if (!sub_masters_[sub].alive) {
           // Dead sub-master: the message bounces to the root, charging
           // the extra hop, and the root-side fallback handles it.
           ++result_.sub_master_bounces;
           send_sub_to_root(sub, kind, bytes, std::move(at_root), flow);
           return;
         }
         ++result_.sub_messages_handled;
         at_sub();
       },
       flow);
}

void Campaign::send_up(std::size_t from_host, Msg kind, std::size_t bytes,
                       sim::Callback handler, std::uint64_t flow,
                       bool forward_to_root) {
  const std::ptrdiff_t sub = route_sub(from_host);
  if (sub < 0) {
    send_to_master(from_host, kind, bytes, std::move(handler), flow);
    return;
  }
  const auto s = static_cast<std::size_t>(sub);
  // The handler must be reachable from both the sub-master arm and the
  // dead-bounce arm; sim::Callback is move-only, so share it.
  auto shared = std::make_shared<sim::Callback>(std::move(handler));
  if (!forward_to_root) {
    // Shared-semantics report: it terminates at the sub-master, which
    // folds it into the next cadenced SITE_SUMMARY instead of forwarding
    // it — the root hears O(sites) summaries, not O(clients) reports.
    deliver_at_sub(s, from_host, kind, bytes, flow,
                   [shared] { (*shared)(); }, [shared] { (*shared)(); });
    return;
  }
  const Msg forwarded = kind == Msg::kRegister ? Msg::kSubRegister : kind;
  deliver_at_sub(
      s, from_host, kind, bytes, flow,
      [this, s, forwarded, bytes, flow, shared] {
        send_sub_to_root(s, forwarded, bytes, [shared] { (*shared)(); },
                         flow);
      },
      [shared] { (*shared)(); });
}

void Campaign::enqueue_split_request(std::size_t host_index) {
  if (done_) return;
  const std::ptrdiff_t sub = route_sub(host_index);
  if (sub >= 0 && sub_masters_[sub].alive) {
    sub_masters_[sub].backlog.insert(host_index);
    sub_try_dispatch(static_cast<std::size_t>(sub));
    return;
  }
  backlog_.insert(host_index);
  try_dispatch();
}

void Campaign::forget_backlog(std::size_t host_index) {
  backlog_.erase(host_index);
  for (SubMaster& sm : sub_masters_) sm.backlog.erase(host_index);
}

std::ptrdiff_t Campaign::best_idle_at_site(std::size_t sub) const {
  const SubMaster& sm = sub_masters_[sub];
  std::ptrdiff_t best = -1;
  double best_rank = -1.0;
  for (std::size_t i = 0; i < directory_.size(); ++i) {
    if (site_ids_[i] != sm.site_id) continue;
    const grid::ResourceEntry& e = directory_.at(i);
    if (e.state != HostState::kIdle) continue;
    if (e.spec.memory_bytes < config_.min_client_memory) continue;
    const double r = directory_.rank(i);
    if (r > best_rank) {
      best_rank = r;
      best = static_cast<std::ptrdiff_t>(i);
    }
  }
  return best;
}

void Campaign::sub_on_clauses(std::size_t sub, std::size_t from,
                              std::shared_ptr<ClauseBatch> batch) {
  if (done_) return;
  SubMaster& sm = sub_masters_[sub];
  ++result_.clause_batches_shared;
  result_.clauses_shared += batch->clauses.size();
  auto fresh = std::make_shared<std::vector<cnf::Clause>>();
  const std::size_t cap = config_.inter_site_lbd_cap;
  for (std::size_t i = 0; i < batch->clauses.size(); ++i) {
    const cnf::Clause& clause = batch->clauses[i];
    if (!sm.filter.insert(solver::clause_fingerprint(clause))) {
      // The site has already circulated this clause (a local re-learn or
      // an earlier remote digest): suppress both the relay and the
      // digest copy.
      ++result_.digest_clauses_deduped;
      continue;
    }
    fresh->push_back(clause);
    const std::uint32_t lbd = i < batch->lbds.size() ? batch->lbds[i] : 0;
    if (cap > 0 && lbd <= cap) sm.digest.emplace_back(clause, lbd);
  }
  if (!fresh->empty()) {
    sub_relay(sub, fresh, static_cast<std::ptrdiff_t>(from));
  }
}

void Campaign::sub_relay(std::size_t sub,
                         std::shared_ptr<std::vector<cnf::Clause>> clauses,
                         std::ptrdiff_t exclude_host) {
  SubMaster& sm = sub_masters_[sub];
  const std::size_t bytes = clause_batch_bytes(*clauses);
  sim::DeliveryBatch delivery(bus_, sm.endpoint, sm.site_id,
                              kind_id(Msg::kClauses), bytes);
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (static_cast<std::ptrdiff_t>(i) == exclude_host) continue;
    if (site_ids_[i] != sm.site_id) continue;
    Client* target = clients_[i].get();
    if (target == nullptr || !target->alive() || !target->busy()) continue;
    delivery.add(endpoint_ids_[i], site_ids_[i], [this, i, clauses] {
      Client* receiver = client(i);
      if (receiver != nullptr) receiver->receive_clauses(clauses);
    });
  }
  if (delivery.size() == 0) return;
  ++result_.site_relay_batches;
  delivery.flush();
}

void Campaign::flush_digest(std::size_t sub) {
  SubMaster& sm = sub_masters_[sub];
  if (sm.digest.empty()) return;
  auto batch = std::make_shared<ClauseBatch>();
  batch->clauses.reserve(sm.digest.size());
  batch->lbds.reserve(sm.digest.size());
  for (auto& [clause, lbd] : sm.digest) {
    batch->clauses.push_back(std::move(clause));
    batch->lbds.push_back(lbd);
  }
  sm.digest.clear();
  ++result_.inter_site_digests;
  result_.digest_clauses_sent += batch->clauses.size();
  const std::size_t bytes =
      clause_batch_bytes(batch->clauses) + batch->clauses.size();
  send_sub_to_root(sub, Msg::kClauseDigest, bytes,
                   [this, sub, batch] { root_on_digest(sub, batch); });
}

void Campaign::root_on_digest(std::size_t sub,
                              std::shared_ptr<ClauseBatch> batch) {
  if (done_) return;
  const std::size_t bytes =
      clause_batch_bytes(batch->clauses) + batch->clauses.size();
  for (std::size_t s = 0; s < sub_masters_.size(); ++s) {
    if (s == sub || !sub_masters_[s].alive) continue;
    send_root_to_sub(s, Msg::kClauseDigest, bytes,
                     [this, s, batch] { sub_on_remote_digest(s, batch); });
  }
}

void Campaign::sub_on_remote_digest(std::size_t sub,
                                    std::shared_ptr<ClauseBatch> batch) {
  if (done_) return;
  SubMaster& sm = sub_masters_[sub];
  // A dead sub-master drops the digest — sharing is best-effort, and the
  // fresh incarnation's cleared filter re-admits these clauses later.
  if (!sm.alive) return;
  auto fresh = std::make_shared<std::vector<cnf::Clause>>();
  for (const cnf::Clause& clause : batch->clauses) {
    if (sm.filter.insert(solver::clause_fingerprint(clause))) {
      fresh->push_back(clause);
    } else {
      ++result_.digest_clauses_deduped;
    }
  }
  if (!fresh->empty()) sub_relay(sub, fresh, -1);
}

void Campaign::sub_master_tick(std::size_t sub) {
  if (done_) return;
  SubMaster& sm = sub_masters_[sub];
  if (sm.alive) {
    // Cadenced starvation check: grant anything grantable locally and
    // raise a WORK_REQUEST if the site has idle capacity but no work —
    // the trigger that doesn't depend on any client event arriving here.
    sub_try_dispatch(sub);
    flush_digest(sub);
    // Site-state summary: decimated against the clause cadence (state
    // aggregation tolerates more staleness than clause relay — urgent
    // signals travel as WORK_REQUESTs), and only when something moved
    // since the last one (a quiescent site stays silent — this is what
    // keeps the endgame tail cheap at the root).
    if (++sm.ticks % kSummaryTickPeriod == 0) {
      std::size_t idle = 0;
      std::size_t busy = 0;
      for (std::size_t i = 0; i < directory_.size(); ++i) {
        if (site_ids_[i] != sm.site_id) continue;
        const HostState s = directory_.at(i).state;
        if (s == HostState::kIdle) ++idle;
        if (s == HostState::kBusy) ++busy;
      }
      if (idle != sm.last_idle || busy != sm.last_busy ||
          sm.backlog.size() != sm.last_backlog) {
        sm.last_idle = idle;
        sm.last_busy = busy;
        sm.last_backlog = sm.backlog.size();
        send_sub_to_root(sub, Msg::kSiteSummary, kControlMessageBytes,
                         [this] { root_on_site_summary(); });
      }
    }
  }
  engine_.schedule_in(config_.site_relay_interval,
                      [this, sub] { sub_master_tick(sub); });
}

void Campaign::root_on_site_summary() {
  if (done_) return;
  // The summary keeps the root's view of site load current; react by
  // re-checking whether a starving site can now be matched to a donor.
  root_broker();
}

void Campaign::sub_try_dispatch(std::size_t sub) {
  if (done_) return;
  SubMaster& sm = sub_masters_[sub];
  if (!sm.alive) return;
  // Drop stale entries (hosts no longer busy: they finished or died
  // before a grant could land).
  std::erase_if(sm.backlog, [this](std::size_t host) {
    return directory_.at(host).state != HostState::kBusy;
  });
  // Grant locally while the site has both backlog and idle capacity —
  // the root never hears about these splits.
  for (;;) {
    const std::ptrdiff_t target = best_idle_at_site(sub);
    if (target < 0) break;
    const std::ptrdiff_t requester = oldest_requester(sm.backlog);
    if (requester < 0) break;
    grant(static_cast<std::size_t>(requester),
          {static_cast<std::size_t>(target)},
          static_cast<std::ptrdiff_t>(sub), /*migrate=*/false);
  }
  // Starving: idle capacity with nothing local to split. One outstanding
  // WORK_REQUEST at a time; the root brokers a split from the most
  // loaded site.
  if (problem_assigned_ && !sm.work_requested &&
      oldest_requester(sm.backlog) < 0 && best_idle_at_site(sub) >= 0) {
    sm.work_requested = true;
    send_sub_to_root(sub, Msg::kWorkRequest, kControlMessageBytes,
                     [this, sub] { root_on_work_request(sub); });
  }
}

void Campaign::root_on_work_request(std::size_t sub) {
  if (done_) return;
  starving_sites_.insert(sub);
  root_broker();
}

void Campaign::root_broker() {
  if (done_) return;
  for (auto it = starving_sites_.begin(); it != starving_sites_.end();) {
    const std::size_t s = *it;
    SubMaster& starving = sub_masters_[s];
    if (!starving.alive) {
      starving.work_requested = false;
      it = starving_sites_.erase(it);
      continue;
    }
    const std::ptrdiff_t peer = best_idle_at_site(s);
    if (peer < 0) {
      // The site filled up on its own (local grants, relaunches): the
      // claim is spent.
      starving.work_requested = false;
      it = starving_sites_.erase(it);
      continue;
    }
    // Donor: the live site with the deepest grantable backlog.
    std::ptrdiff_t donor = -1;
    std::size_t best_load = 0;
    for (std::size_t d = 0; d < sub_masters_.size(); ++d) {
      if (d == s || !sub_masters_[d].alive) continue;
      std::size_t load = 0;
      for (const std::size_t host : sub_masters_[d].backlog) {
        if (directory_.at(host).state == HostState::kBusy &&
            outstanding_grants_.count(host) == 0) {
          ++load;
        }
      }
      if (load > best_load) {
        best_load = load;
        donor = static_cast<std::ptrdiff_t>(d);
      }
    }
    if (donor < 0) {
      // Nothing to give anywhere: the site stays starving; the next
      // summary or work request retries.
      ++it;
      continue;
    }
    const auto peer_index = static_cast<std::size_t>(peer);
    directory_.at(peer_index).state = HostState::kReserved;
    starving.work_requested = false;
    it = starving_sites_.erase(it);
    const auto donor_index = static_cast<std::size_t>(donor);
    send_root_to_sub(donor_index, Msg::kSplitBroker, kControlMessageBytes,
                     [this, donor_index, peer_index] {
                       sub_on_broker(donor_index, peer_index);
                     });
  }
}

void Campaign::sub_on_broker(std::size_t sub, std::size_t peer_host) {
  if (done_) return;
  // The sub-master picks the donor client itself, from its own (current)
  // backlog — the root only chose the site.
  const SubMaster& sm = sub_masters_[sub];
  const std::ptrdiff_t requester = sm.alive ? oldest_requester(sm.backlog) : -1;
  if (requester < 0) {
    // Dead, or the backlog drained since the root looked: give the
    // reserved peer back.
    send_sub_to_root(sub, Msg::kBrokerFailed, kControlMessageBytes,
                     [this, peer_host] { root_on_broker_failed(peer_host); });
    return;
  }
  ++result_.brokered_splits;
  grant(static_cast<std::size_t>(requester), {peer_host},
        static_cast<std::ptrdiff_t>(sub), /*migrate=*/false);
}

void Campaign::root_on_broker_failed(std::size_t peer_host) {
  if (done_) return;
  grid::ResourceEntry& entry = directory_.at(peer_host);
  if (entry.state == HostState::kReserved) entry.state = HostState::kIdle;
  try_dispatch();
  check_termination();
}

void Campaign::check_termination() {
  if (done_ || !problem_assigned_) return;
  if (subproblems_in_flight_ > 0) return;
  // A queued restore is un-refuted search space even though no client is
  // busy with it yet (its carrier died, was rejected, or was lost in
  // flight); declaring UNSAT over it would drop part of the search tree.
  if (!pending_restores_.empty()) return;
  for (std::size_t i = 0; i < directory_.size(); ++i) {
    const HostState s = directory_.at(i).state;
    if (s == HostState::kBusy || s == HostState::kReserved) return;
  }
  // Every client is idle and nothing is in flight: the entire search
  // space is refuted (§3.4 termination case 1).
  finish(CampaignStatus::kUnsat);
}

void Campaign::finish(CampaignStatus status) {
  if (done_) return;
  done_ = true;
  result_.status = status;
  result_.seconds = engine_.now();
  if (proof_builder_ && status == CampaignStatus::kUnsat) {
    result_.proof_stitched = proof_builder_->stitch();
    if (!result_.proof_stitched) {
      result_.proof_error = proof_builder_->stitch_error();
    }
    result_.proof =
        std::make_shared<const solver::ProofLog>(proof_builder_->take_log());
  }
  if constexpr (obs::kTraceCompiledIn) {
    if (tracer_ != nullptr && tracer_->enabled()) {
      const char* phase = status == CampaignStatus::kSat       ? "verdict-sat"
                          : status == CampaignStatus::kUnsat   ? "verdict-unsat"
                          : status == CampaignStatus::kTimeout ? "verdict-timeout"
                                                               : "verdict-error";
      tracer_->emit(master_trace_worker_, obs::EventKind::kPhase,
                    tracer_->intern(phase));
    }
  }
  if (batch_ && batch_job_ != 0 && !result_.batch_started) {
    // Solved before the batch job started: cancel the queued request
    // (Table 2: "the job queued from the Blue Horizon is canceled").
    result_.batch_cancelled = true;
  }
  if (batch_ && batch_job_ != 0) {
    if (batch_started_at_ >= 0.0) {
      result_.batch_run_s =
          std::min(engine_.now() - batch_started_at_,
                   batch_options_->max_duration_s);
    } else {
      result_.batch_queue_wait_s = batch_->queue_wait(batch_job_);
    }
    batch_->cancel(batch_job_);
  }
}

void Campaign::sample_availability() {
  if (done_) return;
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    grid::ResourceEntry& entry = directory_.at(i);
    if (entry.state == HostState::kDead) continue;
    entry.forecaster.observe(hosts_[i]->availability(engine_.now()));
  }
  engine_.schedule_in(config_.availability_sample_interval_s,
                      [this] { sample_availability(); });
}

solver::ProofCheckResult Campaign::certify() const {
  solver::ProofCheckResult res;
  if (result_.status != CampaignStatus::kUnsat) {
    res.message = "nothing to certify: the campaign did not end UNSAT";
    return res;
  }
  if (!result_.proof) {
    res.message =
        "no refutation was recorded (config.solver.log_proof off or "
        "GRIDSAT_PROOF compiled out)";
    return res;
  }
  if (!result_.proof_stitched) {
    res.message = "split-tree stitch failed: " + result_.proof_error;
    return res;
  }
  return solver::certify(formula_, *result_.proof);
}

GridSatResult Campaign::run() {
  if constexpr (obs::kTraceCompiledIn) {
    // Tag every lane with its grid site (set_tracer may have run before
    // the tracer was enabled; by now both are settled). gridsat_analyze
    // groups per-host utilization by these tags.
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->emit(master_trace_worker_, obs::EventKind::kSiteTag,
                    tracer_->intern(master_site_));
      for (std::size_t i = 0; i < hosts_.size(); ++i) tag_site(i);
      // Sub-master lanes carry their site tag too, so gridsat_analyze
      // groups their wire traffic with the site they coordinate.
      for (const SubMaster& sm : sub_masters_) {
        tracer_->emit(tracer_->register_worker(names_.name(sm.endpoint)),
                      obs::EventKind::kSiteTag, tracer_->intern(sm.site));
      }
    }
  }
  // Hierarchical topology: start each sub-master's cadenced digest/summary
  // tick (it reschedules itself for the campaign's lifetime).
  for (std::size_t s = 0; s < sub_masters_.size(); ++s) {
    engine_.schedule_in(config_.site_relay_interval,
                        [this, s] { sub_master_tick(s); });
  }
  // Master start-up: launch a client on every usable resource.
  for (std::size_t i = 0; i < directory_.size(); ++i) {
    launch_client(i);
  }
  sample_availability();
  engine_.schedule_at(config_.overall_timeout_s, [this] {
    if (!done_) finish(CampaignStatus::kTimeout);
  });

  if (batch_options_.has_value()) {
    batch_ = std::make_unique<sim::BatchSystem>(engine_, batch_options_->spec);
    sim::BatchJobRequest request;
    request.nodes = batch_options_->node_hosts.size();
    request.max_duration_s = batch_options_->max_duration_s;
    request.on_start = [this] {
      if (done_) return;
      batch_started_at_ = engine_.now();
      result_.batch_started = true;
      result_.batch_queue_wait_s = engine_.now();  // job submitted at t=0
      // The granted nodes join the resource pool and the master launches
      // clients on them (Table 2 protocol).
      for (const auto& spec : batch_options_->node_hosts) {
        const std::size_t index = directory_.add(spec);
        hosts_.push_back(std::make_unique<sim::Host>(spec));
        clients_.push_back(nullptr);
        register_host_names(index);
        launch_client(index);
      }
    };
    request.on_expire = [this] {
      if (done_) return;
      if (batch_options_->terminate_on_expiry) {
        finish(CampaignStatus::kTimeout);
      }
    };
    batch_job_ = batch_->submit(std::move(request));
    result_.batch_submitted = true;
  }

  while (!done_ && engine_.step()) {
  }
  if (!done_) {
    // Event queue ran dry without a verdict (e.g. no usable hosts).
    finish(CampaignStatus::kTimeout);
  }

  // Final accounting.
  result_.messages = bus_.messages_sent();
  result_.bytes_transferred = bus_.bytes_sent();
  result_.inter_site_messages = bus_.inter_site_messages();
  result_.inter_site_bytes = bus_.inter_site_bytes();
  result_.total_work = 0;
  result_.clauses_imported = 0;
  result_.clauses_imported_used = 0;
  for (const auto& c : clients_) {
    if (c) {
      result_.total_work += c->work_done();
      result_.clauses_imported += c->clauses_imported();
      result_.clauses_imported_used += c->clauses_imported_used();
    }
  }
  if (metrics_ != nullptr) {
    // Freeze the callback gauges: an external registry may outlive this
    // Campaign, and the closures (campaign.* here, the two sim.* gauges
    // registered by the engine) read state that dies with it. The
    // sim.event_delay_s histogram holds plain counts and needs no
    // freeze — set_gauge on its flattened samples would shadow them.
    for (const obs::MetricRegistry::Sample& s : metrics_->snapshot()) {
      if (s.name.rfind("campaign.", 0) == 0 ||
          s.name == "sim.queue_depth" || s.name == "sim.events_fired") {
        metrics_->set_gauge(s.name, s.value);
      }
    }
  }
  return result_;
}

}  // namespace gridsat::core
