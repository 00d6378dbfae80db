#include "core/campaign.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>

#include "cnf/wire.hpp"
#include "util/bytes.hpp"
#include "util/log.hpp"

namespace gridsat::core {

using grid::HostState;

Campaign::Campaign(cnf::CnfFormula formula, std::string master_site,
                   std::vector<sim::HostSpec> hosts, GridSatConfig config)
    : formula_(std::move(formula)),
      master_site_(std::move(master_site)),
      config_(config),
      network_(names_),
      bus_(engine_, network_) {
  root_ = {names_.intern("master"), names_.intern(master_site_)};
  for (std::size_t code = 1; code <= kMsgKinds; ++code) {
    msg_ids_[code - 1] = names_.intern(to_string(static_cast<Msg>(code)));
  }
  hosts_.reserve(hosts.size());
  clients_.reserve(hosts.size());
  for (auto& spec : hosts) add_host(std::move(spec));
  if (solver::kProofCompiledIn && config_.solver.log_proof) {
    proof_builder_ = std::make_unique<solver::DistributedProofBuilder>();
  }
  // Base-formula caching (DESIGN.md §4e): every ship carries the
  // fingerprint; the base-block cost is what a renegotiated BASE_MISS
  // ships.
  base_fingerprint_ = solver::formula_fingerprint(formula_);
  util::ByteCounter counter;
  cnf::encode_clause_stream(
      counter, std::span<const cnf::Clause>(formula_.clauses()));
  base_block_bytes_ = counter.size() + kControlMessageBytes;
  setup_coordinators();
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
    ++result_.hosts_joined;
    launch_client(add_host(spec));
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
    return static_cast<double>(coordinators_[kRoot].backlog.size());
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
      // Wire-transfer accounting (DESIGN.md §4e): base-ref ships, trimmed
      // payloads, renegotiations, checkpoints.
      {"campaign.wire.base_ref_transfers", &GridSatResult::base_ref_transfers},
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
      return static_cast<double>(num_sub_masters());
    });
    publish(kHierGauges);
  }
}

std::size_t Campaign::add_host(sim::HostSpec spec) {
  const std::size_t index = directory_.add(spec);
  const std::uint32_t id = names_.intern("client:" + spec.name);
  const std::uint32_t site = names_.intern(spec.site);
  directory_.at(index).site = site;
  endpoints_.push_back({id, site});
  hosts_.push_back(std::make_unique<sim::Host>(std::move(spec)));
  clients_.push_back(nullptr);  // created at launch
  records_.emplace_back();
  // Late joiners (batch grants, elastic acquisitions) tag their lane as
  // they appear; hosts present before run() are tagged in run() itself,
  // after the tracer is attached and enabled.
  tag_site(index);
  return index;
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

void Campaign::send(Endpoint from, Endpoint to, Msg kind, std::size_t bytes,
                    sim::Callback handler, std::uint64_t flow) {
  if (to.id == root_.id) ++result_.root_messages_handled;
  sim::MessageHeader header;
  header.from = from.id;
  header.from_site = from.site;
  header.to = to.id;
  header.to_site = to.site;
  header.kind = kind_id(kind);
  header.bytes = bytes;
  header.flow_id = flow;
  bus_.send(header, std::move(handler));
}

std::size_t Campaign::clause_batch_bytes(const ClauseBatch& batch,
                                         bool lbd_tagged) {
  // 8-byte header, then a 2-byte length and 4 bytes per literal for each
  // clause (plus a 1-byte LBD tag on sub-master hops).
  const std::size_t n = batch.clauses.size();
  const std::size_t bytes = 8 + 2 * n + 4 * batch.clauses.num_lits();
  return lbd_tagged ? bytes + n : bytes;
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
  send(root_, endpoints_[host_index], Msg::kLaunch, kControlMessageBytes,
       [this, host_index] {
         const double startup = GridSatConfig::client_launch_s;
         engine_.schedule_in(startup, [this, host_index] {
           if (done_) return;
           clients_[host_index] = std::make_unique<Client>(
               *this, host_index, hosts_[host_index]->name());
           // Assignment is the root's call: a covering sub-master
           // forwards the registration as SUB_REGISTER.
           send_up(
               host_index, Msg::kRegister, kControlMessageBytes,
               [this, host_index] { on_register(host_index); }, 0,
               /*forward_to_root=*/true);
         });
       });
}

void Campaign::on_register(std::size_t host_index) {
  if (done_) return;
  grid::ResourceEntry& entry = directory_.at(host_index);
  if (entry.state != HostState::kLaunching) return;
  entry.state = HostState::kIdle;
  // The first client to register is sent the entire problem (§3.3). In
  // portfolio mode every later registrant races the whole formula too,
  // under a diversified configuration (slot k != 0 remaps heuristics; the
  // clause bus still connects everyone, so racers cooperate).
  const bool first = !problem_assigned_;
  if (!first && config_.parallel_mode != solver::ParallelMode::kPortfolio) {
    try_dispatch();
    return;
  }
  auto sp = root_subproblem();
  if (!first) {
    sp->lineage_id = root_lineage_;
    sp->race_slot = ++portfolio_next_slot_;
  }
  problem_assigned_ = true;
  entry.state = HostState::kReserved;
  assign_subproblem(host_index, sp);
  // stamp_and_trace_ship allocated the root's tree node on the first
  // ship; portfolio re-ships reuse the id (one node, many tenancies).
  root_lineage_ = sp->lineage_id;
}

std::shared_ptr<solver::Subproblem> Campaign::root_subproblem() const {
  auto sp = std::make_shared<solver::Subproblem>();
  sp->num_vars = formula_.num_vars();
  sp->clauses = cnf::ClausePool(formula_.clauses());
  sp->num_problem_clauses = sp->clauses.size();
  sp->path = "root";
  return sp;
}

void Campaign::assign_subproblem(std::size_t host_index,
                                 std::shared_ptr<solver::Subproblem> sp) {
  stamp_and_trace_ship(host_index, *sp);
  ship(root_, host_index, std::move(sp));
}

double Campaign::ship(Endpoint from, std::size_t to_host,
                      std::shared_ptr<solver::Subproblem> sp, Msg kind) {
  ShipPlan plan{solver::WireMode::kFull, base_block_bytes_};
  if (kind == Msg::kSubproblem) {
    ++subproblems_in_flight_;
    plan = plan_subproblem_ship(to_host, *sp);
  }
  const double transfer =
      network_.transfer_time(plan.bytes, from.site, endpoints_[to_host].site);
  const std::uint64_t flow = sp->flow_id;
  send(from, endpoints_[to_host], kind, plan.bytes,
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
  if (const std::size_t budget = config_.split_learned_budget_bytes;
      budget > 0) {
    result_.ship_learned_trimmed += sp.trim_learned(budget);
  }
  solver::WireMode mode = solver::WireMode::kFull;
  if (records_[to_host].base_resident) {
    mode = solver::WireMode::kBaseRef;
    ++result_.base_ref_transfers;
  }
  return {mode, sp.wire_size(mode)};
}

void Campaign::on_base_miss(std::size_t host_index,
                            std::shared_ptr<solver::Subproblem> sp) {
  if (done_) return;
  ++result_.base_renegotiations;
  records_[host_index].base_resident = false;
  // Degrade to a full ship: the base block travels master -> host, then
  // the payload restarts in full mode (the in-memory subproblem still
  // carries its problem clauses; only bytes and time are charged). The
  // subproblem stays in flight throughout, so termination accounting is
  // unchanged.
  ship(root_, host_index, std::move(sp), Msg::kBaseShip);
}

void Campaign::on_subproblem_rejected(
    std::shared_ptr<solver::Subproblem> sp, std::size_t host_index) {
  assert(subproblems_in_flight_ > 0);
  --subproblems_in_flight_;
  if (done_) return;
  grid::ResourceEntry& entry = directory_.at(host_index);
  if (entry.state == HostState::kReserved) entry.state = HostState::kBusy;
  // A racing copy that bounced while surviving cohort members hold the
  // same child is not requeued: that would double-cover their space.
  if (!forget_racer(host_index)) pending_restores_.push_back(std::move(sp));
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
  HostRecord& record = records_[host_index];
  record.tenancy = {.incarnation = incarnation, .chain = {}};
  grid::ResourceEntry& entry = directory_.at(host_index);
  entry.state = HostState::kBusy;
  entry.busy_since = engine_.now();
  result_.max_active_clients = std::max(
      result_.max_active_clients, directory_.count_in_state(HostState::kBusy));
  if (std::exchange(record.cancel_on_ack, false)) {
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
  if (records_[requester].grant.empty()) return;
  const std::vector<std::size_t> peers =
      std::exchange(records_[requester].grant, {});
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
    for (const std::size_t p : peers) records_[p].cohort = cohort;
    cohorts_[cohort] = std::move(peers);
  }
  records_[from].grant.clear();
}

void Campaign::on_lost_subproblem(std::shared_ptr<solver::Subproblem> sp,
                                  std::size_t host_index) {
  assert(subproblems_in_flight_ > 0);
  --subproblems_in_flight_;
  if (done_) return;
  grid::ResourceEntry& entry = directory_.at(host_index);
  if (entry.state == HostState::kReserved) entry.state = HostState::kFree;
  // A racer that died before its copy arrived leaves the child to its
  // co-racers. Otherwise the in-flight payload IS the lost search space:
  // requeue it whole, or abort without checkpoint recovery.
  if (!forget_racer(host_index)) {
    if (!config_.recover_from_checkpoints) {
      finish(CampaignStatus::kError);
      return;
    }
    ++result_.checkpoint_recoveries;
    trace_lineage_master(obs::EventKind::kLineageRecover, sp->lineage_id,
                         client_lane(host_index));
    pending_restores_.push_back(std::move(sp));
  }
  try_dispatch();
  check_termination();
}

void Campaign::on_migrated(std::size_t from) {
  if (done_) return;
  ++result_.migrations;
  records_[from].grant.clear();
  // The subproblem left this host; its checkpoint chain now describes
  // search space the migration target owns.
  records_[from].tenancy = {};
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
  records_[host_index].tenancy = {};
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
  HostRecord& record = records_[winner];
  if (record.cohort == 0) return;
  const std::uint64_t cohort = std::exchange(record.cohort, 0);
  record.cancel_on_ack = false;
  const auto members = cohorts_.find(cohort);
  if (members == cohorts_.end()) return;
  const std::vector<std::size_t> peers = std::move(members->second);
  cohorts_.erase(members);
  for (const std::size_t peer : peers) {
    if (peer == winner) continue;
    // A co-racer may already be gone (refuted concurrently, died, or was
    // rejected); only live cohort members get the cancel order.
    if (records_[peer].cohort != cohort) continue;
    records_[peer].cohort = 0;
    send_race_cancel(peer);
  }
}

void Campaign::send_race_cancel(std::size_t peer) {
  const std::uint64_t incarnation = records_[peer].tenancy.incarnation;
  if (incarnation == 0) {
    // The racer has not acked its tenancy yet, so there is no incarnation
    // nonce to address: cancel the moment the ack arrives.
    records_[peer].cancel_on_ack = true;
    return;
  }
  send(root_, endpoints_[peer], Msg::kCancelSubproblem, kControlMessageBytes,
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
  records_[host_index].tenancy = {};
  grid::ResourceEntry& entry = directory_.at(host_index);
  if (entry.state == HostState::kBusy) entry.state = HostState::kIdle;
  forget_backlog(host_index);
  release_grant(host_index);
  try_dispatch();
  check_termination();
}

bool Campaign::forget_racer(std::size_t host_index) {
  HostRecord& record = records_[host_index];
  if (record.cohort == 0) return false;
  const std::uint64_t cohort = std::exchange(record.cohort, 0);
  record.cancel_on_ack = false;
  const auto members = cohorts_.find(cohort);
  if (members == cohorts_.end()) return false;
  auto& peers = members->second;
  std::erase(peers, host_index);
  // Covered iff a surviving cohort member still races the same child.
  const bool covered =
      std::any_of(peers.begin(), peers.end(),
                  [this](std::size_t p) { return records_[p].cohort != 0; });
  if (!covered) cohorts_.erase(members);
  return covered;
}

void Campaign::on_sat_found(std::size_t host_index, cnf::Assignment model) {
  if (done_) return;
  records_[host_index].tenancy = {};
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

void Campaign::send_checkpoint_nack(std::size_t host_index,
                                    std::uint64_t incarnation,
                                    std::uint64_t flow) {
  send(
      root_, endpoints_[host_index], Msg::kCheckpointNack,
      kControlMessageBytes,
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
  HostRecord::Tenancy& tenancy = records_[host_index].tenancy;
  // A checkpoint never carries incarnation 0, so no ack on file refuses
  // it too.
  if (tenancy.incarnation != cp.incarnation) {
    // Stale tenancy: a checkpoint from a previous assignment (possibly
    // reordered past its own SUBPROBLEM_ACK) must never enter the chain —
    // recovering it would resurrect search space another client owns.
    ++result_.checkpoint_deltas_refused;
    send_checkpoint_nack(host_index, cp.incarnation, cp.flow_id);
    return;
  }
  std::vector<Checkpoint>& chain = tenancy.chain;
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
      send_checkpoint_nack(host_index, cp.incarnation, cp.flow_id);
      return;
    }
    chain.push_back(std::move(cp));
  }
  const std::uint64_t incarnation = chain.back().incarnation;
  const std::uint64_t epoch = chain.back().epoch;
  send(
      root_, endpoints_[host_index], Msg::kCheckpointAck,
      kControlMessageBytes,
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
  HostRecord& record = records_[host_index];
  record.base_resident = false;
  if (!was_busy) {
    // §3.3: an idle client's death is tolerated; the resource is marked
    // free and may be restarted on demand.
    entry.state = HostState::kFree;
    return;
  }
  // A busy client died: its share of the search space is gone, unless a
  // cohort member still holds the same split child, or (portfolio) any
  // other racer — busy, reserved, or still receiving its copy — covers
  // the whole formula.
  entry.state = HostState::kFree;
  bool covered = forget_racer(host_index);
  if (!covered && config_.parallel_mode == solver::ParallelMode::kPortfolio) {
    covered = subproblems_in_flight_ > 0;
    for (std::size_t i = 0; !covered && i < directory_.size(); ++i) {
      if (i == host_index) continue;
      const HostState s = directory_.at(i).state;
      covered = s == HostState::kBusy || s == HostState::kReserved;
    }
  }
  const bool recover = !covered && config_.recover_from_checkpoints &&
                       !record.tenancy.chain.empty();
  if (recover) {
    ++result_.checkpoint_recoveries;
    // Replay base snapshot + delta chain (units/assumptions from the
    // newest entry, learned clauses accumulated across the chain).
    auto restored = std::make_shared<solver::Subproblem>(
        restore_chain(record.tenancy.chain, formula_));
    trace_lineage_master(obs::EventKind::kLineageRecover,
                         restored->lineage_id, client_lane(host_index));
    pending_restores_.push_back(std::move(restored));
  }
  record.tenancy = {};
  if (!covered && !recover) {
    // Paper §3.4: "The current implementation ... will not tolerate a
    // machine crash ... for clients which are working on a subproblem."
    finish(CampaignStatus::kError);
    return;
  }
  try_dispatch();
  // A no-op after a recovery: the restore is queued or in flight.
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
  engine_.schedule_in(GridSatConfig::availability_sample_interval_s,
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
      for (std::size_t c = kRoot + 1; c < coordinators_.size(); ++c) {
        const Coordinator& sub = coordinators_[c];
        tracer_->emit(tracer_->register_worker(names_.name(sub.endpoint.id)),
                      obs::EventKind::kSiteTag,
                      tracer_->intern(names_.name(sub.scope)));
      }
    }
  }
  // Hierarchical topology: start each sub-master's cadenced digest/summary
  // tick (it reschedules itself for the campaign's lifetime).
  for (std::size_t c = kRoot + 1; c < coordinators_.size(); ++c) {
    engine_.schedule_in(config_.site_relay_interval,
                        [this, c] { sub_master_tick(c); });
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
        launch_client(add_host(spec));
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
