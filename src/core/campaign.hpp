// GridSAT campaign: master + clients on a simulated Computational Grid.
//
// Implements the paper's master-client model (§3.3):
//   * master launches an empty client on every usable resource, ranks
//     registered clients via NWS-analog forecasts, hands the whole
//     problem to the first registrant;
//   * clients run the CDCL core in budgeted slices, monitor their own
//     memory (60%-of-capacity rule) and runtime (max(100 s, 2 x transfer
//     time) rule) and ask the master for splits;
//   * the master grants splits to the highest-ranked idle host, keeps a
//     backlog when saturated (longest-running client splits first, §3.4),
//     and orders whole-problem migration toward a markedly better host
//     with idle same-site company;
//   * split payloads travel peer-to-peer (Figure 3, messages 1-5);
//   * learned clauses within the length cap are relayed master-wise to
//     every other client and merged at level 0 (§3.2);
//   * termination: all clients idle => UNSAT; a client's verified model
//     => SAT; the overall cap (or batch expiry) => TIME_OUT (§3.4);
//   * optional light/heavy checkpointing with recovery (§3.4, the
//     paper's future-work feature, implemented here);
//   * optional batch system (Blue Horizon analog) whose nodes join the
//     pool when the job leaves the queue (Table 2 protocol).
//
// Layout: campaign.cpp holds the master's host, verdict, racing,
// checkpoint and wire bookkeeping; core/coordinator.cpp its coordinators
// (the root, whose scope is every host, and one sub-master per covered
// site, DESIGN.md §4j); core/client.{hpp,cpp} the client process.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cnf/formula.hpp"
#include "core/checkpoint.hpp"
#include "core/client.hpp"
#include "core/config.hpp"
#include "core/protocol.hpp"
#include "core/result.hpp"
#include "grid/directory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "sim/host.hpp"
#include "sim/message_bus.hpp"
#include "sim/names.hpp"
#include "sim/network.hpp"
#include "solver/cdcl.hpp"
#include "solver/sharing.hpp"

namespace gridsat::core {

struct BatchOptions {
  sim::BatchSystemSpec spec;
  std::vector<sim::HostSpec> node_hosts;
  double max_duration_s = 12.0 * 3600.0;
  /// Paper (§4): "If a problem was not solved by the end of the 12-hour
  /// Blue Horizon job, the whole GridSAT run terminated."
  bool terminate_on_expiry = true;
};

class Campaign {
 public:
  Campaign(cnf::CnfFormula formula, std::string master_site,
           std::vector<sim::HostSpec> hosts, GridSatConfig config);
  ~Campaign();
  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  /// Attach a batch system whose job is submitted at launch (Table 2).
  void set_batch(BatchOptions options);

  /// Test hook: kill the client on `host_index` at virtual time `at`.
  void schedule_client_failure(std::size_t host_index, double at);

  /// Test hook: the sub-master at `site` dies at virtual time `at`. The
  /// root notices after its monitoring delay and re-homes the site under
  /// a fresh sub-master incarnation; in-flight messages bounce to the
  /// root, so no guiding path or proof leaf is lost (DESIGN.md §4j).
  /// No-op when the site has no (live) sub-master.
  void schedule_sub_master_failure(const std::string& site, double at);

  /// Sub-masters actually deployed (0 in the flat topology).
  [[nodiscard]] std::size_t num_sub_masters() const noexcept {
    return coordinators_.size() - 1;
  }

  // --- elastic-grid scenario hooks (DESIGN.md §4g) ---------------------
  /// A new host joins the pool at virtual time `at` (elastic
  /// acquisition): it enters the directory and the master launches a
  /// client on it, exactly as batch-granted nodes do.
  void schedule_host_join(sim::HostSpec spec, double at);
  /// The host leaves the pool at `at` (elastic release / preemption):
  /// its client is killed, the master notices after its monitoring
  /// delay, and the host is marked dead so it is never re-acquired. A
  /// busy victim follows the normal death path (checkpoint recovery or
  /// campaign error, per config.recover_from_checkpoints).
  void schedule_host_release(std::size_t host_index, double at);
  /// Correlated failure: every live host at `site` dies at `at` (one
  /// monitoring report per host), and the site's machines return to the
  /// free pool `down_for` virtual seconds later, where the master may
  /// relaunch clients on demand.
  void schedule_site_outage(const std::string& site, double at,
                            double down_for);

  /// Test hook: force the master's base-residency record for a host, as
  /// if a full ship had already been delivered there. Marking a host
  /// whose client does not actually hold the base exercises the
  /// renegotiate-on-mismatch fallback.
  void debug_mark_base_resident(std::size_t host_index) {
    records_[host_index].base_resident = true;
  }

  /// Attach a (manual-clock) tracer before run(): the engine drives its
  /// virtual clock, the bus emits per-message send/recv events, clients
  /// emit phase/split/solver events on lanes named after their hosts.
  void set_tracer(obs::Tracer* tracer);
  /// Attach a metric registry before run(): live campaign state is
  /// published as callback gauges ("campaign.*"), frozen to plain values
  /// when run() returns.
  void set_metrics(obs::MetricRegistry* metrics);
  [[nodiscard]] obs::Tracer* tracer() noexcept { return tracer_; }

  /// Run the campaign to a verdict (or the overall timeout).
  GridSatResult run();

  /// Validate the stitched campaign-wide refutation against the original
  /// formula. Meaningful after run() ended kUnsat with
  /// config.solver.log_proof set (and GRIDSAT_PROOF compiled in); any
  /// other state yields an invalid result carrying the diagnosis —
  /// including a failed stitch, which is how the fuzz oracle surfaces a
  /// dropped subproblem or a stale-checkpoint recovery.
  [[nodiscard]] solver::ProofCheckResult certify() const;

  // Introspection (tests, examples, benches).
  [[nodiscard]] sim::SimEngine& engine() noexcept { return engine_; }
  [[nodiscard]] sim::MessageBus& bus() noexcept { return bus_; }
  [[nodiscard]] sim::Network& network() noexcept { return network_; }
  [[nodiscard]] grid::ResourceDirectory& directory() noexcept {
    return directory_;
  }
  [[nodiscard]] const cnf::CnfFormula& formula() const noexcept {
    return formula_;
  }
  [[nodiscard]] const GridSatConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] const GridSatResult& result() const noexcept {
    return result_;
  }
  [[nodiscard]] Client* client(std::size_t host_index) {
    return host_index < clients_.size() ? clients_[host_index].get()
                                        : nullptr;
  }
  [[nodiscard]] sim::Host& host(std::size_t index) { return *hosts_[index]; }
  [[nodiscard]] std::size_t num_hosts() const noexcept {
    return hosts_.size();
  }

 private:
  friend class Client;

  /// A message address: interned endpoint name and site ids of a client
  /// ("client:<host>"), the root ("master") or a sub-master
  /// ("submaster:<site>").
  struct Endpoint {
    std::uint32_t id = 0;
    std::uint32_t site = 0;
  };

  /// What the master knows about one host, beside its directory entry.
  /// Every field resets on its own protocol event; none is ever iterated
  /// across hosts.
  struct HostRecord {
    /// Peers reserved for this host's outstanding SPLIT_GRANT /
    /// MIGRATE_ORDER (empty: none). Cleared by SPLIT_DONE / MIGRATED /
    /// SPLIT_FAILED or the requester's demise. kSplit reserves one peer;
    /// kHybrid up to race_width.
    std::vector<std::size_t> grant;
    /// Hybrid cohort this host races in (0: not racing; DESIGN.md §4i).
    std::uint64_t cohort = 0;
    /// Owed a race cancel as soon as its ack arrives (the cancel needs the
    /// tenancy's incarnation nonce, which only the ack announces).
    bool cancel_on_ack = false;
    /// The host's client holds the base formula's problem-clause block
    /// (cleared when the client dies or misses a base-ref payload).
    bool base_resident = false;
    /// The current tenancy as the master knows it: the nonce announced by
    /// the latest SUBPROBLEM_ACK (0: none; checkpoints carrying any other
    /// incarnation are refused) and the checkpoint chain filed under it
    /// (entry 0 a full snapshot, later entries deltas; restore_chain
    /// replays them). A verdict, migration, cancel or death resets it.
    struct Tenancy {
      std::uint64_t incarnation = 0;
      std::vector<Checkpoint> chain;
    } tenancy;
  };

  /// One master tier (DESIGN.md §4j). The root is the coordinator whose
  /// scope is every host; each sub-master is a coordinator scoped to one
  /// site ("submaster:<site>"), which aggregates its clients' reports,
  /// relays clauses in-site, buffers an LBD-capped inter-site digest
  /// behind a FingerprintFilter, and holds the site-local split backlog.
  /// A sub-master consumes no host; its honesty lives in the
  /// message/byte/latency accounting of everything it sends.
  struct Coordinator {
    Endpoint endpoint;
    /// Interned site id of the hosts served; grid::kAnySite for the root.
    std::uint32_t scope = grid::kAnySite;
    bool alive = true;  ///< the root never dies
    std::set<std::size_t> backlog;  ///< served hosts with pending requests
    /// Sub-masters only: clause dedup (relay + digest) and the LBD-capped
    /// clauses awaiting the next digest flush.
    std::optional<solver::FingerprintFilter> filter;
    ClauseBatch digest;
    bool work_requested = false;  ///< one WORK_REQUEST outstanding
    std::uint64_t ticks = 0;      ///< cadence counter (summary decimation)
    /// Site state as of the last summary sent; a quiescent site stays
    /// silent (the tick only ships a SITE_SUMMARY when something moved).
    std::size_t last_idle = ~std::size_t{0};
    std::size_t last_busy = ~std::size_t{0};
    std::size_t last_backlog = ~std::size_t{0};

    [[nodiscard]] bool is_root() const noexcept {
      return scope == grid::kAnySite;
    }
    [[nodiscard]] bool serves(std::uint32_t site) const noexcept {
      return is_root() || site == scope;
    }
  };
  /// Index of the root in coordinators_.
  static constexpr std::size_t kRoot = 0;
  /// Charged size of a control message (headers, acks, requests).
  static constexpr std::size_t kControlMessageBytes = 96;
  /// The master's failure-detection lag: a death (of a client or of a
  /// sub-master) is noticed this many virtual seconds after it happens.
  static constexpr double kMasterMonitorDelay = 1.0;

  // --- master logic ----------------------------------------------------
  /// Append a host to the pool (directory entry, host model, client
  /// slot, interned names, master record); returns its index.
  std::size_t add_host(sim::HostSpec spec);
  void launch_client(std::size_t host_index);
  void on_register(std::size_t host_index);
  void on_split_failed(std::size_t requester);
  /// Msg 5. kHybrid ships one split child to several peers at once;
  /// `peers` with more than one entry registers a racing cohort.
  void on_subproblem_sent(std::size_t from, std::vector<std::size_t> peers);
  void on_migrated(std::size_t from);
  /// A subproblem transfer whose receiver died mid-flight: requeue it
  /// (checkpoint-recovery mode) or abort the run.
  void on_lost_subproblem(std::shared_ptr<solver::Subproblem> sp,
                          std::size_t host_index);
  void on_subproblem_ack(std::size_t host_index,
                         std::uint64_t incarnation);           ///< msg 4
  /// Receiver was already busy: requeue the payload for another client.
  void on_subproblem_rejected(std::shared_ptr<solver::Subproblem> sp,
                              std::size_t host_index);
  /// `root_refuted` = the refuted guiding path had no assumptions, i.e.
  /// the whole formula is UNSAT (what a winning portfolio racer reports).
  void on_subproblem_unsat(std::size_t host_index, bool root_refuted);
  /// Cancel every co-racer of `winner`'s cohort (kHybrid) and retire the
  /// cohort. No-op for hosts not racing.
  void cancel_co_racers(std::size_t winner);
  /// Order one racer to stand down; defers to cancel-on-ack when the
  /// racer's SUBPROBLEM_ACK (and with it the tenancy nonce the cancel
  /// must carry) has not arrived yet.
  void send_race_cancel(std::size_t peer);
  void on_race_cancelled(std::size_t host_index);
  /// Forget all racing bookkeeping for a host (death, reject, lost
  /// payload). Returns true when a surviving cohort member still covers
  /// the same split child — the caller may then skip recovery entirely.
  bool forget_racer(std::size_t host_index);
  void on_sat_found(std::size_t host_index, cnf::Assignment model);
  void on_checkpoint(std::size_t host_index, Checkpoint cp);
  void send_checkpoint_nack(std::size_t host_index, std::uint64_t incarnation,
                            std::uint64_t flow);
  /// A base-ref payload arrived at a host without the base (stale cache
  /// after a relaunch): ship the base block, then restart the payload as
  /// a full ship. The subproblem stays in flight throughout.
  void on_base_miss(std::size_t host_index,
                    std::shared_ptr<solver::Subproblem> sp);
  void on_client_died(std::size_t host_index, bool was_busy);
  void on_mem_out(std::size_t host_index);
  /// Release the reservation held for `requester`'s outstanding grant (if
  /// any): the requester finished, died, or declined before splitting.
  void release_grant(std::size_t requester);
  void check_termination();
  void finish(CampaignStatus status);
  /// The whole formula as one subproblem: the first registrant's
  /// assignment (§3.3) and every portfolio racer's copy.
  [[nodiscard]] std::shared_ptr<solver::Subproblem> root_subproblem() const;
  /// Ship a subproblem from the master to `host_index`.
  void assign_subproblem(std::size_t host_index,
                         std::shared_ptr<solver::Subproblem> sp);
  /// Decide how a subproblem ships to `to_host` and charge the wire
  /// accounting: stamp the campaign fingerprint, trim the learned block
  /// to split_learned_budget_bytes, and pick a base reference (no
  /// problem-clause bytes) when the host holds the base. The payload is
  /// encoded once, to size it in the chosen mode.
  struct ShipPlan {
    solver::WireMode mode;
    std::size_t bytes;
  };
  [[nodiscard]] ShipPlan plan_subproblem_ship(std::size_t to_host,
                                              solver::Subproblem& sp);
  /// Send `sp` from `from` (a client or the root) to `to_host` and
  /// start it there on arrival, or report it lost if the receiver
  /// died meanwhile. kSubproblem plans the ship and puts one more
  /// subproblem in flight; kBaseShip re-sends the base block ahead of a
  /// renegotiated full start of a subproblem already in flight. Returns
  /// the transfer time charged.
  double ship(Endpoint from, std::size_t to_host,
              std::shared_ptr<solver::Subproblem> sp,
              Msg kind = Msg::kSubproblem);
  std::uint64_t next_incarnation() noexcept { return ++last_incarnation_; }
  /// Stable split-tree node ids. Allocation is tied to protocol decisions
  /// (not to tracing), so ids are deterministic under a fixed seed and
  /// identical whether or not a tracer is attached.
  std::uint64_t allocate_lineage() noexcept { return ++next_lineage_; }
  std::uint64_t allocate_flow() noexcept { return bus_.allocate_flow(); }
  /// Give `sp` a lineage/flow identity if it has none yet (the root and
  /// any test-injected subproblem) and trace its ship to `host_index`.
  void stamp_and_trace_ship(std::size_t host_index, solver::Subproblem& sp);
  /// Emit a lineage event on the master lane (no-op without an enabled
  /// tracer).
  void trace_lineage_master(obs::EventKind kind, std::uint64_t a,
                            std::uint64_t b);
  /// Tracer lane for a host's client timeline (registers it on demand).
  [[nodiscard]] std::uint32_t client_lane(std::size_t host_index);
  /// Tag a lane with its host's grid site (kSiteTag metadata).
  void tag_site(std::size_t host_index);
  void sample_availability();

  /// Kill the client on `host_index` and report the death to the master
  /// after its monitoring delay. With `host_gone` the machine itself
  /// leaves the pool (marked dead once the master notices), and the
  /// report is sent even when no client was running there.
  void kill_client(std::size_t host_index, bool host_gone);
  void release_host(std::size_t host_index);
  void begin_site_outage(const std::string& site, double down_for);

  // --- coordinators (core/coordinator.cpp) -----------------------------
  /// Hierarchical routing is on: sub-masters configured and the campaign
  /// runs the paper's split protocol (racing modes keep the flat master,
  /// like migration).
  [[nodiscard]] bool hier_enabled() const noexcept {
    return coordinators_.size() > 1;
  }
  /// The coordinator serving `host`'s site: its sub-master (alive or
  /// not), or kRoot for an uncovered site.
  [[nodiscard]] std::size_t home_of(std::size_t host_index) const;
  /// The root, then a sub-master for each of the first
  /// config.sub_masters sites in host order (split mode only).
  void setup_coordinators();
  /// The one dispatcher, for flat and hierarchical masters alike (flat
  /// is the root alone): re-home bounced requests, restores to the best
  /// idle host anywhere, each coordinator's grants, brokering, then
  /// relaunch a free host if work waits and nobody is idle.
  void try_dispatch();
  /// One coordinator's grant loop: the best idle host in its scope goes
  /// to the oldest requester in its backlog. Root policies: migration and
  /// hybrid widening; sub-master policy: the starvation WORK_REQUEST.
  void dispatch(std::size_t index);
  /// Longest-running busy host in `backlog` with no outstanding grant
  /// (§3.4), or -1.
  [[nodiscard]] std::ptrdiff_t oldest_requester(
      const std::set<std::size_t>& backlog) const;
  /// Grant `requester` a split toward `targets` (or, with `migrate`, a
  /// migration to targets[0]) from coordinator endpoint `via`: drop its
  /// parked request, reserve the targets, record the outstanding grant,
  /// and send SPLIT_GRANT or MIGRATE_ORDER.
  void grant(std::size_t requester, std::vector<std::size_t> targets,
             Endpoint via, bool migrate);
  /// Park a split request at the requester's home coordinator, or at the
  /// root while that sub-master is dead (try_dispatch re-homes stragglers
  /// once it returns).
  void enqueue_split_request(std::size_t host_index);
  /// Erase a host's pending split request from every backlog.
  void forget_backlog(std::size_t host_index);
  /// Admit a clause batch at coordinator `index` and relay it to the busy
  /// clients it serves: a client's flush (`from` = its host, excluded
  /// from the relay and counted as shared) or, at a sub-master, another
  /// site's digest (`from` = -1). A sub-master drops clauses its filter
  /// has seen and digests the fresh, LBD-capped ones of its own clients.
  void admit_and_relay(std::size_t index,
                       std::shared_ptr<const ClauseBatch> batch,
                       std::ptrdiff_t from);
  /// Cadenced per-sub-master event: dispatch, flush the digest and send
  /// the site summary, every config.site_relay_interval virtual seconds.
  void sub_master_tick(std::size_t index);
  void flush_digest(std::size_t index);
  void sub_on_broker(std::size_t index, std::size_t peer_host);
  /// Root policy: match each starving site (it sent a WORK_REQUEST) with
  /// an idle peer there and the live site holding the deepest grantable
  /// backlog; the donor's sub-master picks the requester (SPLIT_BROKER).
  /// Runs on every dispatch, work request and site summary.
  void root_broker();
  void root_on_broker_failed(std::size_t peer_host);
  void root_on_digest(std::size_t index,
                      std::shared_ptr<const ClauseBatch> batch);
  void rehome_sub_master(std::size_t index);
  /// Route a shared-semantics client report up the tree: the site
  /// sub-master when one covers the host, the root otherwise. With
  /// `forward_to_root`, a live sub-master immediately forwards the
  /// message root-ward (kRegister travels on as kSubRegister) — for
  /// reports whose decision is the root's alone.
  void send_up(std::size_t from_host, Msg kind, std::size_t bytes,
               sim::Callback handler, std::uint64_t flow = 0,
               bool forward_to_root = false);
  /// Send to sub-master `index`. A live sub-master counts the message in
  /// sub_messages_handled and runs `at_sub`. A dead one counts a bounce,
  /// then forwards the message to the root to run `at_root` there (extra
  /// hop charged) or, without `at_root`, runs the alive-aware `at_sub`.
  void deliver_at_sub(Endpoint from, std::size_t index, Msg kind,
                      std::size_t bytes, sim::Callback at_sub,
                      sim::Callback at_root = {}, std::uint64_t flow = 0);

  // --- plumbing ----------------------------------------------------------
  [[nodiscard]] std::uint32_t kind_id(Msg kind) const noexcept {
    return msg_ids_[static_cast<std::size_t>(kind) - 1];
  }
  /// The one point-to-point send: every message of the campaign goes
  /// through here, and everything addressed to the root counts against
  /// it (result.root_messages_handled, the flat/hier comparison metric).
  /// `flow` stitches the message into an existing trace flow; 0 lets the
  /// bus allocate a fresh single-hop flow (see sim::MessageHeader).
  void send(Endpoint from, Endpoint to, Msg kind, std::size_t bytes,
            sim::Callback handler, std::uint64_t flow = 0);
  /// Fan one `kind` message out from `from` to every live client that
  /// `pick(host, client)` accepts, over one sim::DeliveryBatch (DESIGN.md
  /// §4g); `deliver(client)` runs at each recipient still present on
  /// arrival. Returns the number of recipients.
  template <class Pick, class Deliver>
  std::size_t fan_out(Endpoint from, Msg kind, std::size_t bytes, Pick pick,
                      Deliver deliver);
  /// Charged size of a clause batch; `lbd_tagged` adds the one-byte LBD
  /// tag per clause of the hops to and from sub-masters.
  [[nodiscard]] static std::size_t clause_batch_bytes(
      const ClauseBatch& batch, bool lbd_tagged = false);

  cnf::CnfFormula formula_;
  std::string master_site_;
  GridSatConfig config_;

  sim::SimEngine engine_;
  /// Interned endpoint/site/kind names — must precede network_/bus_.
  sim::NameTable names_;
  sim::Network network_;
  sim::MessageBus bus_;
  grid::ResourceDirectory directory_;
  // Per-host state, all parallel to hosts_ (add_host appends to each).
  std::vector<std::unique_ptr<sim::Host>> hosts_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<Endpoint> endpoints_;  ///< pre-interned addresses
  std::vector<HostRecord> records_;
  Endpoint root_;  ///< "master" at the master's site
  std::array<std::uint32_t, kMsgKinds> msg_ids_{};  ///< by Msg value - 1

  // Master state.
  bool problem_assigned_ = false;
  std::size_t subproblems_in_flight_ = 0;
  /// [kRoot] the root, then one sub-master per covered site in host order.
  std::vector<Coordinator> coordinators_;
  std::set<std::size_t> starving_sites_;  ///< subs awaiting brokered work
  // --- portfolio / hybrid racing state (DESIGN.md §4i) -----------------
  /// Split-tree node of the root assignment; portfolio re-ships it to
  /// every later registrant so all racers share one lineage.
  std::uint64_t root_lineage_ = 0;
  /// Diversification slots handed to portfolio racers (slot 0 = the
  /// first root assignment, reference heuristics).
  std::uint64_t portfolio_next_slot_ = 0;
  std::uint64_t next_cohort_ = 0;
  /// cohort id -> member hosts still racing.
  std::map<std::uint64_t, std::vector<std::size_t>> cohorts_;
  std::deque<std::shared_ptr<solver::Subproblem>> pending_restores_;
  std::uint64_t last_incarnation_ = 0;
  std::uint64_t next_lineage_ = 0;  ///< split-tree node id allocator
  /// Base-formula caching (DESIGN.md §4e): every ship is stamped with
  /// this fingerprint; residency is HostRecord::base_resident.
  std::uint64_t base_fingerprint_ = 0;
  std::size_t base_block_bytes_ = 0;  ///< renegotiation base-ship cost
  bool done_ = false;
  GridSatResult result_;

  /// Campaign-wide arrival-ordered proof log (null unless
  /// config.solver.log_proof and GRIDSAT_PROOF). Every client's solver
  /// forwards its learned clauses and level-0 facts here in sim-event
  /// order; refuted subproblems contribute their negated guiding paths
  /// as leaves; finish(kUnsat) stitches the split tree.
  std::unique_ptr<solver::DistributedProofBuilder> proof_builder_;

  // Batch (Blue Horizon) state.
  std::optional<BatchOptions> batch_options_;
  std::unique_ptr<sim::BatchSystem> batch_;
  sim::BatchSystem::JobId batch_job_ = 0;
  double batch_started_at_ = -1.0;

  // Observability (not owned; null = off).
  obs::Tracer* tracer_ = nullptr;
  obs::MetricRegistry* metrics_ = nullptr;
  std::uint32_t master_trace_worker_ = 0;
};

}  // namespace gridsat::core
