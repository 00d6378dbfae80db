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

class Campaign;

/// One client flush: the shared clauses plus the LBD each was learned
/// at. Flat and hierarchical sharing carry the same batch. Only hops to
/// and from sub-masters (client flushes, inter-site digests) charge the
/// LBD tags, because the digest filter keys on them
/// (config.inter_site_lbd_cap); the flat path and every relay to clients
/// ship clauses only.
struct ClauseBatch {
  std::vector<cnf::Clause> clauses;
  std::vector<std::uint32_t> lbds;
};

/// One GridSAT client process (internal to Campaign, exposed for tests).
class Client {
 public:
  Client(Campaign& campaign, std::size_t host_index, std::string name);

  // Delivered messages (invoked by Campaign at delivery time).
  void start_subproblem(std::shared_ptr<solver::Subproblem> sp,
                        double transfer_seconds,
                        solver::WireMode mode = solver::WireMode::kFull);
  void receive_clauses(std::shared_ptr<const ClauseBatch> batch);
  /// kSplit grants one peer; kHybrid grants up to race_width peers that
  /// will all race the same split child.
  void grant_split(std::vector<std::size_t> peer_hosts);
  void order_migration(std::size_t peer_host);
  /// A co-racer reached the verdict first: abandon the current tenancy
  /// (guarded by the incarnation nonce, so a reordered stale cancel can
  /// never kill a later assignment) and report idle.
  void cancel_subproblem(std::uint64_t incarnation);
  void checkpoint_acked(std::uint64_t incarnation, std::uint64_t epoch);
  void checkpoint_nacked(std::uint64_t incarnation);
  /// The site's sub-master was re-homed under a fresh incarnation: any
  /// split request the old incarnation may have held is gone, so re-send
  /// it (DESIGN.md §4j failure handling).
  void sub_hello();
  void kill();

  [[nodiscard]] bool busy() const noexcept { return solver_ != nullptr; }
  [[nodiscard]] bool alive() const noexcept { return alive_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t work_done() const noexcept;
  [[nodiscard]] std::uint64_t clauses_imported() const noexcept;
  [[nodiscard]] std::uint64_t clauses_imported_used() const noexcept;
  [[nodiscard]] const solver::CdclSolver* solver() const noexcept {
    return solver_.get();
  }

 private:
  friend class Campaign;

  void compute_slice();
  void post_slice();
  /// A grant (split or migration) that finds the solver already gone
  /// sends SPLIT_FAILED so the master frees the reserved peers; returns
  /// true when it did.
  bool decline_stale_grant();
  void finish_subproblem(solver::SolveStatus status);
  /// Close the current tenancy: fold the solver's work and import counts
  /// into the client's totals, drop the solver and its unsent exports.
  void end_tenancy();
  void perform_split();
  void perform_migration();
  void flush_exports();
  void maybe_checkpoint();
  void check_split_triggers();
  [[nodiscard]] double effective_split_timeout() const;
  /// Emit a kPhase event on this client's timeline lane (no-op without a
  /// tracer).
  void trace_phase(const char* phase);

  Campaign& campaign_;
  std::size_t host_index_;
  std::string name_;
  std::unique_ptr<solver::CdclSolver> solver_;
  std::vector<cnf::Clause> export_buffer_;
  /// LBD of each buffered export, parallel to export_buffer_; shipped to
  /// the sub-master in hierarchical mode, dropped on the flat path.
  std::vector<std::uint32_t> export_lbds_;
  std::uint64_t work_accumulated_ = 0;  ///< from finished subproblems
  /// Import accounting carried across subproblem tenancies (the live
  /// solver's counts are added on top; see clauses_imported*()).
  std::uint64_t imported_accumulated_ = 0;
  std::uint64_t imported_used_accumulated_ = 0;
  /// Causal identity of the current tenancy: the split-tree node this
  /// client is refuting and the trace flow its protocol messages join.
  std::uint64_t lineage_ = 0;
  std::uint64_t flow_ = 0;
  double subproblem_started_ = 0.0;
  double last_transfer_s_ = 0.0;
  bool split_requested_ = false;
  std::vector<std::size_t> pending_split_peers_;
  std::ptrdiff_t pending_migrate_peer_ = -1;
  bool slice_scheduled_ = false;
  bool alive_ = true;
  double last_checkpoint_ = 0.0;
  std::size_t checkpointed_level0_ = 0;
  /// Fingerprint of the base formula this client holds (0 = none): the
  /// receiving-side truth for base-ref payloads. A relaunched client
  /// starts at 0, so a stale in-flight base-ref triggers renegotiation.
  std::uint64_t base_cached_ = 0;
  // Incremental heavy-checkpoint chain state (DESIGN.md §4e). The
  // incarnation is a campaign-unique nonce per subproblem tenancy; the
  // master refuses checkpoints whose incarnation does not match the one
  // announced in this tenancy's SUBPROBLEM_ACK, so reordered stale
  // checkpoints can never poison a new chain.
  std::uint64_t ckpt_incarnation_ = 0;
  std::uint64_t ckpt_epoch_ = 0;        ///< last shipped epoch (starts at 1)
  std::uint64_t ckpt_acked_epoch_ = 0;  ///< newest master-acked epoch
  std::uint64_t ckpt_deltas_since_full_ = 0;
  bool ckpt_force_full_ = false;  ///< set by CHECKPOINT_NACK
  /// Shipped-but-unacked delta contents by epoch: a delta must cover
  /// everything since the acked base on its own, because the master
  /// truncates its chain back to base_epoch before appending.
  std::vector<std::pair<std::uint64_t, std::vector<cnf::Clause>>>
      ckpt_unacked_;
  /// Clauses learned since the last checkpoint ship (delta payload).
  std::vector<cnf::Clause> ckpt_fresh_;
  std::uint32_t trace_worker_ = 0;  ///< lane in the campaign's tracer
};

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
    return sub_masters_.size();
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
    note_base_resident(host_index);
  }
  [[nodiscard]] std::uint64_t base_fingerprint() const noexcept {
    return base_fingerprint_;
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

  // --- master logic ----------------------------------------------------
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
  void on_client_clauses(std::size_t from,
                         std::shared_ptr<const ClauseBatch> batch);
  void on_checkpoint(std::size_t host_index, Checkpoint cp);
  void send_checkpoint_nack(std::size_t host_index, std::uint64_t incarnation,
                            std::uint64_t flow);
  /// Forget a host's checkpoint chain and tenancy nonce (PR-4 erase rules
  /// applied chain-wide: unsat/sat verdict, migration, new assignment).
  void drop_checkpoints(std::size_t host_index);
  /// A base-ref payload arrived at a host without the base (stale cache
  /// after a relaunch): ship the base block, then restart the payload as
  /// a full ship. The subproblem stays in flight throughout.
  void on_base_miss(std::size_t host_index,
                    std::shared_ptr<solver::Subproblem> sp);
  void on_client_died(std::size_t host_index, bool was_busy);
  void on_mem_out(std::size_t host_index);
  /// The one dispatcher, for flat and hierarchical masters alike (flat
  /// is the root tier with no sub-masters): re-home bounced requests,
  /// restores to the best idle host anywhere, root-homed backlog grants,
  /// site-local dispatch and brokering, then relaunch a free host if work
  /// waits and nobody is idle.
  void try_dispatch();
  /// Longest-running busy host in `backlog` with no outstanding grant
  /// (§3.4), or -1.
  [[nodiscard]] std::ptrdiff_t oldest_requester(
      const std::set<std::size_t>& backlog) const;
  /// Grant `requester` a split toward `targets` (or, with `migrate`, a
  /// migration to targets[0]): drop its parked request, reserve the
  /// targets, record the outstanding grant, and send SPLIT_GRANT or
  /// MIGRATE_ORDER from the root, or from sub-master `via_sub` when >= 0.
  void grant(std::size_t requester, std::vector<std::size_t> targets,
             std::ptrdiff_t via_sub, bool migrate);
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
  /// problem-clause bytes) when the host's resident base matches. The
  /// payload is encoded once, to size it in the chosen mode.
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
  void note_base_resident(std::size_t host_index);
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
  [[nodiscard]] std::size_t idle_at_site(std::uint32_t site) const;
  void update_peak_active();

  /// Kill the client on `host_index` and report the death to the master
  /// after its monitoring delay. With `host_gone` the machine itself
  /// leaves the pool (marked dead once the master notices), and the
  /// report is sent even when no client was running there.
  void kill_client(std::size_t host_index, bool host_gone);
  void release_host(std::size_t host_index);
  void begin_site_outage(const std::string& site, double down_for);

  // --- hierarchical masters (DESIGN.md §4j) ----------------------------
  /// Per-site coordinator: a logical endpoint ("submaster:<site>") that
  /// aggregates its clients' reports, relays clauses in-site, buffers an
  /// LBD-capped inter-site digest behind a FingerprintFilter, and holds
  /// the site-local split backlog. Consumes no host; its honesty lives in
  /// the message/byte/latency accounting of everything it sends.
  struct SubMaster {
    std::string site;
    Endpoint endpoint;  ///< interned "submaster:<site>" at its site
    std::uint64_t incarnation = 1;
    bool alive = true;
    solver::FingerprintFilter filter;  ///< clause dedup (relay + digest)
    ClauseBatch digest;  ///< LBD-capped clauses awaiting the next flush
    std::set<std::size_t> backlog;  ///< local hosts with pending requests
    bool work_requested = false;    ///< one WORK_REQUEST outstanding
    std::uint64_t ticks = 0;        ///< cadence counter (summary decimation)
    /// Site state as of the last summary sent; a quiescent site stays
    /// silent (the tick only ships a SITE_SUMMARY when something moved).
    std::size_t last_idle = ~std::size_t{0};
    std::size_t last_busy = ~std::size_t{0};
    std::size_t last_backlog = ~std::size_t{0};
  };

  /// Hierarchical routing is on: sub-masters configured and the campaign
  /// runs the paper's split protocol (racing modes keep the flat master,
  /// like migration).
  [[nodiscard]] bool hier_enabled() const noexcept;
  /// Sub-master index covering `host`'s site, or -1 (flat routing).
  [[nodiscard]] std::ptrdiff_t route_sub(std::size_t host_index) const;
  void setup_sub_masters();
  /// Cadenced per-sub-master event: flush the digest and send the site
  /// summary, every config.site_relay_interval virtual seconds.
  void sub_master_tick(std::size_t sub);
  void flush_digest(std::size_t sub);
  // Sub-master-side message handlers (delivery time).
  void sub_on_clauses(std::size_t sub, std::size_t from,
                      std::shared_ptr<const ClauseBatch> batch);
  void sub_on_remote_digest(std::size_t sub,
                            std::shared_ptr<const ClauseBatch> batch);
  void sub_on_broker(std::size_t sub, std::size_t peer_host);
  /// In-site clause fan-out (exclude_host = the originating client, or
  /// -1 to include everyone).
  void sub_relay(std::size_t sub, std::shared_ptr<const ClauseBatch> batch,
                 std::ptrdiff_t exclude_host);
  /// Grant splits locally while the site has both backlog and idle
  /// hosts; request brokered work from the root when starving.
  void sub_try_dispatch(std::size_t sub);
  void root_broker();
  // Root-side handlers for sub-master traffic.
  void root_on_work_request(std::size_t sub);
  void root_on_broker_failed(std::size_t peer_host);
  void root_on_site_summary();
  void root_on_digest(std::size_t sub,
                      std::shared_ptr<const ClauseBatch> batch);
  void rehome_sub_master(std::size_t sub);
  /// Park a split request where this topology keeps it: the site
  /// backlog when a live sub-master covers the host, the root backlog
  /// otherwise (try_dispatch re-homes stragglers once the sub returns).
  void enqueue_split_request(std::size_t host_index);
  /// Erase a host's pending split request everywhere it could be parked
  /// (root backlog and every site backlog).
  void forget_backlog(std::size_t host_index);
  /// Best idle host at a sub-master's site (rank order, memory floor);
  /// -1 if none.
  [[nodiscard]] std::ptrdiff_t best_idle_at_site(std::size_t sub) const;
  /// Route a shared-semantics client report up the tree: the site
  /// sub-master when one covers the host, the root otherwise. With
  /// `forward_to_root`, a live sub-master immediately forwards the
  /// message root-ward (kRegister travels on as kSubRegister) — for
  /// reports whose decision is the root's alone.
  void send_up(std::size_t from_host, Msg kind, std::size_t bytes,
               sim::Callback handler, std::uint64_t flow = 0,
               bool forward_to_root = false);
  /// Send to sub-master `sub`. A live sub-master counts the message in
  /// sub_messages_handled and runs `at_sub`. A dead one counts a bounce,
  /// then forwards the message to the root to run `at_root` there (extra
  /// hop charged) or, without `at_root`, runs the alive-aware `at_sub`.
  void deliver_at_sub(Endpoint from, std::size_t sub, Msg kind,
                      std::size_t bytes, sim::Callback at_sub,
                      sim::Callback at_root = {}, std::uint64_t flow = 0);

  // --- plumbing ----------------------------------------------------------
  /// Intern a new host's endpoint/site names (must be called once, in
  /// order, for every host appended to hosts_).
  void register_host_names(std::size_t host_index);
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
  std::vector<std::unique_ptr<sim::Host>> hosts_;
  std::vector<std::unique_ptr<Client>> clients_;
  /// Pre-interned per-host endpoints, parallel to hosts_.
  std::vector<Endpoint> endpoints_;
  Endpoint root_;  ///< "master" at the master's site
  std::array<std::uint32_t, kMsgKinds> msg_ids_{};  ///< by Msg value - 1

  // Master state.
  bool problem_assigned_ = false;
  std::size_t subproblems_in_flight_ = 0;
  std::set<std::size_t> backlog_;  ///< hosts with pending split requests
  /// requester -> reserved peers, while a SPLIT_GRANT / MIGRATE_ORDER is
  /// outstanding (cleared by SPLIT_DONE / MIGRATED / SPLIT_FAILED or the
  /// requester's demise). kSplit reserves one peer; kHybrid up to
  /// race_width.
  std::map<std::size_t, std::vector<std::size_t>> outstanding_grants_;
  // --- portfolio / hybrid racing state (DESIGN.md §4i) -----------------
  /// Split-tree node of the root assignment; portfolio re-ships it to
  /// every later registrant so all racers share one lineage.
  std::uint64_t root_lineage_ = 0;
  /// Diversification slots handed to portfolio racers (slot 0 = the
  /// first root assignment, reference heuristics).
  std::uint64_t portfolio_next_slot_ = 0;
  std::uint64_t next_cohort_ = 0;
  /// host -> cohort id, for hosts currently racing a hybrid subproblem.
  std::map<std::size_t, std::uint64_t> racing_;
  /// cohort id -> member hosts still racing.
  std::map<std::uint64_t, std::vector<std::size_t>> cohorts_;
  /// Racers owed a cancel as soon as their ack arrives (the cancel needs
  /// the tenancy's incarnation nonce, which only the ack announces).
  std::set<std::size_t> cancel_on_ack_;
  std::deque<std::shared_ptr<solver::Subproblem>> pending_restores_;
  /// Per-host checkpoint chains: entry 0 is a full snapshot, later
  /// entries are deltas (restore_chain replays base + deltas). PR-4's
  /// erase rules apply to the whole chain.
  std::map<std::size_t, std::vector<Checkpoint>> checkpoint_chains_;
  /// Tenancy nonce announced by each host's latest SUBPROBLEM_ACK;
  /// checkpoints carrying any other incarnation are refused.
  std::map<std::size_t, std::uint64_t> expected_incarnation_;
  std::uint64_t last_incarnation_ = 0;
  std::uint64_t next_lineage_ = 0;  ///< split-tree node id allocator
  /// Base-formula residency: hosts that hold the problem-clause block
  /// under the campaign fingerprint (cleared when the client dies).
  std::map<std::size_t, std::uint64_t> base_resident_;
  std::uint64_t base_fingerprint_ = 0;
  std::size_t base_block_bytes_ = 0;  ///< renegotiation base-ship cost
  // Hierarchical-master state (DESIGN.md §4j).
  std::vector<SubMaster> sub_masters_;
  std::map<std::uint32_t, std::size_t> sub_by_site_;  ///< site id -> index
  std::set<std::size_t> starving_sites_;  ///< subs awaiting brokered work
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
