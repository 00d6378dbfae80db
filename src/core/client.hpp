// One GridSAT client process (paper §3.3): runs the CDCL core in
// budgeted slices on its host, asks its coordinator for a split when its
// memory or runtime rule fires, ships split children peer-to-peer, relays
// its learned clauses, checkpoints, and reports each verdict. The master
// side lives in core/campaign.hpp. A client reports to it through the
// campaign's message layer; as a friend it also bumps the campaign's
// result counters and records its own base residency directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cnf/clause_pool.hpp"
#include "cnf/formula.hpp"
#include "solver/cdcl.hpp"
#include "solver/subproblem.hpp"

namespace gridsat::core {

class Campaign;

/// One client flush: the shared clauses plus the LBD each was learned
/// at. Flat and hierarchical sharing carry the same batch. Only hops to
/// and from sub-masters (client flushes, inter-site digests) charge the
/// LBD tags, because the digest filter keys on them
/// (config.inter_site_lbd_cap); the flat path and every relay to clients
/// ship clauses only.
///
/// The exporter writes each clause once, literals strictly ascending
/// (DESIGN.md §4b). A batch is immutable once sent: every later hop and
/// every receiving solver reads the same pool through a shared pointer,
/// and the canonical order passes the receiver's level-0 merge on its
/// first try.
struct ClauseBatch {
  cnf::ClausePool clauses;
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
  /// Exports since the last flush, in canonical order. The LBDs ship to
  /// the sub-master in hierarchical mode and are dropped on the flat path.
  ClauseBatch exports_;
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
  /// This client holds the campaign's base formula: the receiving-side
  /// truth for base-ref payloads. A relaunched client starts without it,
  /// so a stale in-flight base-ref triggers renegotiation.
  bool base_cached_ = false;
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

}  // namespace gridsat::core
