// Campaign outcome records for GridSAT runs and the sequential
// comparator (the zChaff column of Tables 1 and 2).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cnf/formula.hpp"
#include "solver/cdcl.hpp"
#include "solver/proof.hpp"

namespace gridsat::core {

enum class CampaignStatus : std::uint8_t {
  kSat,
  kUnsat,
  kTimeout,  ///< overall cap (or batch-job expiry) hit — paper's TIME_OUT
  kError,    ///< unrecoverable failure (busy client died, no checkpoint)
};

const char* to_string(CampaignStatus s) noexcept;

struct GridSatResult {
  CampaignStatus status = CampaignStatus::kTimeout;
  /// Virtual seconds from launch to verdict (or to the cap).
  double seconds = 0.0;
  /// "Max # of clients" column of Table 1: the peak number of clients
  /// simultaneously holding subproblems.
  std::size_t max_active_clients = 0;
  std::uint64_t total_splits = 0;
  std::uint64_t migrations = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes_transferred = 0;
  std::uint64_t clause_batches_shared = 0;
  std::uint64_t clauses_shared = 0;
  /// Clause-sharing usefulness across all clients: shared clauses merged
  /// into a solver, and the subset conflict analysis actually walked at
  /// least once (per-solver imported_used).
  std::uint64_t clauses_imported = 0;
  std::uint64_t clauses_imported_used = 0;
  /// Total solver work units across all clients (search effort).
  std::uint64_t total_work = 0;
  std::uint64_t client_deaths = 0;
  std::uint64_t checkpoint_recoveries = 0;
  /// Portfolio/hybrid racing: subproblem tenancies the master cancelled
  /// because a co-racer reached the verdict first.
  std::uint64_t races_cancelled = 0;
  /// Elastic-grid scenario bookkeeping (DESIGN.md §4g): hosts acquired
  /// after launch, hosts released back to the grid, and correlated
  /// site-outage storms injected.
  std::uint64_t hosts_joined = 0;
  std::uint64_t hosts_released = 0;
  std::uint64_t site_outages = 0;
  /// Wire-transfer accounting (DESIGN.md §4e). Subproblem transfers that
  /// shipped a base reference instead of the problem-clause block.
  std::uint64_t base_ref_transfers = 0;
  /// Base-ref transfers that arrived at a host without the base (stale
  /// cache after a relaunch) and were renegotiated to a full ship.
  std::uint64_t base_renegotiations = 0;
  /// Learned clauses dropped from split/migration payloads by the
  /// `split_learned_budget_bytes` cap (bounded exchange buffers).
  std::uint64_t ship_learned_trimmed = 0;
  /// Hierarchical-master accounting (DESIGN.md §4j). Messages addressed to
  /// each coordinator tier: the root master vs. the per-site sub-masters.
  /// Both topologies count root_messages_handled, so a flat and a
  /// hierarchical row of the same campaign compare directly.
  std::uint64_t root_messages_handled = 0;
  std::uint64_t sub_messages_handled = 0;
  /// In-site clause relay batches fanned out by sub-masters, and digest
  /// traffic: digest messages shipped sub->root, clauses they carried, and
  /// clauses dropped by a sub-master FingerprintFilter (duplicates that
  /// never hit the WAN).
  std::uint64_t site_relay_batches = 0;
  std::uint64_t inter_site_digests = 0;
  std::uint64_t digest_clauses_sent = 0;
  std::uint64_t digest_clauses_deduped = 0;
  /// Splits the root brokered across sites (a starving site's WORK_REQUEST
  /// matched to the most loaded site's backlog).
  std::uint64_t brokered_splits = 0;
  /// Sub-master failure handling: messages that arrived at a dead
  /// sub-master and were bounced to the root (extra hop charged), and
  /// sites re-homed under a fresh sub-master incarnation.
  std::uint64_t sub_master_bounces = 0;
  std::uint64_t sub_master_rehomes = 0;
  /// Wire traffic that crossed a site boundary (from the message bus).
  std::uint64_t inter_site_messages = 0;
  std::uint64_t inter_site_bytes = 0;
  /// Heavy-checkpoint chain accounting: full vs. incremental entries
  /// shipped, and deltas the master refused (stale incarnation/epoch gap;
  /// the client re-ships a full snapshot).
  std::uint64_t checkpoints_full = 0;
  std::uint64_t checkpoints_delta = 0;
  std::uint64_t checkpoint_deltas_refused = 0;
  /// Batch (Blue Horizon) bookkeeping for Table 2.
  bool batch_submitted = false;
  bool batch_started = false;
  bool batch_cancelled = false;
  double batch_queue_wait_s = 0.0;
  double batch_run_s = 0.0;  ///< virtual seconds the batch nodes worked
  cnf::Assignment model;     ///< populated and verified when status == kSat
  /// Campaign-wide refutation stitched over the split tree; present only
  /// for kUnsat runs with config.solver.log_proof set (and GRIDSAT_PROOF
  /// compiled in). Validate with Campaign::certify() or
  /// solver::certify(formula, *proof).
  std::shared_ptr<const solver::ProofLog> proof;
  /// False when the split-tree stitch failed (a refuted branch never
  /// reported, or two branches covered overlapping space); proof_error
  /// carries the diagnosis and the proof will not certify.
  bool proof_stitched = false;
  std::string proof_error;
};

struct SequentialResult {
  solver::SolveStatus status = solver::SolveStatus::kUnknown;
  double seconds = 0.0;  ///< virtual seconds on the dedicated host
  std::uint64_t work = 0;
  std::uint64_t propagations = 0;
  double wall_ms = 0.0;  ///< real (host) milliseconds spent solving
  std::size_t peak_db_bytes = 0;
  bool timed_out = false;
  cnf::Assignment model;

  /// Real propagation throughput — the perf-trajectory metric every
  /// bench JSON row records (BENCH_solver.json convention, ROADMAP.md).
  [[nodiscard]] double props_per_sec() const noexcept {
    return wall_ms > 0.0 ? static_cast<double>(propagations) * 1000.0 / wall_ms
                         : 0.0;
  }
};

/// Table-cell rendering: "TIME_OUT", "MEM_OUT", or seconds.
std::string render_time_cell(const SequentialResult& r);
std::string render_time_cell(const GridSatResult& r);

}  // namespace gridsat::core
