// GridSAT application configuration (paper §3.3/§4 parameters).
#pragma once

#include <cstdint>

#include "solver/cdcl.hpp"
#include "solver/diversify.hpp"

namespace gridsat::core {

enum class CheckpointMode : std::uint8_t {
  kNone,   ///< paper's evaluated configuration
  kLight,  ///< level-0 assignments only (§3.4)
  kHeavy,  ///< level 0 + learned clauses (§3.4)
};

struct GridSatConfig {
  solver::SolverConfig solver;

  /// How the campaign covers the search space (solver/diversify.hpp):
  /// kSplit is the paper's guiding-path protocol; kPortfolio gives every
  /// registering client the whole formula under a diversified config and
  /// races them (clauses still shared); kHybrid splits as usual but ships
  /// each split child to up to `race_width` clients at once, cancelling
  /// the losers when one reports a verdict.
  solver::ParallelMode parallel_mode = solver::ParallelMode::kSplit;
  /// kHybrid: clients racing each shipped subproblem (>= 1).
  std::size_t race_width = 2;

  /// Maximum length of shared learned clauses — 10 in the first
  /// experiment set, 3 in the second (paper §4).
  std::size_t share_max_len = 10;

  /// Base split timeout: "the time out for clients to request that their
  /// problems be partitioned is set to 100 seconds" (§4). The effective
  /// timeout is max(this, 2 x last subproblem transfer time) per §3.3.
  double split_timeout_s = 100.0;

  /// Overall campaign cap: 6000 s for the solvable set, 12000 s for the
  /// challenging set (§4). The run reports kTimeout when it fires.
  double overall_timeout_s = 6000.0;

  /// Virtual seconds of solver work per client compute slice.
  double client_quantum_s = 1.0;

  /// A client asks for a split when its clause DB exceeds this fraction
  /// of host memory ("will only use up to 60% of it", §3.3). A constant:
  /// the paper fixes it.
  static constexpr double mem_split_fraction = 0.60;

  /// Hosts with less memory are not given work ("clients will terminate
  /// if the initial free memory size is below a given minimum (currently
  /// set to 128 MBytes)", §3.3) — expressed in simulated bytes.
  std::size_t min_client_memory = 2 * 1024 * 1024;

  /// Client process start-up cost on a host: the launch step the master
  /// runs on every usable resource before the client registers (§3.3).
  /// A constant; no scenario varies it.
  static constexpr double client_launch_s = 2.0;

  /// Migration trigger (§3.4): an idle host whose rank exceeds the busy
  /// host's rank by this factor, with at least `migration_min_idle_at_site`
  /// idle peers at its site, receives the problem whole instead of a split.
  double migration_rank_factor = 2.0;
  std::size_t migration_min_idle_at_site = 3;

  CheckpointMode checkpoint = CheckpointMode::kNone;
  double checkpoint_interval_s = 120.0;
  /// Restart a dead busy client from its last checkpoint (our
  /// implementation of the §3.4 future-work feature). Without it a busy
  /// client's death aborts the run, matching the paper's stated limits.
  bool recover_from_checkpoints = false;

  /// Base-formula caching (DESIGN.md §4e) is always on: hosts that already
  /// hold the problem-clause block receive a fingerprint reference instead
  /// of the clause bytes on later splits/migrations; a residency mismatch
  /// renegotiates to a full ship. Not a knob; the name stays because
  /// perfbench/main.cpp reads `cc.base_ref_caching`.
  static constexpr bool base_ref_caching = true;
  /// Heavy checkpoints ship one full snapshot per subproblem incarnation
  /// and then up to this many deltas carrying only the clauses learned
  /// since the last master-acked epoch (the master keeps the full+delta
  /// chain), bounding both its chain memory and the recovery replay
  /// length. 0 = every heavy checkpoint is a full snapshot.
  std::size_t checkpoint_chain_max = 8;
  /// Budget (bytes) for the learned-clause block shipped with a split or
  /// migration; 0 = unlimited (ship the sender's whole DB, the
  /// pre-overhaul behavior). The HordeSat lesson: bounded exchange
  /// buffers are what make clause traffic scale. The sharing layer
  /// already streams high-value clauses to every client, so the split
  /// payload only needs the base reference, the guiding path, and the
  /// strongest (shortest) learned clauses under this budget. 64 KiB
  /// keeps typical mid-campaign ships whole and caps only the long
  /// accumulated tail (the paper's "100s of MBytes" regime); smaller
  /// budgets save more bytes but make receivers re-derive more.
  std::size_t split_learned_budget_bytes = 64 * 1024;

  /// Hierarchical masters (DESIGN.md §4j). Number of per-site sub-masters
  /// to deploy: the first `sub_masters` distinct sites (in host order) each
  /// get a sub-master that aggregates its clients' reports, relays clauses
  /// in-site, and negotiates splits with the root. 0 = flat topology (the
  /// paper's single master). Hierarchical routing only applies in
  /// ParallelMode::kSplit — portfolio/hybrid racing keeps the flat master,
  /// like migration.
  std::size_t sub_masters = 0;
  /// Cadence (virtual seconds) of a sub-master's inter-site traffic: the
  /// deduplicated clause digest to the root and the site-state summary.
  double site_relay_interval = 0.25;
  /// Only clauses whose reported LBD is <= this cap cross sites in the
  /// digest (HordeSat-style quality gating; glue clauses travel, the long
  /// tail stays local). 0 disables inter-site clause exchange entirely;
  /// in-site relay is unaffected.
  std::size_t inter_site_lbd_cap = 6;

  /// Cadence of the information service sampling host availability into
  /// the NWS-analog forecasters that rank resources (§3.3). A constant; no
  /// scenario varies it.
  static constexpr double availability_sample_interval_s = 60.0;

  std::uint64_t seed = 1;
};

}  // namespace gridsat::core
