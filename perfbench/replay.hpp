// Ship-path replay: on one instance and solver config, drive the public
// calls a campaign client makes when it splits and ships a subproblem,
// and time each one. The campaign itself does not expose these costs, so
// the traced run estimates them here:
//   CdclSolver::solve(budget) slices, CdclSolver::split(),
//   Subproblem::wire_size / trim_learned in plan_subproblem_ship's order,
//   Subproblem::to_bytes / from_bytes, CdclSolver(const Subproblem&).
// The walk covers the split tree depth first, continuing on both the
// shipped child and the kept parent, so it does not run dry after the
// handful of ships one solver split repeatedly would give.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cnf/formula.hpp"
#include "solver/cdcl.hpp"
#include "solver/subproblem.hpp"

namespace perfbench {

namespace cnf = gridsat::cnf;
namespace solver = gridsat::solver;

/// Mirror of Campaign::plan_subproblem_ship's sizing sequence: a full
/// size, a trim to the learned-clause budget, a second full size only if
/// the trim dropped something, and a base-ref size when the receiver
/// holds the base formula. `sizer` supplies size(sp, mode) and
/// trim(sp, budget); returns the bytes the ship is charged.
template <class Sizer>
std::size_t plan_ship_bytes(solver::Subproblem& sp, std::size_t budget,
                            bool base_resident, Sizer& sizer) {
  std::size_t full = sizer.size(sp, solver::WireMode::kFull);
  if (budget > 0 && sizer.trim(sp, budget) > 0) {
    full = sizer.size(sp, solver::WireMode::kFull);
  }
  if (base_resident) return sizer.size(sp, solver::WireMode::kBaseRef);
  return full;
}

struct ReplayConfig {
  solver::SolverConfig solver;
  /// Work units per solve() slice (a campaign client's quantum times a
  /// mid-range synthetic-grid host speed), and search work between two
  /// splits of one tree node (campaigns calibrate it as their total work
  /// over their ships).
  std::uint64_t slice_work = 4000;
  std::uint64_t work_per_ship = 100000;
  /// GridSatConfig::split_learned_budget_bytes and base_ref_caching.
  std::size_t learned_budget_bytes = 64 * 1024;
  bool base_ref_caching = true;
  std::size_t max_ships = 96;
};

struct ReplayStats {
  std::uint64_t ships = 0;
  std::uint64_t wire_size_calls = 0;
  std::uint64_t trimmed_ships = 0;  ///< ships whose learned block was cut
  std::uint64_t charged_bytes = 0;  ///< what plan_ship_bytes charged
  std::uint64_t full_bytes = 0;     ///< encoded full payloads
  std::uint64_t clauses_coded = 0;  ///< clauses encoded (and decoded)
  std::uint64_t verdicts = 0;       ///< tree nodes that reached a verdict
  double solve_s = 0.0;
  double split_s = 0.0;
  double size_s = 0.0;
  double encode_s = 0.0;
  double decode_s = 0.0;
  double rebuild_s = 0.0;
  /// Search statistics summed over every solver of the walk.
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t propagation_ns = 0;
  /// Every decoded payload matched its source (units, assumptions,
  /// clause counts).
  bool roundtrip_ok = true;
};

ReplayStats replay_ship_path(const cnf::CnfFormula& formula,
                             const ReplayConfig& config);

}  // namespace perfbench
