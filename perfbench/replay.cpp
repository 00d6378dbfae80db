#include "replay.hpp"

#include <chrono>
#include <memory>
#include <vector>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The production sizer: the real Subproblem calls, counted.
struct CountingSizer {
  std::uint64_t calls = 0;
  std::uint64_t trims = 0;
  std::size_t size(const solver::Subproblem& sp, solver::WireMode mode) {
    ++calls;
    return sp.wire_size(mode);
  }
  std::size_t trim(solver::Subproblem& sp, std::size_t budget) {
    const std::size_t dropped = sp.trim_learned(budget);
    if (dropped > 0) ++trims;
    return dropped;
  }
};

void add_search_stats(const solver::CdclSolver& s, ReplayStats& out) {
  out.propagations += s.stats().propagations;
  out.conflicts += s.stats().conflicts;
  out.propagation_ns += s.stats().propagation_ns;
}

}  // namespace

ReplayStats replay_ship_path(const cnf::CnfFormula& formula,
                             const ReplayConfig& config) {
  ReplayStats out;
  std::vector<std::unique_ptr<solver::CdclSolver>> stack;
  stack.push_back(std::make_unique<solver::CdclSolver>(formula, config.solver));
  CountingSizer sizer;
  while (!stack.empty() && out.ships < config.max_ships) {
    solver::CdclSolver& s = *stack.back();
    solver::SolveStatus status = solver::SolveStatus::kUnknown;
    const std::uint64_t until = s.stats().work + config.work_per_ship;
    while (status == solver::SolveStatus::kUnknown && s.stats().work < until) {
      const auto t = Clock::now();
      status = s.solve(config.slice_work);
      out.solve_s += seconds_since(t);
    }
    if (status != solver::SolveStatus::kUnknown) {
      ++out.verdicts;
      add_search_stats(s, out);
      stack.pop_back();
      continue;
    }
    if (!s.can_split()) continue;

    auto t = Clock::now();
    solver::Subproblem child = s.split();
    out.split_s += seconds_since(t);

    // Every receiver but the first holds the base formula, as in a
    // campaign past its first few ships.
    t = Clock::now();
    out.charged_bytes +=
        plan_ship_bytes(child, config.learned_budget_bytes,
                        config.base_ref_caching && out.ships > 0, sizer);
    out.size_s += seconds_since(t);

    t = Clock::now();
    const std::vector<std::uint8_t> bytes = child.to_bytes();
    out.encode_s += seconds_since(t);
    t = Clock::now();
    const solver::Subproblem decoded = solver::Subproblem::from_bytes(bytes);
    out.decode_s += seconds_since(t);
    out.full_bytes += bytes.size();
    out.clauses_coded += child.clauses.size();
    out.roundtrip_ok = out.roundtrip_ok && decoded.units == child.units &&
                       decoded.assumptions == child.assumptions &&
                       decoded.clauses.size() == child.clauses.size() &&
                       decoded.num_problem_clauses == child.num_problem_clauses;

    t = Clock::now();
    auto rebuilt = std::make_unique<solver::CdclSolver>(child, config.solver);
    out.rebuild_s += seconds_since(t);
    ++out.ships;
    stack.push_back(std::move(rebuilt));
  }
  for (const auto& s : stack) add_search_stats(*s, out);
  out.wire_size_calls = sizer.calls;
  out.trimmed_ships = sizer.trims;
  return out;
}

}  // namespace perfbench
