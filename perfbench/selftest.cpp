// Self-test of the benchmark's own arithmetic and of the ship-path
// replay. run.py runs it after every build; a nonzero exit stops the
// benchmark before it reports anything.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "gen/pigeonhole.hpp"
#include "replay.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

bool near3(const std::array<double, 3>& q, double a, double b, double c) {
  return near(q[0], a) && near(q[1], b) && near(q[2], c);
}

void test_arithmetic() {
  using perfbench::fail_ratio;
  using perfbench::median;
  using perfbench::quartiles;
  expect(median({}) == 0.0, "median of nothing is 0");
  expect(median({3, 1, 2}) == 2.0, "odd median");
  expect(median({4, 1, 3, 2}) == 2.5, "even median");
  // Reference values from Python's statistics.quantiles(v, n=4).
  expect(near3(quartiles({1, 2}), 0.75, 1.5, 2.25), "quartiles of two");
  expect(near3(quartiles({0.3, 0.1, 0.2}), 0.1, 0.2, 0.3), "quartiles of three");
  expect(near3(quartiles({5, 1, 4, 2, 3}), 1.5, 3.0, 4.5), "quartiles of five");
  expect(near3(quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 2.75, 5.5, 8.25),
         "quartiles of ten");
  expect(near3(quartiles({7}), 7, 7, 7), "one sample is its own quartiles");
  expect(fail_ratio(0, 3) == 0.0, "no failures");
  expect(fail_ratio(1, 4) == 0.25, "one failure in four");
  expect(fail_ratio(0, 0) == 1.0, "nothing attempted counts as failure");
}

/// Records the sizing calls plan_ship_bytes makes, as in
/// Campaign::plan_subproblem_ship: full, trim, full-if-trimmed, base-ref.
struct RecordingSizer {
  bool trim_drops = false;
  std::string calls;
  std::size_t size(const gridsat::solver::Subproblem&,
                   gridsat::solver::WireMode mode) {
    calls += mode == gridsat::solver::WireMode::kFull ? "F" : "R";
    return mode == gridsat::solver::WireMode::kFull ? 100 : 10;
  }
  std::size_t trim(gridsat::solver::Subproblem&, std::size_t) {
    calls += "T";
    return trim_drops ? 1 : 0;
  }
};

void test_plan_order() {
  struct Case {
    bool trims;
    bool resident;
    const char* calls;
    std::size_t bytes;
  };
  const Case cases[] = {
      {false, false, "FT", 100},
      {true, false, "FTF", 100},
      {false, true, "FTR", 10},
      {true, true, "FTFR", 10},
  };
  for (const Case& c : cases) {
    RecordingSizer sizer;
    sizer.trim_drops = c.trims;
    gridsat::solver::Subproblem sp;
    const std::size_t bytes = perfbench::plan_ship_bytes(sp, 1024, c.resident, sizer);
    expect(sizer.calls == c.calls,
           std::string("plan order: want ") + c.calls + ", got " + sizer.calls);
    expect(bytes == c.bytes, "plan charges the last size taken");
  }
  RecordingSizer unbudgeted;
  gridsat::solver::Subproblem sp;
  perfbench::plan_ship_bytes(sp, 0, false, unbudgeted);
  expect(unbudgeted.calls == "F", "a zero budget never trims");
}

void test_replay() {
  // A tiny learned-clause budget forces trims, so every branch of the
  // sizing sequence runs on real subproblems.
  perfbench::ReplayConfig config;
  config.slice_work = 2000;
  config.work_per_ship = 4000;
  config.learned_budget_bytes = 64;
  config.max_ships = 24;
  const perfbench::ReplayStats rs =
      perfbench::replay_ship_path(gridsat::gen::pigeonhole_unsat(7), config);
  expect(rs.ships > 1, "replay ships more than once");
  expect(rs.trimmed_ships > 0, "replay trims under a tiny budget");
  // One full size per ship, one more per trimmed ship, and a base-ref
  // size for every ship after the first.
  expect(rs.wire_size_calls == rs.ships + rs.trimmed_ships + (rs.ships - 1),
         "replay sizing calls match the campaign's plan");
  expect(rs.roundtrip_ok, "replayed payloads round-trip through the codec");
  expect(rs.clauses_coded > 0 && rs.full_bytes > 0, "replay encodes payloads");
}

}  // namespace

int main() {
  test_arithmetic();
  test_plan_order();
  test_replay();
  if (failures != 0) return 1;
  std::fprintf(stderr, "selftest ok\n");
  return 0;
}
