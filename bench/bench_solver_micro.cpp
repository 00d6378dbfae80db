// Microbenchmarks for the solver core — Ablation C of DESIGN.md:
//   * two-watched-literal BCP (Chaff §2.4) versus the naive counting BCP
//     of the DPLL baseline ("BCP accounts for ... more than 90% of
//     execution time");
//   * VSIDS versus random decisions;
//   * learned-clause minimization on/off;
//   * the decay-schedule variants (smooth MiniSat-style vs coarse
//     zChaff-style halving);
//   * instance generation and DIMACS round-trip throughput.
//
// Besides the google-benchmark suite, `--baseline` runs a reproducible
// fixed-work propagation-throughput measurement and writes machine-
// readable rows to a JSON file (default BENCH_solver.json) — the
// perf-trajectory baseline every perf PR regresses against (ROADMAP.md):
//
//   ./bench_solver_micro --baseline [--json=BENCH_solver.json] [--quick]
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <random>
#include <sstream>
#include <string_view>

#include "cnf/dimacs.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "gen/xor_chains.hpp"
#include "solver/cdcl.hpp"
#include "solver/dpll.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace {

using namespace gridsat;  // NOLINT

void BM_CdclWatchedLiteralBcp(benchmark::State& state) {
  // Fixed search effort on a hard instance; throughput = work units/s,
  // dominated by watcher traversal.
  const auto f = gen::pigeonhole_unsat(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    solver::CdclSolver solver(f);
    benchmark::DoNotOptimize(solver.solve(2'000'000));
    state.counters["conflicts"] = static_cast<double>(solver.stats().conflicts);
    state.counters["props"] = static_cast<double>(solver.stats().propagations);
  }
  state.SetItemsProcessed(state.iterations() * 2'000'000);
}
BENCHMARK(BM_CdclWatchedLiteralBcp)->Arg(9)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_DpllCountingBcp(benchmark::State& state) {
  // The same effort through the naive clause-scanning BCP: the per-work-
  // unit cost is comparable, but vastly more units are spent per
  // propagation, which is the Chaff claim this ablation reproduces.
  const auto f = gen::pigeonhole_unsat(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    solver::DpllSolver solver(f);
    benchmark::DoNotOptimize(solver.solve(2'000'000));
    state.counters["props"] = static_cast<double>(solver.stats().propagations);
  }
  state.SetItemsProcessed(state.iterations() * 2'000'000);
}
BENCHMARK(BM_DpllCountingBcp)->Arg(9)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_CdclSolveToVerdict(benchmark::State& state) {
  const auto f = gen::pigeonhole_unsat(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    solver::CdclSolver solver(f);
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_CdclSolveToVerdict)->Arg(7)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_VsidsVsRandomDecisions(benchmark::State& state) {
  const bool random = state.range(0) != 0;
  const auto f = gen::random_ksat(120, 511, 3, 99);
  for (auto _ : state) {
    solver::SolverConfig config;
    config.random_decision_freq = random ? 1.0 : 0.0;
    solver::CdclSolver solver(f, config);
    benchmark::DoNotOptimize(solver.solve(20'000'000));
    state.counters["conflicts"] = static_cast<double>(solver.stats().conflicts);
    state.counters["solved"] =
        solver.status() != solver::SolveStatus::kUnknown ? 1.0 : 0.0;
  }
}
BENCHMARK(BM_VsidsVsRandomDecisions)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_MinimizationToggle(benchmark::State& state) {
  const bool minimize = state.range(0) != 0;
  const auto f = gen::pigeonhole_unsat(8);
  for (auto _ : state) {
    solver::SolverConfig config;
    config.minimize_learned = minimize;
    solver::CdclSolver solver(f, config);
    benchmark::DoNotOptimize(solver.solve());
    state.counters["learned_lits"] =
        static_cast<double>(solver.stats().learned_literals);
  }
}
BENCHMARK(BM_MinimizationToggle)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_DecaySchedule(benchmark::State& state) {
  // 0: smooth (interval 1, decay 0.95); 1: zChaff-style coarse halving
  // (interval 256, decay 0.5).
  const bool coarse = state.range(0) != 0;
  const auto f = gen::urquhart_like(16, 3);
  for (auto _ : state) {
    solver::SolverConfig config;
    config.decay_interval = coarse ? 256 : 1;
    config.var_activity_decay = coarse ? 0.5 : 0.95;
    solver::CdclSolver solver(f, config);
    benchmark::DoNotOptimize(solver.solve(20'000'000));
    state.counters["conflicts"] = static_cast<double>(solver.stats().conflicts);
  }
}
BENCHMARK(BM_DecaySchedule)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_GenerateRandomKsat(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gen::random_ksat(500, 2130, 3, static_cast<std::uint64_t>(state.iterations())));
  }
}
BENCHMARK(BM_GenerateRandomKsat);

void BM_DimacsRoundTrip(benchmark::State& state) {
  const auto f = gen::random_ksat(300, 1278, 3, 5);
  for (auto _ : state) {
    const std::string text = cnf::to_dimacs_string(f);
    benchmark::DoNotOptimize(cnf::parse_dimacs_string(text));
  }
}
BENCHMARK(BM_DimacsRoundTrip)->Unit(benchmark::kMillisecond);

// --- Reproducible baseline: BCP throughput --------------------------------
//
// Two measurements per instance:
//
//  * bcp-probe (primary): a fixed rotation of probe_assume() decisions
//    propagated to fixpoint with no clause learning, so the props/s
//    figure isolates the propagation machinery itself — the standard way
//    to benchmark BCP.
//  * full-solve: a real budgeted solve; status/work/props recorded for
//    the end-to-end trajectory, props/s over time spent in propagate().

struct BaselineCase {
  std::string name;
  cnf::CnfFormula formula;
  /// Extra binary clauses mixed into the formula — models the
  /// shared-clause population of a distributed run (GridSAT clients
  /// exchange short learned clauses; the population is overwhelmingly
  /// binary).
  std::vector<cnf::Clause> shared_binaries;
};

/// At-most-one groups over random variable subsets: group of size k adds
/// C(k,2) binaries (~a | ~b). This is the binary structure real encodings
/// carry (cardinality constraints, the hole axioms of pigeonhole) and the
/// shape shared learned binaries cluster into — each member literal ends
/// up with a k-1 entry implication list rather than the Poisson(~1) lists
/// uniform random 2-SAT would give.
std::vector<cnf::Clause> amo_groups(cnf::Var nv, int groups, int group_size,
                                    unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<cnf::Var> pick(1, nv);
  std::vector<cnf::Clause> out;
  for (int g = 0; g < groups; ++g) {
    std::vector<cnf::Var> members;
    while (members.size() < static_cast<std::size_t>(group_size)) {
      const cnf::Var v = pick(rng);
      if (std::find(members.begin(), members.end(), v) == members.end()) {
        members.push_back(v);
      }
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        out.push_back({cnf::Lit(members[i], true), cnf::Lit(members[j], true)});
      }
    }
  }
  return out;
}

struct BaselineRow {
  std::string instance;
  std::string measurement;  ///< "bcp-probe", "full-solve" or "db-probe"
  bool minimize_learned = false;
  std::string minimize;  ///< "off" or "recursive"
  std::string status;
  std::uint64_t work = 0;
  std::uint64_t propagations = 0;
  std::uint64_t binary_propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t learned_literals = 0;
  double wall_ms = 0.0;
  double propagation_ms = 0.0;
  double props_per_sec = 0.0;  ///< propagations per second of BCP time
};

/// The two learned-clause minimization tiers of the --minimize flag and
/// the minimize_ablation rows. "recursive" is the shipping default and
/// includes binary-resolution strengthening; "off" is the paper-era
/// baseline.
solver::SolverConfig minimize_mode_config(std::string_view mode) {
  solver::SolverConfig config;
  config.minimize_learned = mode != "off";
  return config;
}

bool valid_minimize_mode(std::string_view mode) {
  return mode == "off" || mode == "recursive";
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return (n % 2 != 0) ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Aggregate repeated shots of one (instance, measurement, config) cell.
/// Search statistics are deterministic across repeats — only the clock
/// readings vary — so the aggregate keeps the first shot's counters and
/// takes the MEDIAN of each timing field (a min-of-repeats policy is
/// noise-seeking: on a loaded machine one cell's min can land in a quiet
/// window while a neighbour's shots all hit load spikes).
BaselineRow median_row(const std::vector<BaselineRow>& shots) {
  BaselineRow row = shots.front();
  std::vector<double> wall;
  std::vector<double> bcp;
  wall.reserve(shots.size());
  bcp.reserve(shots.size());
  for (const BaselineRow& s : shots) {
    wall.push_back(s.wall_ms);
    bcp.push_back(s.propagation_ms);
  }
  row.wall_ms = median_of(std::move(wall));
  row.propagation_ms = median_of(std::move(bcp));
  row.props_per_sec = row.propagation_ms > 0.0
                          ? static_cast<double>(row.propagations) * 1000.0 /
                                row.propagation_ms
                          : 0.0;
  return row;
}

/// One timed probe shot. The round COUNT is fixed up front (derived only
/// from the props target and instance size) so every shot replays the
/// identical decision sequence.
BaselineRow probe_once(const BaselineCase& c, const cnf::CnfFormula& f,
                       std::uint64_t rounds) {
  BaselineRow row;
  row.instance = c.name;
  row.measurement = "bcp-probe";
  row.status = "PROBE";
  solver::SolverConfig config;
  // Rate over time inside propagate() itself (one clock pair per
  // decision — noise floor at these instance sizes), so the probe
  // bookkeeping (assume loop, conflict backtracks, heap reinserts) can't
  // dilute it.
  config.measure_propagation = true;
  solver::CdclSolver solver(f, config);
  const cnf::Var nv = f.num_vars();
  const auto start = std::chrono::steady_clock::now();
  // Rotate decisions over all variables, alternating polarity by round.
  for (std::uint64_t round = 0; round < rounds; ++round) {
    for (cnf::Var v = 1; v <= nv; ++v) {
      // On conflict, clear the trail and keep sweeping from the next
      // variable so every round walks the full variable range.
      if (!solver.probe_assume(cnf::Lit(v, ((v + round) & 1) == 0))) {
        solver.probe_reset();
      }
    }
    solver.probe_reset();
  }
  row.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  row.work = solver.stats().work;
  row.propagations = solver.stats().propagations;
  row.binary_propagations = solver.stats().binary_propagations;
  row.propagation_ms =
      static_cast<double>(solver.stats().propagation_ns) * 1e-6;
  row.props_per_sec = row.propagation_ms > 0.0
                          ? static_cast<double>(row.propagations) * 1000.0 /
                                row.propagation_ms
                          : 0.0;
  return row;
}

/// One timed budgeted solve. Deterministic: every shot of a config
/// produces identical search statistics; only the timings vary.
BaselineRow solve_once(const BaselineCase& c, const cnf::CnfFormula& f,
                       std::string_view minimize, std::uint64_t budget) {
  BaselineRow row;
  row.instance = c.name;
  row.measurement = "full-solve";
  row.minimize = minimize;
  solver::SolverConfig config = minimize_mode_config(minimize);
  row.minimize_learned = config.minimize_learned;
  config.measure_propagation = true;
  solver::CdclSolver solver(f, config);
  const auto start = std::chrono::steady_clock::now();
  const solver::SolveStatus status = solver.solve(budget);
  row.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  row.status = solver::to_string(status);
  row.work = solver.stats().work;
  row.propagations = solver.stats().propagations;
  row.binary_propagations = solver.stats().binary_propagations;
  row.conflicts = solver.stats().conflicts;
  row.learned_literals = solver.stats().learned_literals;
  row.propagation_ms =
      static_cast<double>(solver.stats().propagation_ns) * 1e-6;
  // Throughput over time spent in propagate() itself: the quantity the
  // BCP overhaul targets, undiluted by conflict analysis and heap work.
  row.props_per_sec = row.propagation_ms > 0.0
                          ? static_cast<double>(row.propagations) * 1000.0 /
                                row.propagation_ms
                          : 0.0;
  return row;
}

int run_baseline(int argc, char** argv) {
  util::Flags flags;
  flags.define_bool("baseline", false, "run the fixed-work throughput baseline");
  flags.define_str("json", "BENCH_solver.json", "write results to this file");
  flags.define_bool("quick", false, "smaller work budget (CI smoke)");
  flags.define_i64("budget", 0, "work units per run (0 = default)");
  flags.define_i64("repeats", 5, "timed repeats; reported times = median");
  flags.define_str("minimize", "recursive",
                   "minimization tier in full-solve runs: off|recursive");
  if (!flags.parse(argc, argv) || !valid_minimize_mode(flags.str("minimize"))) {
    std::fputs(flags.usage("bench_solver_micro").c_str(), stderr);
    return 2;
  }
  const bool quick = flags.boolean("quick");
  const std::uint64_t budget =
      flags.i64("budget") > 0 ? static_cast<std::uint64_t>(flags.i64("budget"))
                              : (quick ? 1'000'000 : 8'000'000);
  const std::uint64_t target_props = quick ? 200'000 : 500'000;
  const int repeats =
      quick ? 3 : std::max(1, static_cast<int>(flags.i64("repeats")));

  std::vector<BaselineCase> cases;
  // The random-3SAT formulas carry an at-most-one binary population
  // (amo_groups above), modelling the shared-clause traffic of a
  // distributed GridSAT run; pigeonhole's hole axioms are the same
  // structure taken to the extreme. Instances are sized so clause DB plus
  // watch structures overflow L2: the binary store's enqueue path never
  // touches the arena, so its advantage over blockered watchers scales
  // with DB coldness — the regime a long-running distributed solve with a
  // large learned/imported DB lives in (see DESIGN.md §4a).
  cases.push_back({"random3sat-v100000-r4.2",
                   gen::random_ksat(100000, 420000, 3, 2003),
                   amo_groups(100000, 2000, 30, 17)});
  cases.push_back({"random3sat-v50000-r4.2",
                   gen::random_ksat(50000, 210000, 3, 7),
                   amo_groups(50000, 2500, 20, 23)});
  cases.push_back({"pigeonhole-160", gen::pigeonhole_unsat(160), {}});
  cases.push_back({"pigeonhole-120", gen::pigeonhole_unsat(120), {}});

  util::JsonWriter json;
  json.begin_object()
      .field("bench", "bench_solver_micro")
      .field("mode", "baseline")
      .field("work_budget", budget)
      .field("repeats", static_cast<std::int64_t>(repeats))
      .field("aggregate", "median")
      .key("rows")
      .begin_array();
  std::printf("%-24s %-11s %-8s %12s %12s %10s %10s %14s\n", "instance",
              "measure", "status", "props", "bin_props", "wall_ms", "bcp_ms",
              "props/s");
  const auto emit_row = [&json](const BaselineRow& row) {
    std::printf("%-24s %-11s %-8s %12llu %12llu %10.1f %10.1f %14.0f\n",
                row.instance.c_str(), row.measurement.c_str(),
                row.status.c_str(),
                static_cast<unsigned long long>(row.propagations),
                static_cast<unsigned long long>(row.binary_propagations),
                row.wall_ms, row.propagation_ms, row.props_per_sec);
    json.begin_object()
        .field("instance", row.instance)
        .field("measurement", row.measurement)
        .field("minimize_learned", row.minimize_learned)
        .field("minimize", row.minimize)
        .field("status", row.status)
        .field("work", row.work)
        .field("propagations", row.propagations)
        .field("binary_propagations", row.binary_propagations)
        .field("wall_ms", row.wall_ms)
        .field("propagation_ms", row.propagation_ms)
        .field("props_per_sec", row.props_per_sec)
        .end_object();
  };
  for (const BaselineCase& c : cases) {
    cnf::CnfFormula f = c.formula;
    for (const cnf::Clause& cl : c.shared_binaries) f.add_clause(cl);
    const std::uint64_t rounds = std::max<std::uint64_t>(
        1, target_props / std::max<cnf::Var>(1, f.num_vars()));
    // Each cell reports the MEDIAN of its repeats (see median_row).
    std::vector<BaselineRow> probe_shots;
    std::vector<BaselineRow> solve_shots;
    for (int rep = 0; rep < repeats; ++rep) {
      probe_shots.push_back(probe_once(c, f, rounds));
      solve_shots.push_back(solve_once(c, f, flags.str("minimize"), budget));
    }
    emit_row(median_row(probe_shots));
    emit_row(median_row(solve_shots));
  }
  json.end_array().end_object();

  const std::string& path = flags.str("json");
  if (!path.empty()) {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::fputs(json.str().c_str(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("\nwrote %s\n", path.c_str());
  }
  return 0;
}

// Minimization-tier ablation (DESIGN.md §4f): budgeted full solves on
// learning-heavy instances under the two --minimize tiers,
// interleaved within each repeat so load drift cancels, medians reported.
// Rows carry "bench":"minimize_ablation" so they can share a JSON file
// with the --baseline object (use --append; the file then holds one JSON
// object per run, newline-separated).
//
//   ./bench_solver_micro --minimize-ablation [--json=...] [--append]
//       [--quick]
int run_minimize_ablation(int argc, char** argv) {
  util::Flags flags;
  flags.define_bool("minimize-ablation", false,
                    "run the minimization-tier ablation");
  flags.define_str("json", "BENCH_solver.json", "write results to this file");
  flags.define_bool("append", false, "append to --json instead of truncating");
  flags.define_bool("quick", false, "smaller work budget (CI smoke)");
  flags.define_i64("budget", 0, "work units per run (0 = default)");
  flags.define_i64("repeats", 5, "timed repeats; reported times = median");
  if (!flags.parse(argc, argv)) {
    std::fputs(flags.usage("bench_solver_micro").c_str(), stderr);
    return 2;
  }
  const bool quick = flags.boolean("quick");
  const std::uint64_t budget =
      flags.i64("budget") > 0 ? static_cast<std::uint64_t>(flags.i64("budget"))
                              : (quick ? 1'000'000 : 8'000'000);
  const int repeats =
      quick ? 3 : std::max(1, static_cast<int>(flags.i64("repeats")));

  // Conflict-heavy instances: minimization only matters where learned
  // clauses pile up, so the cache-cold BCP giants of --baseline would
  // measure nothing here. Pigeonhole and Urquhart burn their whole budget
  // in conflicts; the threshold random-3SAT rows add variable-rich mixes.
  // All are sized to stay UNKNOWN at the work budget so every tier grows
  // a comparable database.
  std::vector<BaselineCase> cases;
  cases.push_back({"pigeonhole-10", gen::pigeonhole_unsat(10), {}});
  cases.push_back({"pigeonhole-12", gen::pigeonhole_unsat(12), {}});
  cases.push_back({"urquhart-16", gen::urquhart_like(16, 3), {}});
  cases.push_back(
      {"random3sat-v300-r4.25", gen::random_ksat(300, 1275, 3, 42), {}});
  cases.push_back(
      {"random3sat-v500-r4.25", gen::random_ksat(500, 2125, 3, 9), {}});

  static constexpr std::string_view kModes[] = {"off", "recursive"};
  constexpr int kNumModes = static_cast<int>(std::size(kModes));
  util::JsonWriter json;
  json.begin_object()
      .field("bench", "minimize_ablation")
      .field("work_budget", budget)
      .field("repeats", static_cast<std::int64_t>(repeats))
      .field("aggregate", "median")
      .key("rows")
      .begin_array();
  std::printf("%-24s %-10s %-10s %-8s %10s %12s %12s %10s %10s %14s\n",
              "instance", "measure", "minimize", "status", "conflicts",
              "learned_lits", "props", "wall_ms", "bcp_ms", "props/s");
  const auto emit_row = [&json](const BaselineRow& row) {
    std::printf(
        "%-24s %-10s %-10s %-8s %10llu %12llu %12llu %10.1f %10.1f %14.0f\n",
        row.instance.c_str(), row.measurement.c_str(), row.minimize.c_str(),
        row.status.c_str(), static_cast<unsigned long long>(row.conflicts),
        static_cast<unsigned long long>(row.learned_literals),
        static_cast<unsigned long long>(row.propagations), row.wall_ms,
        row.propagation_ms, row.props_per_sec);
    json.begin_object()
        .field("bench", "minimize_ablation")
        .field("instance", row.instance)
        .field("measurement", row.measurement)
        .field("minimize", row.minimize)
        .field("minimize_learned", row.minimize_learned)
        .field("status", row.status)
        .field("work", row.work)
        .field("conflicts", row.conflicts)
        .field("learned_literals", row.learned_literals)
        .field("propagations", row.propagations)
        .field("wall_ms", row.wall_ms)
        .field("propagation_ms", row.propagation_ms)
        .field("props_per_sec", row.props_per_sec)
        .end_object();
  };
  // The geomean gate is computed over the db-probe rows: a full solve's
  // props/s confounds BCP throughput with the (config-dependent) search
  // trajectory, while the probe replays one fixed decision sweep over
  // whatever database each tier built — the clause-length and footprint
  // effect of minimization, isolated from the search it steered.
  double geomean[kNumModes] = {};
  for (const BaselineCase& c : cases) {
    const std::uint64_t rounds = std::max<std::uint64_t>(
        1, (quick ? 200'000 : 500'000) /
               std::max<cnf::Var>(1, c.formula.num_vars()));
    std::vector<BaselineRow> solve_shots[kNumModes];
    std::vector<BaselineRow> probe_shots[kNumModes];
    for (int rep = 0; rep < repeats; ++rep) {
      for (int m = 0; m < kNumModes; ++m) {
        // Build the tier's database with a budgeted solve (timed: the
        // full-solve row), then sweep the fixed probe over it.
        solver::SolverConfig config = minimize_mode_config(kModes[m]);
        config.measure_propagation = true;
        solver::CdclSolver solver(c.formula, config);
        BaselineRow row;
        row.instance = c.name;
        row.measurement = "full-solve";
        row.minimize = kModes[m];
        row.minimize_learned = config.minimize_learned;
        auto start = std::chrono::steady_clock::now();
        row.status = solver::to_string(solver.solve(budget));
        row.wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        row.work = solver.stats().work;
        row.propagations = solver.stats().propagations;
        row.conflicts = solver.stats().conflicts;
        row.learned_literals = solver.stats().learned_literals;
        row.propagation_ms =
            static_cast<double>(solver.stats().propagation_ns) * 1e-6;
        row.props_per_sec =
            row.propagation_ms > 0.0
                ? static_cast<double>(row.propagations) * 1000.0 /
                      row.propagation_ms
                : 0.0;
        solve_shots[m].push_back(row);

        BaselineRow probe = row;
        probe.measurement = "db-probe";
        probe.status = "PROBE";
        solver.probe_reset();
        const std::uint64_t props0 = solver.stats().propagations;
        const std::uint64_t ns0 = solver.stats().propagation_ns;
        const std::uint64_t work0 = solver.stats().work;
        const cnf::Var nv = c.formula.num_vars();
        start = std::chrono::steady_clock::now();
        for (std::uint64_t round = 0; round < rounds; ++round) {
          for (cnf::Var v = 1; v <= nv; ++v) {
            if (!solver.probe_assume(cnf::Lit(v, ((v + round) & 1) == 0))) {
              solver.probe_reset();
            }
          }
          solver.probe_reset();
        }
        probe.wall_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        probe.work = solver.stats().work - work0;
        probe.propagations = solver.stats().propagations - props0;
        probe.propagation_ms =
            static_cast<double>(solver.stats().propagation_ns - ns0) * 1e-6;
        probe.props_per_sec =
            probe.propagation_ms > 0.0
                ? static_cast<double>(probe.propagations) * 1000.0 /
                      probe.propagation_ms
                : 0.0;
        probe_shots[m].push_back(probe);
      }
    }
    for (int m = 0; m < kNumModes; ++m) {
      emit_row(median_row(solve_shots[m]));
      const BaselineRow probe = median_row(probe_shots[m]);
      emit_row(probe);
      geomean[m] += std::log(std::max(probe.props_per_sec, 1.0));
    }
  }
  json.end_array().key("geomean_probe_props_per_sec").begin_object();
  std::printf("\ndb-probe props/s geomean by minimization tier:\n");
  for (int m = 0; m < kNumModes; ++m) {
    const double g = std::exp(geomean[m] / static_cast<double>(cases.size()));
    std::printf("  %-10s %14.0f\n", std::string(kModes[m]).c_str(), g);
    json.field(std::string(kModes[m]), g);
  }
  json.end_object().end_object();

  const std::string& path = flags.str("json");
  if (!path.empty()) {
    std::FILE* out =
        std::fopen(path.c_str(), flags.boolean("append") ? "a" : "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::fputs(json.str().c_str(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("\n%s %s\n", flags.boolean("append") ? "appended to" : "wrote",
                path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--minimize-ablation") {
      return run_minimize_ablation(argc, argv);
    }
  }
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--baseline") {
      return run_baseline(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
