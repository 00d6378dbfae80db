// Ablation D (DESIGN.md): speedup vs resource-pool size, the §4.2 claim
// that "more resources ... can cover more of the search space during the
// same time".
//
// Two modes:
//
//  * --mode=threads (default): the real thread-parallel solver
//    (solver/parallel.*) on XOR-parity instances, sweeping thread counts
//    and reporting median wall time over --reps repeats, speedup vs the
//    1-thread row, and the clause-exchange counters (published / deduped
//    / imported / shard contention). With --json=FILE it writes one
//    JSON-Lines row per (instance, threads) cell — the committed
//    BENCH_parallel.json artifact (see ROADMAP.md). On the XOR-parity
//    family the speedup is ALGORITHMIC (splitting + sharing shrink total
//    work), so it holds even on a single physical core.
//  * --mode=sim: the original virtual-time campaign sweep over growing
//    prefixes of the GrADS-34 testbed.
//
//   ./bench_scaling
//   ./bench_scaling --quick --json=BENCH_parallel.json
//   ./bench_scaling --quick --trace=trace.json --metrics-every=50
//   ./bench_scaling --mode=sim --instance=rand_net50-60-5.cnf
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/campaign.hpp"
#include "core/sequential.hpp"
#include "core/testbeds.hpp"
#include "gen/suite.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/parallel.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

using namespace gridsat;  // NOLINT

namespace {

/// Largest value in a comma-separated thread list (0 when none parse).
long long max_threads_in(const std::string& list) {
  long long best = 0;
  for (const auto& token : util::split(list, ',')) {
    long long t = 0;
    if (util::parse_i64(token, t) && t > best) best = t;
  }
  return best;
}

/// One fully instrumented run: wall-clock tracer + metric registry on
/// `threads` workers, with an optional sampler thread folding registry
/// snapshots into the trace as Chrome counter tracks every
/// `metrics_every_ms`. Writes the Chrome trace JSON to `path`.
int run_traced(const cnf::CnfFormula& f, const std::string& instance,
               solver::ParallelOptions options, long long threads,
               long long metrics_every_ms, const std::string& path) {
  if (!obs::kTraceCompiledIn) {
    std::fprintf(stderr,
                 "--trace: tracer compiled out (GRIDSAT_TRACE=OFF); "
                 "no trace written\n");
    return 0;
  }
  options.num_threads = static_cast<std::size_t>(threads);
  obs::Tracer tracer(1u << 16, obs::Tracer::Clock::kWall);
  tracer.set_enabled(true);
  obs::MetricRegistry registry;
  // Register every lane before any thread can emit: registration mutates
  // the tracer's ring table, concurrent emission may not.
  for (long long i = 0; i < threads; ++i) {
    tracer.register_worker("worker-" + std::to_string(i));
  }
  const std::uint32_t sampler_lane = tracer.register_worker("sampler");
  options.tracer = &tracer;
  options.metrics = &registry;

  solver::ParallelSolver solver(f, options);
  std::atomic<bool> stop{false};
  std::thread sampler;
  if (metrics_every_ms > 0) {
    sampler = std::thread([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(metrics_every_ms));
        registry.snapshot_to(tracer, sampler_lane);
      }
    });
  }
  const solver::ParallelResult result = solver.solve();
  stop.store(true);
  if (sampler.joinable()) sampler.join();
  registry.snapshot_to(tracer, sampler_lane);  // final state, always

  if (!obs::write_chrome_trace(tracer, path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf(
      "\ninstrumented run: %s on %lld threads -> %s (verdict %s, "
      "%llu events, load via chrome://tracing)\n",
      instance.c_str(), threads, path.c_str(), to_string(result.status),
      static_cast<unsigned long long>(tracer.total_emitted()));
  return 0;
}

/// Tracing-cost measurement: median wall of `reps` runs with the tracer
/// attached-and-enabled vs detached. Returns the JSON-Lines row.
std::string measure_trace_overhead(const cnf::CnfFormula& f,
                                   const std::string& instance,
                                   solver::ParallelOptions options,
                                   long long threads, int reps) {
  options.num_threads = static_cast<std::size_t>(threads);

  std::vector<double> on_walls;
  std::vector<double> off_walls;
  for (int i = 0; i < reps; ++i) {
    obs::Tracer tracer(1u << 16, obs::Tracer::Clock::kWall);
    tracer.set_enabled(true);
    for (long long w = 0; w < threads; ++w) {
      tracer.register_worker("worker-" + std::to_string(w));
    }
    solver::ParallelOptions on = options;
    on.tracer = &tracer;
    on_walls.push_back(bench::run_parallel_once(f, on).wall_ms);
    off_walls.push_back(bench::run_parallel_once(f, options).wall_ms);
  }
  const double on_ms = bench::median_of(on_walls);
  const double off_ms = bench::median_of(off_walls);
  const double overhead_pct =
      off_ms > 0.0 ? (on_ms - off_ms) / off_ms * 100.0 : 0.0;
  std::printf(
      "\ntrace overhead: %s on %lld threads, %d reps: "
      "%.1f ms traced vs %.1f ms untraced (%+.2f%%)\n",
      instance.c_str(), threads, reps, on_ms, off_ms, overhead_pct);

  util::JsonWriter json;
  json.begin_object()
      .field("bench", "trace_overhead")
      .field("instance", instance)
      .field("threads", static_cast<std::int64_t>(threads))
      .field("reps", static_cast<std::int64_t>(reps))
      .field("wall_ms_trace_on", on_ms)
      .field("wall_ms_trace_off", off_ms)
      .field("overhead_pct", overhead_pct)
      .end_object();
  return json.str() + '\n';
}

int run_threads_mode(const util::Flags& flags) {
  const bool quick = flags.boolean("quick");
  std::string instances = flags.str("instances");
  if (instances.empty()) {
    instances = quick ? "urquhart-14,urquhart-15" : "urquhart-16,urquhart-18";
  }
  const int reps = quick ? 1 : std::max(1, static_cast<int>(flags.i64("reps")));

  std::string json_rows;
  cnf::CnfFormula probe_formula;  ///< first resolvable instance, reused by
  std::string probe_name;         ///< --trace / --trace-overhead
  std::printf("Thread-count scaling (reps=%d, median wall)\n\n", reps);
  std::printf("%-14s %-8s %-8s %12s %8s %11s %9s %9s %10s %9s\n", "instance",
              "threads", "verdict", "wall_ms", "speedup", "work", "splits",
              "published", "deduped", "imported");
  std::printf("%s\n", std::string(106, '-').c_str());

  for (const auto& name : util::split(instances, ',')) {
    cnf::CnfFormula f;
    try {
      f = bench::resolve_instance(name);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "skipping %s: %s\n", name.c_str(), e.what());
      continue;
    }
    if (probe_name.empty()) {
      probe_formula = f;
      probe_name = name;
    }
    double wall_1t = 0.0;
    for (const auto& token : util::split(flags.str("threads"), ',')) {
      long long threads = 0;
      if (!util::parse_i64(token, threads) || threads < 1) continue;
      solver::ParallelOptions options;
      options.num_threads = static_cast<std::size_t>(threads);
      options.share_max_len = static_cast<std::size_t>(flags.i64("share-len"));
      options.share_max_lbd = static_cast<std::uint32_t>(flags.i64("share-lbd"));
      if (flags.i64("slice") > 0) {
        options.slice_work = static_cast<std::uint64_t>(flags.i64("slice"));
      }
      const bench::ParallelRun run =
          bench::run_parallel_median(f, options, reps);
      if (threads == 1) wall_1t = run.wall_ms;
      const double speedup =
          (wall_1t > 0.0 && run.wall_ms > 0.0) ? wall_1t / run.wall_ms : 0.0;
      const solver::ParallelStats& s = run.result.stats;
      std::printf("%-14s %-8lld %-8s %12.1f %7.2fx %11llu %9llu %9llu %10llu %9llu\n",
                  name.c_str(), threads, to_string(run.result.status),
                  run.wall_ms, speedup,
                  static_cast<unsigned long long>(s.total_work),
                  static_cast<unsigned long long>(s.splits),
                  static_cast<unsigned long long>(s.clauses_published),
                  static_cast<unsigned long long>(s.clauses_deduped),
                  static_cast<unsigned long long>(s.clauses_imported));
      std::fflush(stdout);
      util::JsonWriter json;
      json.begin_object()
          .field("bench", "bench_scaling")
          .field("instance", name)
          .field("threads", static_cast<std::int64_t>(threads))
          .field("reps", static_cast<std::int64_t>(reps))
          .field("status", solver::to_string(run.result.status))
          .field("wall_ms", run.wall_ms)
          .field("speedup_vs_1t", speedup)
          .field("total_work", s.total_work)
          .field("splits", s.splits)
          .field("clauses_published", s.clauses_published)
          .field("clauses_deduped", s.clauses_deduped)
          .field("clauses_imported", s.clauses_imported)
          .field("shard_lock_contention", s.shard_lock_contention)
          .end_object();
      json_rows += json.str();
      json_rows += '\n';
    }
  }

  solver::ParallelOptions base_options;
  base_options.share_max_len = static_cast<std::size_t>(flags.i64("share-len"));
  base_options.share_max_lbd =
      static_cast<std::uint32_t>(flags.i64("share-lbd"));
  if (flags.i64("slice") > 0) {
    base_options.slice_work = static_cast<std::uint64_t>(flags.i64("slice"));
  }
  const long long probe_threads = max_threads_in(flags.str("threads"));

  if (flags.boolean("trace-overhead") && !probe_name.empty() &&
      probe_threads > 0) {
    json_rows += measure_trace_overhead(probe_formula, probe_name,
                                        base_options, probe_threads, reps);
  }

  const std::string& path = flags.str("json");
  if (!path.empty()) {
    std::FILE* out =
        std::fopen(path.c_str(), flags.boolean("append") ? "a" : "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::fputs(json_rows.c_str(), out);
    std::fclose(out);
    std::printf("\nwrote %s\n", path.c_str());
  }

  const std::string& trace_path = flags.str("trace");
  if (!trace_path.empty() && !probe_name.empty() && probe_threads > 0) {
    return run_traced(probe_formula, probe_name, base_options, probe_threads,
                      flags.i64("metrics-every"), trace_path);
  }
  return 0;
}

int run_sim_mode(const util::Flags& flags) {
  const auto& row = gen::suite::by_name(flags.str("instance"));
  const cnf::CnfFormula formula = row.make();

  core::SequentialOptions seq_options;
  seq_options.host = core::testbeds::fastest_dedicated();
  seq_options.timeout_s = 1e9;
  seq_options.solver.reduce_base = 1u << 30;
  const double seq_seconds = core::run_sequential(formula, seq_options).seconds;

  std::printf("Pool-size scaling on %s (%s)\n", row.paper_name.c_str(),
              row.analog.c_str());
  std::printf("sequential comparator (fastest dedicated host): %.0f s\n\n",
              seq_seconds);
  std::printf("%-8s %-10s %-10s %-10s %-10s %-8s %s\n", "hosts", "verdict",
              "seconds", "speedup", "efficiency", "splits", "max clients");
  std::printf("%s\n", std::string(76, '-').c_str());

  const auto all_hosts = core::testbeds::grads34();
  for (const auto& token : util::split(flags.str("pools"), ',')) {
    long long pool = 0;
    if (!util::parse_i64(token, pool) || pool < 1 ||
        pool > static_cast<long long>(all_hosts.size())) {
      continue;
    }
    const std::vector<sim::HostSpec> hosts(all_hosts.begin(),
                                           all_hosts.begin() + pool);
    core::GridSatConfig config;
    config.solver.reduce_base = 1u << 30;
    config.share_max_len = 10;
    config.split_timeout_s = 100.0;
    config.overall_timeout_s = 200000.0;
    config.min_client_memory = 1 << 20;
    config.seed = static_cast<std::uint64_t>(flags.i64("seed"));
    core::Campaign campaign(formula, core::testbeds::kMasterSite, hosts,
                            config);
    // With --trace, each sweep point overwrites the file: what remains is
    // the full-testbed (last) campaign's virtual-time trace.
    std::unique_ptr<obs::Tracer> tracer;
    if (!flags.str("trace").empty() && obs::kTraceCompiledIn) {
      tracer = std::make_unique<obs::Tracer>(1u << 16,
                                             obs::Tracer::Clock::kManual);
      tracer->set_enabled(true);
      campaign.set_tracer(tracer.get());
    }
    const core::GridSatResult result = campaign.run();
    if (tracer != nullptr) {
      obs::write_chrome_trace(*tracer, flags.str("trace"));
    }
    char speedup[24] = "-";
    char efficiency[24] = "-";
    if (result.status == core::CampaignStatus::kSat ||
        result.status == core::CampaignStatus::kUnsat) {
      std::snprintf(speedup, sizeof speedup, "%.2f",
                    seq_seconds / result.seconds);
      std::snprintf(efficiency, sizeof efficiency, "%.2f",
                    seq_seconds / result.seconds /
                        static_cast<double>(pool));
    }
    std::printf("%-8lld %-10s %-10.0f %-10s %-10s %-8llu %zu\n", pool,
                to_string(result.status), result.seconds, speedup, efficiency,
                static_cast<unsigned long long>(result.total_splits),
                result.max_active_clients);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define_str("mode", "threads", "threads | sim");
  // threads mode
  flags.define_str("instances", "",
                   "comma list for threads mode (default urquhart pair)");
  flags.define_str("threads", "1,2,4", "thread counts to sweep");
  flags.define_i64("reps", 3, "repeats per cell; wall = median");
  flags.define_i64("share-len", 8, "share filter: max clause length");
  flags.define_i64("share-lbd", 4, "share filter: max LBD");
  flags.define_i64("slice", 0, "work units between cooperation points (0 = default)");
  flags.define_bool("quick", false, "smaller instances, 1 rep (CI smoke)");
  flags.define_str("json", "", "write JSON-Lines rows to this file");
  flags.define_bool("append", false, "append to --json instead of truncating");
  // observability
  flags.define_str("trace", "",
                   "write a Chrome trace (chrome://tracing) of one "
                   "instrumented run: first instance, largest thread count");
  flags.define_i64("metrics-every", 0,
                   "sample the metric registry into the trace every N ms "
                   "(0 = only a final snapshot)");
  flags.define_bool("trace-overhead", false,
                    "measure tracing cost (on vs off) and emit a "
                    "\"trace_overhead\" JSON row");
  // sim mode
  flags.define_str("instance", "rand_net50-60-5.cnf",
                   "suite row to solve (sim mode)");
  flags.define_str("pools", "1,2,4,8,16,24,34", "pool sizes to sweep (sim)");
  flags.define_i64("seed", 2003, "campaign seed (sim)");
  if (!flags.parse(argc, argv)) {
    std::fputs(flags.usage("bench_scaling").c_str(), stderr);
    return 2;
  }
  const std::string& mode = flags.str("mode");
  if (mode == "sim") return run_sim_mode(flags);
  if (mode != "threads") {
    std::fprintf(stderr, "unknown --mode=%s (threads | sim)\n", mode.c_str());
    return 2;
  }
  return run_threads_mode(flags);
}
