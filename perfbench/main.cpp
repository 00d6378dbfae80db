// GridSAT benchmark: host time to a checked verdict.
//
//   gridbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (each a closed loop with one caller, single-threaded):
//   flat_ph9_100        pigeonhole-9 on a 100-client synthetic grid, flat
//                       master (the table2_scale flat 100-client row);
//   hier_certify_urq15  urquhart-15 on the same grid under 8 sub-masters,
//                       heavy incremental checkpoints, two client kills,
//                       proof logging, then Campaign::certify();
//   seq_solve           the sequential comparator (core::run_sequential)
//                       on pigeonhole-9 and random3sat-v250-s1.
// The seed drives the synthetic grid (and so the comparator's host) and
// GridSatConfig::seed. --seconds alone sets how many operations a run
// makes; campaign runs measure several grids and report medians (see
// grid_seed). Every operation's verdict is checked, and its
// simulated fixed point (virtual seconds, splits, messages, wire bytes,
// sim events, work, proof steps) must repeat exactly for its grid.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced operations (tracer and metric registry attached, spans
// recorded here around each layer call), replays the ship path, and prints
// the per-layer metrics. The last stdout line is one JSON object.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cnf/formula.hpp"
#include "core/campaign.hpp"
#include "core/sequential.hpp"
#include "core/testbeds.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "gen/xor_chains.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using gridsat::cnf::CnfFormula;
namespace core = gridsat::core;
namespace gen = gridsat::gen;
namespace obs = gridsat::obs;
namespace solver = gridsat::solver;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- spans ----------------------------------------------------------------

/// In-memory span log for the traced run: each span has a name, a start,
/// an end and the span that was open when it began. Printed at exit with
/// each span's self time (its duration minus its children's).
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, const char* name) : log_(log) {
      if (log_ != nullptr) id_ = log_->open(name);
    }
    ~Scope() {
      if (log_ != nullptr) log_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t id_ = 0;
  };

  /// One line per span name: count, total and self milliseconds.
  void print() const {
    struct Total {
      std::size_t count = 0;
      double total = 0.0;
      double self = 0.0;
    };
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, Total> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Total& t = by_name[path(i)];
      ++t.count;
      t.total += spans_[i].end - spans_[i].start;
      t.self += spans_[i].end - spans_[i].start - child_time[i];
    }
    std::printf("spans (%zu recorded):\n", spans_.size());
    std::printf("  %-40s %6s %12s %12s\n", "span", "count", "total_ms", "self_ms");
    for (const auto& [name, t] : by_name) {
      std::printf("  %-40s %6zu %12.3f %12.3f\n", name.c_str(), t.count,
                  t.total * 1e3, t.self * 1e3);
    }
  }

 private:
  struct Span {
    const char* name;
    std::ptrdiff_t parent;
    double start;
    double end;
  };

  std::size_t open(const char* name) {
    const std::ptrdiff_t parent =
        open_.empty() ? -1 : static_cast<std::ptrdiff_t>(open_.back());
    spans_.push_back({name, parent, seconds_since(epoch_), 0.0});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t id) {
    spans_[id].end = seconds_since(epoch_);
    open_.pop_back();
  }
  [[nodiscard]] std::string path(std::size_t i) const {
    std::string p = spans_[i].name;
    for (std::ptrdiff_t up = spans_[i].parent; up >= 0;
         up = spans_[static_cast<std::size_t>(up)].parent) {
      p = std::string(spans_[static_cast<std::size_t>(up)].name) + "/" + p;
    }
    return p;
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// --- workloads --------------------------------------------------------------

enum class Kind { kFlat, kHier, kSeq };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  /// Typical host seconds of one operation on the machine the benchmark
  /// was tuned on; --seconds / this sets how many operations a run makes.
  double nominal_op_s;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"flat_ph9_100", Kind::kFlat, 10.0},
    {"hier_certify_urq15", Kind::kHier, 10.0},
    {"seq_solve", Kind::kSeq, 8.0},
};

constexpr std::size_t kGridHosts = 100;
constexpr std::size_t kGridSites = 8;
/// Campaigns per step on hier_certify_urq15, and the distinct grids they
/// cycle over. Only the first campaign, on the run's own grid, is
/// certified: certify costs ten campaigns or more.
constexpr int kHierCampaignsPerStep = 10;
constexpr std::uint64_t kHierGrids = 10;

/// hier_certify_urq15 kills one busy client at each of these virtual
/// seconds, before every grid's verdict (about 75 s).
constexpr double kHierKills[] = {40.0, 60.0};

/// Kill, at virtual time `at`, the lowest-index client that has held the
/// same subproblem since `at - 5` s. Such a tenancy has shipped a
/// checkpoint, so the master recovers it instead of ending the run in
/// ERROR; a fixed victim would be busy without one on a few grids in a
/// thousand.
void schedule_checkpointed_kill(core::Campaign& campaign, double at) {
  using Seen = std::vector<std::pair<const solver::CdclSolver*, std::uint64_t>>;
  auto seen = std::make_shared<Seen>();
  const auto tenancy = [&campaign](std::size_t host) {
    core::Client* c = campaign.client(host);
    const solver::CdclSolver* s = c != nullptr && c->alive() ? c->solver() : nullptr;
    return std::pair{s, s != nullptr ? s->stats().work : 0};
  };
  campaign.engine().schedule_at(at - 5.0, [&campaign, seen, tenancy] {
    for (std::size_t i = 0; i < campaign.num_hosts(); ++i) seen->push_back(tenancy(i));
  });
  campaign.engine().schedule_at(at, [&campaign, seen, tenancy, at] {
    for (std::size_t i = 0; i < seen->size(); ++i) {
      const auto [s, work] = tenancy(i);
      if (s != nullptr && s == (*seen)[i].first && work > (*seen)[i].second) {
        campaign.schedule_client_failure(i, at);
        return;
      }
    }
  });
}

/// The table2_scale campaign configuration (bench_simcore run_scale_row),
/// plus the hierarchical workload's sharing, proof and checkpoint knobs.
core::GridSatConfig campaign_config(Kind kind, std::uint64_t seed) {
  core::GridSatConfig config;
  config.solver.reduce_base = 1u << 30;
  config.share_max_len = 3;
  config.split_timeout_s = 5.0;
  config.overall_timeout_s = 50000.0;
  config.min_client_memory = 1 << 20;
  config.seed = seed;
  if (kind == Kind::kHier) {
    config.sub_masters = 8;
    config.share_max_len = 10;
    config.solver.log_proof = true;
    config.checkpoint = core::CheckpointMode::kHeavy;
    config.checkpoint_interval_s = 30.0;
    config.recover_from_checkpoints = true;
  }
  return config;
}

CnfFormula random3sat_v250() {
  // random3sat-v250-s1: ratio 4.26, the k=3 phase transition; SAT.
  return gen::random_ksat(250, static_cast<std::size_t>(250 * 4.26), 3, 1);
}

/// The simulation's outputs that a host-only change must leave identical.
struct FixedPoint {
  std::string verdict;
  double virtual_s = 0.0;
  std::uint64_t splits = 0;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t work = 0;
  std::uint64_t proof_steps = 0;

  friend bool operator==(const FixedPoint&, const FixedPoint&) = default;
};

/// Observers attached to a traced operation.
struct Observers {
  obs::Tracer tracer{1u << 12, obs::Tracer::Clock::kManual};
  obs::MetricRegistry metrics;
};

/// One prepared operation: inputs generated and the Campaign (or the
/// comparator's options) built. Member order keeps the observers alive
/// until the campaign that points at them is gone.
struct Prepared {
  std::unique_ptr<Observers> observers;
  std::vector<CnfFormula> formulas;
  std::unique_ptr<core::Campaign> campaign;
  core::SequentialOptions sequential;
  double gen_s = 0.0;
  double ctor_s = 0.0;
  [[nodiscard]] double setup_s() const { return gen_s + ctor_s; }
};

Prepared prepare(Kind kind, std::uint64_t seed, bool traced, SpanLog* spans) {
  SpanLog::Scope setup_span(spans, "setup");
  Prepared p;
  std::vector<gridsat::sim::HostSpec> hosts;
  auto t = Clock::now();
  {
    SpanLog::Scope span(spans, "gen");
    switch (kind) {
      case Kind::kFlat:
        p.formulas.push_back(gen::pigeonhole_unsat(9));
        break;
      case Kind::kHier:
        p.formulas.push_back(gen::urquhart_like(15, 1));
        break;
      case Kind::kSeq:
        p.formulas.push_back(gen::pigeonhole_unsat(9));
        p.formulas.push_back(random3sat_v250());
        break;
    }
    hosts = core::testbeds::synthetic_grid(kGridHosts, kGridSites, seed);
  }
  p.gen_s = seconds_since(t);
  t = Clock::now();
  SpanLog::Scope ctor_span(spans, "ctor");
  if (kind == Kind::kSeq) {
    // The comparator runs on the seeded grid's fastest host, dedicated,
    // with the grads34 comparator's clause budget: the budget steers the
    // search (DB squeezes), and a grid host's 1 to 4 MiB would make the
    // solve's cost depend on which host the seed picked.
    gridsat::sim::HostSpec fastest = hosts.front();
    for (const auto& h : hosts) {
      if (h.speed > fastest.speed) fastest = h;
    }
    fastest.base_load = 0.0;
    fastest.load_jitter = 0.0;
    fastest.memory_bytes = core::testbeds::fastest_dedicated().memory_bytes;
    p.sequential.host = fastest;
    // A synthetic-grid host is slower than the grads34 comparator host,
    // so lift the cap well past what either instance needs.
    p.sequential.timeout_s = 1e6;
    p.sequential.solver.seed = seed;
    // run_sequential builds its solver from these; build them here once
    // so set-up covers solver construction on every workload.
    for (const CnfFormula& f : p.formulas) {
      solver::SolverConfig config = p.sequential.solver;
      config.memory_limit_bytes = fastest.memory_bytes;
      const solver::CdclSolver built(f, config);
      (void)built;
    }
  } else {
    p.campaign = std::make_unique<core::Campaign>(
        p.formulas.front(), "grid0", std::move(hosts), campaign_config(kind, seed));
    if (kind == Kind::kHier) {
      for (const double at : kHierKills) schedule_checkpointed_kill(*p.campaign, at);
    }
    if (traced) {
      p.observers = std::make_unique<Observers>();
      p.observers->tracer.set_enabled(true);
      p.campaign->set_tracer(&p.observers->tracer);
      p.campaign->set_metrics(&p.observers->metrics);
    }
  }
  p.ctor_s = seconds_since(t);
  return p;
}

struct OpResult {
  bool ok = true;
  std::string failure;
  double setup_s = 0.0;
  double gen_s = 0.0;
  double ctor_s = 0.0;
  double wall_s = 0.0;     ///< run() or the sequential solves
  double certify_s = 0.0;  ///< hier only
  bool certified = false;
  FixedPoint fixed;
  core::GridSatResult result;  ///< campaigns; proof dropped after certify
  std::size_t steps_checked = 0;
  std::map<std::string, double> counters;  ///< registry snapshot (traced)
  solver::SolverStats search;              ///< traced seq_solve only
  double search_s = 0.0;                   ///< traced seq_solve only

  void fail(const std::string& why) {
    if (ok) failure = why;
    ok = false;
  }
};

/// run_sequential's loop, with the solver's tracer and propagation timer
/// on, so the traced run can read the search layer's own statistics.
core::SequentialResult traced_sequential(const CnfFormula& formula,
                                         const core::SequentialOptions& options,
                                         obs::Tracer& tracer,
                                         solver::SolverStats& stats,
                                         double& solve_s) {
  solver::SolverConfig config = options.solver;
  config.memory_limit_bytes = options.host.memory_bytes;
  config.measure_propagation = true;
  solver::CdclSolver s(formula, config);
  s.set_tracer(&tracer, tracer.register_worker("seq"));
  const double speed = options.host.speed;
  const auto work_cap =
      static_cast<std::uint64_t>(std::max(1.0, options.timeout_s * speed));
  const std::uint64_t slice =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(speed));
  solver::SolveStatus status = solver::SolveStatus::kUnknown;
  const auto start = Clock::now();
  while (status == solver::SolveStatus::kUnknown && s.stats().work < work_cap) {
    status = s.solve(std::min(slice, work_cap - s.stats().work));
  }
  solve_s += seconds_since(start);
  core::SequentialResult r;
  r.status = status;
  r.work = s.stats().work;
  r.propagations = s.stats().propagations;
  r.seconds = static_cast<double>(s.stats().work) / speed;
  if (status == solver::SolveStatus::kSat) r.model = s.model();
  stats.propagations += s.stats().propagations;
  stats.conflicts += s.stats().conflicts;
  stats.work += s.stats().work;
  stats.propagation_ns += s.stats().propagation_ns;
  return r;
}

OpResult execute(Kind kind, Prepared& p, bool certify, SpanLog* spans) {
  OpResult op;
  op.gen_s = p.gen_s;
  op.ctor_s = p.ctor_s;
  op.setup_s = p.setup_s();
  if (kind == Kind::kSeq) {
    const bool traced = spans != nullptr;
    obs::Tracer tracer(1u << 12, obs::Tracer::Clock::kWall);
    tracer.set_enabled(true);
    std::vector<core::SequentialResult> rs;
    const auto start = Clock::now();
    {
      SpanLog::Scope span(spans, "solve");
      for (const CnfFormula& f : p.formulas) {
        rs.push_back(traced ? traced_sequential(f, p.sequential, tracer, op.search,
                                                op.search_s)
                            : core::run_sequential(f, p.sequential));
      }
    }
    op.wall_s = seconds_since(start);
    if (rs[0].status != solver::SolveStatus::kUnsat) {
      op.fail(std::string("pigeonhole-9 verdict ") + solver::to_string(rs[0].status));
    }
    if (rs[1].status != solver::SolveStatus::kSat) {
      op.fail(std::string("random3sat-v250-s1 verdict ") +
              solver::to_string(rs[1].status));
    } else if (!gridsat::cnf::is_model(p.formulas[1], rs[1].model)) {
      op.fail("random3sat-v250-s1 model does not satisfy the formula");
    }
    op.fixed.verdict = std::string(solver::to_string(rs[0].status)) + "+" +
                       solver::to_string(rs[1].status);
    for (const auto& r : rs) {
      op.fixed.virtual_s += r.seconds;
      op.fixed.work += r.work;
    }
    return op;
  }

  core::Campaign& campaign = *p.campaign;
  const auto start = Clock::now();
  {
    SpanLog::Scope span(spans, "run");
    op.result = campaign.run();
  }
  op.wall_s = seconds_since(start);
  const core::GridSatResult& r = op.result;
  if (kind == Kind::kHier && !r.proof_stitched) {
    op.fail("proof stitch failed: " + r.proof_error);
  }
  if (kind == Kind::kHier && certify) {
    SpanLog::Scope span(spans, "certify");
    const auto t = Clock::now();
    const solver::ProofCheckResult check = campaign.certify();
    op.certify_s = seconds_since(t);
    op.steps_checked = check.steps_checked;
    op.certified = true;
    if (!check.valid) op.fail("certify rejected the proof: " + check.message);
  }
  if (r.status != core::CampaignStatus::kUnsat) {
    op.fail(std::string("campaign verdict ") + core::to_string(r.status));
  }
  op.fixed.verdict = core::to_string(r.status);
  op.fixed.virtual_s = r.seconds;
  op.fixed.splits = r.total_splits;
  op.fixed.messages = r.messages;
  op.fixed.wire_bytes = r.bytes_transferred;
  op.fixed.sim_events = campaign.engine().events_fired();
  op.fixed.work = r.total_work;
  if (r.proof) op.fixed.proof_steps = r.proof->size();
  op.result.proof.reset();
  if (p.observers) {
    for (const auto& s : p.observers->metrics.snapshot()) op.counters[s.name] = s.value;
    // The registry is the program's own view of the same run: it must
    // agree with the result record and the engine.
    if (op.counters["sim.events_fired"] != static_cast<double>(op.fixed.sim_events) ||
        op.counters["campaign.messages"] != static_cast<double>(r.messages)) {
      op.fail("metric registry disagrees with the campaign result");
    }
  }
  return op;
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- the run ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 2003;
  double seconds = 10.0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || a.seconds <= 0.0) return std::nullopt;
  return a;
}

/// Set-up samples taken before the operations and again after each one
/// (each operation adds its own too): set-up takes well under a
/// millisecond, and a shared host's speed drifts during a run, so its
/// median needs many samples spread over the run.
constexpr int kSetupSamples = 8;

/// Reference grids a flat_ph9_100 run measures besides its own.
constexpr std::uint64_t kFlatReferenceGrids[] = {2003, 2004};

/// Grid of an untraced campaign run's i-th campaign; the run reports the
/// median over its campaigns, and its first campaign is on grid `seed`.
/// hier_certify_urq15 cycles over grids seed, seed + 1, ...: they differ
/// little in cost (75 to 82 virtual s) and its campaigns are cheap. A
/// flat_ph9_100 campaign's host time depends on its grid far more than
/// on the code (8.0 to 20.5 s over grids 1 to 12, IQR 0.41 of the
/// median: the grid reshapes the split tree), and a run has time for
/// three; three grids drawn from the seed would spread by about 0.21
/// across seeds. So a flat run measures its own grid and the fixed
/// reference grids 2003 (the committed table2_scale row) and 2004.
std::uint64_t grid_seed(Kind kind, std::uint64_t seed, std::uint64_t i) {
  if (kind == Kind::kHier) return seed + i % kHierGrids;
  constexpr std::size_t n = std::size(kFlatReferenceGrids);
  return i == 0 ? seed : kFlatReferenceGrids[(i - 1) % n];
}

int run(const WorkloadSpec& w, const Args& args) {
  const Kind kind = w.kind;
  const auto start = Clock::now();
  SpanLog span_log;
  SpanLog* spans = args.trace ? &span_log : nullptr;

  // Warm-up: page in the generators and allocator, untimed.
  prepare(kind, args.seed, false, nullptr);
  std::vector<double> setups;
  const auto sample_setups = [&] {
    for (int i = 0; i < kSetupSamples; ++i) {
      setups.push_back(prepare(kind, args.seed, false, nullptr).setup_s());
    }
  };
  sample_setups();

  // The work a run measures depends only on --seconds, never on how fast
  // this build runs, so a parent and a change measure the same campaigns.
  // A traced step is an untraced and a traced operation on one seed.
  const auto steps = static_cast<std::size_t>(std::max(
      1.0, std::floor(args.seconds / w.nominal_op_s / (args.trace ? 2.0 : 1.0))));

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::uint64_t, FixedPoint> fixed;               // by grid seed
  std::map<std::uint64_t, std::vector<OpResult>> by_seed;  // untraced ops
  std::optional<OpResult> traced;                          // the last one
  std::vector<double> traced_walls;
  const auto one_op = [&](std::uint64_t seed, bool with_trace, bool certify) {
    ++attempted;
    OpResult op;
    try {
      Prepared p = prepare(kind, seed, with_trace, with_trace ? spans : nullptr);
      op = execute(kind, p, certify, with_trace ? spans : nullptr);
    } catch (const std::exception& e) {
      op.fail(std::string("exception: ") + e.what());
    }
    if (op.ok) {
      const auto [it, first] = fixed.emplace(seed, op.fixed);
      if (!first && !(it->second == op.fixed)) {
        op.fail("simulated fixed point drifted between runs at one seed");
      }
    }
    if (!op.ok) {
      ++failed;
      std::fprintf(stderr, "%s: operation %llu (grid seed %llu) failed: %s\n", w.name,
                   static_cast<unsigned long long>(attempted),
                   static_cast<unsigned long long>(seed), op.failure.c_str());
    }
    setups.push_back(op.setup_s);
    return op;
  };
  std::uint64_t campaigns = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    if (args.trace || kind == Kind::kSeq) {
      // seq_solve's cost does not depend on the grid, and a traced step
      // compares two operations: both repeat the run's own seed.
      by_seed[args.seed].push_back(one_op(args.seed, false, i == 0));
      if (args.trace) {
        traced = one_op(args.seed, true, true);
        traced_walls.push_back(traced->wall_s);
      }
    } else {
      // hier_certify_urq15's campaign is short next to its certify: a
      // step runs several, for a steadier wall_s and, as the grids
      // repeat, a fixed-point check within the run.
      const int per_step = kind == Kind::kHier ? kHierCampaignsPerStep : 1;
      for (int r = 0; r < per_step; ++r, ++campaigns) {
        const std::uint64_t seed = grid_seed(kind, args.seed, campaigns);
        by_seed[seed].push_back(one_op(seed, false, campaigns == 0));
      }
    }
    sample_setups();
  }

  // Medians over the run's operations (on seq_solve all on one grid).
  std::vector<double> walls;
  std::vector<double> virtuals;
  std::vector<double> certifies;
  for (const auto& [seed, ops] : by_seed) {
    for (const OpResult& op : ops) {
      walls.push_back(op.wall_s);
      virtuals.push_back(op.fixed.virtual_s);
      if (op.certified) certifies.push_back(op.certify_s);
    }
  }
  const double wall_s = median(walls);
  const double virtual_s = median(virtuals);
  const double certify_s = median(certifies);
  std::printf("workload %s seed %llu: %llu operations on %zu grid seeds in %.1f s\n",
              w.name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(attempted), by_seed.size(),
              seconds_since(start));
  for (const auto& [seed, ops] : by_seed) {
    const FixedPoint& fp = fixed.count(seed) ? fixed.at(seed) : ops.front().fixed;
    std::printf("  grid seed %llu: wall_s", static_cast<unsigned long long>(seed));
    for (const OpResult& op : ops) std::printf(" %.4f", op.wall_s);
    for (const OpResult& op : ops) {
      if (op.certified) std::printf(", certify_s %.4f", op.certify_s);
    }
    std::printf("\n");
    // Machine-readable, for run.py's check across runs.
    std::printf("fixed_point %s seed=%llu verdict=%s virtual_s=%.17g splits=%llu "
                "messages=%llu wire_bytes=%llu sim_events=%llu work=%llu "
                "proof_steps=%llu\n",
                w.name, static_cast<unsigned long long>(seed), fp.verdict.c_str(),
                fp.virtual_s, static_cast<unsigned long long>(fp.splits),
                static_cast<unsigned long long>(fp.messages),
                static_cast<unsigned long long>(fp.wire_bytes),
                static_cast<unsigned long long>(fp.sim_events),
                static_cast<unsigned long long>(fp.work),
                static_cast<unsigned long long>(fp.proof_steps));
  }
  const auto q = quartiles(walls);
  std::printf("  wall_s %.4f s median, quartiles %.4f / %.4f over %zu operations\n",
              wall_s, q[0], q[2], walls.size());
  if (kind == Kind::kHier) {
    std::printf("  certify_s %.4f s (median)\n", certify_s);
  }
  std::printf("  fail_ratio %.4f (%llu of %llu operations failed)\n",
              fail_ratio(failed, attempted), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setups), "s"},
        {"wall_s", wall_s, "s"},
        {"virtual_s", virtual_s, "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
    };
  } else {
    const OpResult& t = *traced;
    // Ship-path replay on the workload's own instance and solver config
    // (seq_solve: pigeonhole-9, the instance flat_ph9_100 ships).
    const core::GridSatConfig cc =
        campaign_config(kind == Kind::kSeq ? Kind::kFlat : kind, args.seed);
    ReplayConfig rc;
    rc.solver = kind == Kind::kSeq ? solver::SolverConfig{} : cc.solver;
    rc.learned_budget_bytes = cc.split_learned_budget_bytes;
    rc.base_ref_caching = cc.base_ref_caching;
    rc.solver.measure_propagation = true;
    rc.solver.max_memory_squeezes = 0;
    rc.solver.memory_limit_bytes = 2u << 20;
    const double ship_count =
        static_cast<double>(t.result.total_splits + t.result.migrations +
                            t.result.checkpoint_recoveries);
    if (ship_count > 0) {
      rc.work_per_ship = static_cast<std::uint64_t>(
          static_cast<double>(t.fixed.work) / ship_count);
    }
    ReplayStats rs;
    {
      SpanLog::Scope span(spans, "replay");
      rs = replay_ship_path(kind == Kind::kHier ? gen::urquhart_like(15, 1)
                                                : gen::pigeonhole_unsat(9),
                            rc);
    }
    if (!rs.roundtrip_ok) {
      ++attempted;
      ++failed;
      std::fprintf(stderr, "%s: wire round trip lost data in the replay\n", w.name);
    }
    const double ships = static_cast<double>(rs.ships);
    const double per_ship_s = ratio(rs.split_s + rs.size_s + rs.rebuild_s, ships);
    const double trace_overhead_pct = 100.0 * (median(traced_walls) - wall_s) / wall_s;
    // Search layer: the sequential solve itself on seq_solve, the
    // replay's solve() slices on the campaign workloads.
    const bool seq = kind == Kind::kSeq;
    const double props = seq ? static_cast<double>(t.search.propagations)
                             : static_cast<double>(rs.propagations);
    const double conflicts = seq ? static_cast<double>(t.search.conflicts)
                                 : static_cast<double>(rs.conflicts);
    const double prop_ns = seq ? static_cast<double>(t.search.propagation_ns)
                               : static_cast<double>(rs.propagation_ns);
    const double search_s = seq ? t.search_s : rs.solve_s;
    const auto counter = [&t](const char* name) {
      const auto it = t.counters.find(name);
      return it == t.counters.end() ? 0.0 : it->second;
    };
    const core::GridSatResult& r = t.result;
    const auto u64 = [](std::uint64_t v) { return static_cast<double>(v); };
    metrics = {
        {"gen.instance_s", t.gen_s, "s"},
        {"core.ctor_s", t.ctor_s, "s"},
        {"search.props_per_s", ratio(props, search_s), "1/s"},
        {"search.conflicts_per_s", ratio(conflicts, search_s), "1/s"},
        {"search.work_units", u64(t.fixed.work), "count"},
        {"search.bcp_share", ratio(prop_ns * 1e-9, search_s), "1"},
        {"ship.count", ship_count, "count"},
        {"ship.replay_ships", ships, "count"},
        {"ship.split_ms", 1e3 * ratio(rs.split_s, ships), "ms"},
        {"ship.size_ms", 1e3 * ratio(rs.size_s, ships), "ms"},
        {"ship.wire_size_calls", u64(rs.wire_size_calls), "count"},
        {"ship.rebuild_ms", 1e3 * ratio(rs.rebuild_s, ships), "ms"},
        {"ship.payload_kb", ratio(u64(rs.full_bytes), ships) / 1024.0, "KiB"},
        {"ship.share", ratio(per_ship_s * ship_count, wall_s), "1"},
        {"wire.encode_ns_per_clause", 1e9 * ratio(rs.encode_s, u64(rs.clauses_coded)), "ns"},
        {"wire.decode_ns_per_clause", 1e9 * ratio(rs.decode_s, u64(rs.clauses_coded)), "ns"},
        {"wire.bytes_mb", u64(r.bytes_transferred) / (1024.0 * 1024.0), "MiB"},
        {"wire.base_ref_transfers", u64(r.base_ref_transfers), "count"},
        {"sim.events", counter("sim.events_fired"), "count"},
        {"sim.events_per_s", ratio(counter("sim.events_fired"), wall_s), "1/s"},
        {"sim.messages", counter("campaign.messages"), "count"},
        {"master.root_msgs", u64(r.root_messages_handled), "count"},
        {"master.sub_msgs", u64(r.sub_messages_handled), "count"},
        {"master.brokered_splits", u64(r.brokered_splits), "count"},
        {"share.relay_batches", u64(r.site_relay_batches), "count"},
        {"share.digests", u64(r.inter_site_digests), "count"},
        {"share.imported", counter("campaign.imports"), "count"},
        {"share.used_ratio",
         ratio(counter("campaign.imports_used"), counter("campaign.imports")), "1"},
        {"ckpt.full", u64(r.checkpoints_full), "count"},
        {"ckpt.delta", u64(r.checkpoints_delta), "count"},
        {"ckpt.recoveries", u64(r.checkpoint_recoveries), "count"},
        {"proof.log_steps", u64(t.fixed.proof_steps), "count"},
        {"proof.certify_s", certify_s, "s"},
        {"proof.check_steps_per_s", ratio(u64(t.steps_checked), t.certify_s), "1/s"},
        {"obs.trace_overhead_pct", trace_overhead_pct, "%"},
    };
    std::printf("  ship-path replay: %llu ships, %llu verdicts, %llu wire_size "
                "calls, %.1f KiB charged per ship; per ship %.4f ms split + "
                "%.4f ms size + %.4f ms rebuild\n",
                static_cast<unsigned long long>(rs.ships),
                static_cast<unsigned long long>(rs.verdicts),
                static_cast<unsigned long long>(rs.wire_size_calls),
                ratio(u64(rs.charged_bytes), ships) / 1024.0,
                1e3 * ratio(rs.split_s, ships), 1e3 * ratio(rs.size_s, ships),
                1e3 * ratio(rs.rebuild_s, ships));
    std::printf("  ship.share %.4f = %.4f ms per replayed ship x %.0f campaign "
                "ships / %.4f s wall_s (an estimate)\n",
                ratio(per_ship_s * ship_count, wall_s), per_ship_s * 1e3,
                ship_count, wall_s);
    std::printf("  trace overhead %.2f%%: traced wall %.4f s vs untraced %.4f s "
                "(medians of %zu pairs)\n",
                trace_overhead_pct, median(traced_walls), wall_s, traced_walls.size());
    span_log.print();
  }
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  if (args) {
    for (const auto& w : perfbench::kWorkloads) {
      if (args->workload == w.name) return perfbench::run(w, *args);
    }
  }
  std::fprintf(stderr,
               "usage: gridbench --workload flat_ph9_100|hier_certify_urq15|"
               "seq_solve --seed N --seconds S --trace 0|1\n");
  return 2;
}
