// Ablation B (DESIGN.md): the split-timeout heuristic and the "ping-pong"
// effect (§3.1) — "it is possible for subproblems to be investigated in
// such a short amount of time that the overhead associated with spawning
// them cannot be amortized".
//
// Sweeps the split timeout on (a) an *easy* instance, where aggressive
// splitting makes the parallel solver slower than one machine (the
// ping-pong regime and the paper's sub-1.0 speedups on small instances),
// and (b) a *hard* instance, where a too-conservative timeout starves the
// grid. The paper's 100 s sits between the regimes. Each row carries the
// campaign's bytes on the wire. With --json=FILE it appends
// "bench":"pingpong" JSON-Lines rows.
//
//   ./bench_pingpong
//   ./bench_pingpong --json=BENCH_parallel.json --append
#include <cstdio>
#include <string>

#include "core/campaign.hpp"
#include "core/sequential.hpp"
#include "core/testbeds.hpp"
#include "gen/suite.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

using namespace gridsat;  // NOLINT

namespace {

core::GridSatResult run_once(const cnf::CnfFormula& formula, double timeout,
                             std::uint64_t seed, bool slow_wan) {
  core::GridSatConfig config;
  config.solver.reduce_base = 1u << 30;
  config.share_max_len = 10;
  config.split_timeout_s = timeout;
  config.overall_timeout_s = 50000.0;
  config.min_client_memory = 1 << 20;
  config.seed = seed;
  core::Campaign campaign(formula, core::testbeds::kMasterSite,
                          core::testbeds::grads34(), config);
  if (slow_wan) {
    // The paper's regime: subproblem transfers of 100s of MBytes over
    // the wide area. Our scaled instances ship ~100 KB payloads, so
    // recreate the cost ratio by throttling the inter-site links.
    sim::LinkSpec slow;
    slow.latency_s = 2.0;
    slow.bandwidth_bps = 2.0 * 1024;  // ~40-150 s per subproblem transfer
    campaign.network().set_inter_site(slow);
    campaign.network().set_intra_site(slow);  // every hop is expensive
  }
  return campaign.run();
}

std::string sweep(const std::string& name, const std::string& instance,
                  const std::string& regime, const cnf::CnfFormula& formula,
                  double seq_seconds, std::uint64_t seed,
                  bool slow_wan = false) {
  std::printf("\n%s  (sequential comparator: %.0f s)\n", name.c_str(),
              seq_seconds);
  std::printf("%-16s %-10s %-10s %-10s %-8s %-10s %s\n", "split_timeout",
              "verdict", "seconds", "speedup", "splits", "clients", "bytes");
  std::printf("%s\n", std::string(80, '-').c_str());
  std::string json_rows;
  for (const double timeout : {1.0, 5.0, 20.0, 100.0, 500.0, 2500.0}) {
    const core::GridSatResult result =
        run_once(formula, timeout, seed, slow_wan);
    char speedup[24] = "-";
    if (result.status == core::CampaignStatus::kSat ||
        result.status == core::CampaignStatus::kUnsat) {
      std::snprintf(speedup, sizeof speedup, "%.2f",
                    seq_seconds / result.seconds);
    }
    std::printf("%-16.0f %-10s %-10.0f %-10s %-8llu %-10zu %s\n", timeout,
                to_string(result.status), result.seconds, speedup,
                static_cast<unsigned long long>(result.total_splits),
                result.max_active_clients,
                util::format_bytes(
                    static_cast<double>(result.bytes_transferred))
                    .c_str());
    std::fflush(stdout);
    util::JsonWriter json;
    json.begin_object()
        .field("bench", "pingpong")
        .field("instance", instance)
        .field("regime", regime)
        .field("split_timeout_s", timeout)
        .field("status", core::to_string(result.status))
        .field("seconds", result.seconds)
        .field("speedup_vs_seq",
               result.seconds > 0 ? seq_seconds / result.seconds : 0.0)
        .field("splits", result.total_splits)
        .field("max_clients",
               static_cast<std::uint64_t>(result.max_active_clients))
        .field("bytes_wire_v2", result.bytes_transferred)
        .field("base_ref_transfers", result.base_ref_transfers)
        .end_object();
    json_rows += json.str();
    json_rows += '\n';
  }
  return json_rows;
}

double sequential_seconds(const cnf::CnfFormula& formula) {
  core::SequentialOptions options;
  options.host = core::testbeds::fastest_dedicated();
  options.timeout_s = 1e9;
  options.solver.reduce_base = 1u << 30;
  return core::run_sequential(formula, options).seconds;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define_str("easy", "w10_75.cnf", "easy suite row");
  flags.define_str("hard", "homer12.cnf", "hard suite row");
  flags.define_i64("seed", 2003, "campaign seed");
  flags.define_str("json", "", "write JSON-Lines rows to this file");
  flags.define_bool("append", false, "append to --json instead of truncating");
  if (!flags.parse(argc, argv)) {
    std::fputs(flags.usage("bench_pingpong").c_str(), stderr);
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(flags.i64("seed"));

  std::printf("Split-timeout sweep: the ping-pong effect (paper S3.1/S3.3)\n");

  std::string json_rows;
  const auto& easy = gen::suite::by_name(flags.str("easy"));
  const cnf::CnfFormula easy_formula = easy.make();
  const double easy_seq = sequential_seconds(easy_formula);
  json_rows += sweep("EASY: " + easy.paper_name + " (" + easy.analog + ")",
                     easy.paper_name, "easy", easy_formula, easy_seq, seed);

  const auto& hard = gen::suite::by_name(flags.str("hard"));
  const cnf::CnfFormula hard_formula = hard.make();
  json_rows += sweep("HARD: " + hard.paper_name + " (" + hard.analog + ")",
                     hard.paper_name, "hard", hard_formula,
                     sequential_seconds(hard_formula), seed);

  // The ping-pong regime proper (§3.1): when moving a subproblem costs
  // as much as solving it, aggressive splitting makes the grid *slower*
  // — more time "communicating the necessary subproblem descriptions ...
  // than actually investigating assignment values".
  json_rows += sweep("EASY over a slow WAN: " + easy.paper_name,
                     easy.paper_name, "easy_slow_wan", easy_formula, easy_seq,
                     seed, /*slow_wan=*/true);

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
  return 0;
}
