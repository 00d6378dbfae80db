// Simulation-kernel scale-out bench (DESIGN.md §4g): measures the event
// core that has to sustain 1000+ simulated hosts.
//
// Two measurement modes, both emitted as "bench":"simcore" JSON-Lines
// rows (committed to BENCH_parallel.json):
//
//  * hostload — a campaign-shaped messaging workload at N hosts
//    (per-host quantum loops, cancel-heavy watchdog re-arming, reports
//    to the master, clause-share relays fanned out to every other host)
//    run end to end on the 4-ary-heap kernel with the POD MessageBus and
//    batched deliveries: events/s and virtual seconds per wall second.
//
//  * table2_scale — Table-2-style campaign rows on the synthetic grid at
//    100 and 1000 clients: verdict, virtual seconds, wall time, and the
//    kernel events/s the full protocol stack achieves.
//
//   ./bench_simcore
//   ./bench_simcore --quick --json=/tmp/BENCH_parallel.json
//   ./bench_simcore --json=BENCH_parallel.json --append
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/campaign.hpp"
#include "core/testbeds.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "sim/message_bus.hpp"
#include "sim/names.hpp"
#include "sim/network.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

using namespace gridsat;  // NOLINT

namespace {

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Padding that brings handler captures to 32 bytes — the size class of
/// real campaign handlers (object pointer + indices + a shared_ptr),
/// over std::function's inline buffer but inside sim::Callback's.
struct Pad {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

// --- hostload: campaign-shaped messaging workload at N hosts -----------
// Every host runs a ~1 s quantum loop: re-arm a 30 s watchdog (the
// split-timeout idiom — cancel + reschedule on every tick) and report to
// the master over the bus. Every kShareEvery-th quantum the report is a
// CLAUSES share; on its delivery the master relays the batch to every
// other host, exactly like the root's Campaign::admit_and_relay (§3.2
// "shares clauses globally as soon as they are generated"), folding the
// fan-out into one DeliveryBatch. The rng is drawn in firing order, so a seed
// fixes the virtual history: message and logical-event counts are a
// workload fingerprint, and wall time is the only measured quantity.
constexpr std::uint64_t kShareEvery = 64;
constexpr std::size_t kHostSites = 16;
constexpr std::size_t kReportBytes = 96;
constexpr std::size_t kClauseBatchBytes = 2048;
struct HostLoadResult {
  std::uint64_t kernel_events = 0;
  std::uint64_t logical_events = 0;  ///< quanta + messages delivered
  std::uint64_t messages = 0;
  double wall_s = 0.0;

  [[nodiscard]] double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(logical_events) / wall_s : 0.0;
  }
};

struct HostLoad {
  std::size_t n;
  double horizon;
  util::Xoshiro256 rng;
  sim::SimEngine engine;
  sim::NameTable names;
  sim::Network network{names};
  sim::MessageBus bus{engine, network};
  std::uint32_t master;
  std::uint32_t master_site;
  std::uint32_t report_kind;
  std::uint32_t clauses_kind;
  std::vector<std::uint32_t> endpoint;
  std::vector<std::uint32_t> site;
  std::vector<sim::EventId> watchdog;
  std::vector<std::uint64_t> quantum_no;
  std::uint64_t ticks = 0;
  std::uint64_t reports = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t watchdog_fires = 0;

  HostLoad(std::size_t n, double horizon, std::uint64_t seed)
      : n(n), horizon(horizon), rng(seed), watchdog(n, sim::kNoEvent),
        quantum_no(n, 0) {
    master = names.intern("master");
    master_site = names.intern("site0");
    report_kind = names.intern("REPORT");
    clauses_kind = names.intern("CLAUSES");
    for (std::size_t i = 0; i < n; ++i) {
      // Interned once at registration, as the campaign does.
      endpoint.push_back(names.intern("client:g" + std::to_string(i)));
      site.push_back(names.intern("site" + std::to_string(i % kHostSites)));
    }
  }

  HostLoadResult run() {
    for (std::size_t i = 0; i < n; ++i) {
      engine.schedule_at(rng.uniform(), [this, i, pad = Pad{}] {
        (void)pad;
        tick(i);
      });
    }
    const auto start = std::chrono::steady_clock::now();
    engine.run_until(horizon);
    HostLoadResult r;
    r.wall_s = wall_seconds_since(start);
    r.kernel_events = engine.events_fired();
    r.logical_events = ticks + reports + deliveries + watchdog_fires;
    r.messages = bus.messages_sent();
    return r;
  }

  void tick(std::size_t i) {
    ++ticks;
    if (engine.now() >= horizon) return;
    engine.cancel(watchdog[i]);
    watchdog[i] = engine.schedule_in(30.0, [this, pad = Pad{}] {
      (void)pad;
      ++watchdog_fires;
    });
    sim::MessageHeader h;  // POD send path: ids only
    h.from = endpoint[i];
    h.from_site = site[i];
    h.to = master;
    h.to_site = master_site;
    h.bytes = kReportBytes;
    if (++quantum_no[i] % kShareEvery == 0) {
      h.kind = clauses_kind;
      h.bytes = kClauseBatchBytes;
      bus.send(h, [this, i, pad = Pad{}] {
        (void)pad;
        ++reports;
        relay(i);
      });
    } else {
      h.kind = report_kind;
      bus.send(h, [this, pad = Pad{}] {
        (void)pad;
        ++reports;
      });
    }
    engine.schedule_in(0.8 + 0.4 * rng.uniform(), [this, i, pad = Pad{}] {
      (void)pad;
      tick(i);
    });
  }

  /// The §4g clause relay: the whole fan-out rides one DeliveryBatch —
  /// O(sites) engine events instead of one per recipient.
  void relay(std::size_t from) {
    sim::DeliveryBatch batch(bus, master, master_site, clauses_kind,
                             kClauseBatchBytes);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == from) continue;
      batch.add(endpoint[j], site[j], [this, pad = Pad{}] {
        (void)pad;
        ++deliveries;
      });
    }
    batch.flush();
  }
};

// --- table2_scale: the full protocol stack on the synthetic grid -------
struct ScaleRow {
  core::GridSatResult result;
  std::uint64_t kernel_events = 0;
  double wall_s = 0.0;
};

ScaleRow run_scale_row(const cnf::CnfFormula& formula, std::size_t n_hosts,
                       std::size_t sub_masters, std::uint64_t seed) {
  core::GridSatConfig config;
  config.solver.reduce_base = 1u << 30;
  config.share_max_len = 3;  // the Table-2 experiment set's setting
  config.split_timeout_s = 5.0;
  config.overall_timeout_s = 50000.0;
  config.min_client_memory = 1 << 20;
  config.seed = seed;
  config.sub_masters = sub_masters;  // 0 = flat master
  core::Campaign campaign(formula, "grid0",
                          core::testbeds::synthetic_grid(n_hosts, 8, seed),
                          config);
  const auto start = std::chrono::steady_clock::now();
  ScaleRow row;
  row.result = campaign.run();
  row.wall_s = wall_seconds_since(start);
  row.kernel_events = campaign.engine().events_fired();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define_bool("quick", false, "CI smoke: shorter horizons, small sweep");
  flags.define_str("mode", "all", "all | hostload | table2_scale");
  flags.define_str("instance", "pigeonhole-9",
                   "instance for the table2_scale rows");
  flags.define_str("topology", "both",
                   "table2_scale master topology: flat | hier | both");
  flags.define_i64("seed", 2003, "workload/campaign seed");
  flags.define_str("json", "", "write JSON-Lines rows to this file");
  flags.define_bool("append", false, "append to --json instead of truncating");
  if (!flags.parse(argc, argv)) {
    std::fputs(flags.usage("bench_simcore").c_str(), stderr);
    return 2;
  }
  const bool quick = flags.boolean("quick");
  const auto seed = static_cast<std::uint64_t>(flags.i64("seed"));
  const std::string& mode = flags.str("mode");
  if (mode != "all" && mode != "hostload" && mode != "table2_scale") {
    std::fprintf(stderr, "unknown --mode=%s (all | hostload | table2_scale)\n",
                 mode.c_str());
    return 2;
  }
  const auto mode_on = [&mode](const char* name) {
    return mode == "all" || mode == name;
  };
  std::string json_rows;

  // --- hostload: events/s at N hosts ----------------------------------
  if (mode_on("hostload")) {
    const double horizon = quick ? 120.0 : 600.0;
    std::printf("Hostload: campaign-shaped workload, horizon %.0f virtual s\n",
                horizon);
    std::printf("%-8s %-10s %-14s %-14s %-12s %-14s\n", "hosts", "kernel",
                "events/s", "virt-s/wall-s", "messages", "logical events");
    for (const std::size_t n_hosts : {std::size_t{100}, std::size_t{1000}}) {
      const HostLoadResult r = HostLoad(n_hosts, horizon, seed).run();
      std::printf("%-8zu %-10s %-14.3e %-14.1f %-12llu %-14llu\n", n_hosts,
                  "quadheap", r.events_per_sec(), horizon / r.wall_s,
                  static_cast<unsigned long long>(r.messages),
                  static_cast<unsigned long long>(r.logical_events));
      std::fflush(stdout);
      util::JsonWriter json;
      json.begin_object()
          .field("bench", "simcore")
          .field("mode", "hostload")
          .field("kernel", "quadheap")
          .field("hosts", static_cast<std::uint64_t>(n_hosts))
          .field("horizon_virtual_s", horizon)
          .field("logical_events", r.logical_events)
          .field("kernel_events", r.kernel_events)
          .field("messages", r.messages)
          .field("events_per_sec", r.events_per_sec())
          .field("virtual_s_per_wall_s", horizon / r.wall_s)
          .end_object();
      json_rows += json.str();
      json_rows += '\n';
    }
  }

  // --- table2_scale: full campaigns at 100 and 1000 clients ------------
  if (mode_on("table2_scale")) {
    const std::string instance =
        quick ? std::string("pigeonhole-8") : flags.str("instance");
    const cnf::CnfFormula formula = bench::resolve_instance(instance);
    const std::string& topo = flags.str("topology");
    std::vector<const char*> topologies;
    if (topo == "flat" || topo == "both") topologies.push_back("flat");
    if (topo == "hier" || topo == "both") topologies.push_back("hier");
    if (topologies.empty()) {
      std::fprintf(stderr, "unknown --topology=%s (flat | hier | both)\n",
                   topo.c_str());
      return 2;
    }
    std::printf("\nTable-2-style scale rows: %s on the synthetic grid\n",
                instance.c_str());
    std::printf("%-8s %-6s %-10s %-12s %-10s %-12s %-10s %-12s %-10s\n",
                "clients", "topo", "verdict", "virtual s", "wall s",
                "root msgs", "sub msgs", "x-site KiB", "splits");
    std::vector<std::size_t> scales = {100, 1000};
    if (quick) scales = {100};
    for (const std::size_t n_hosts : scales) {
      for (const char* topology : topologies) {
        // The synthetic grid spreads n_hosts over 8 sites; the
        // hierarchical topology gives every site its own sub-master.
        const std::size_t subs =
            std::string(topology) == "hier" ? std::size_t{8} : std::size_t{0};
        const ScaleRow row = run_scale_row(formula, n_hosts, subs, seed);
        const double eps =
            row.wall_s > 0 ? static_cast<double>(row.kernel_events) / row.wall_s
                           : 0.0;
        const core::GridSatResult& r = row.result;
        std::printf(
            "%-8zu %-6s %-10s %-12.1f %-10.2f %-12llu %-10llu %-12.1f "
            "%-10llu\n",
            n_hosts, topology, core::to_string(r.status), r.seconds, row.wall_s,
            static_cast<unsigned long long>(r.root_messages_handled),
            static_cast<unsigned long long>(r.sub_messages_handled),
            static_cast<double>(r.inter_site_bytes) / 1024.0,
            static_cast<unsigned long long>(r.total_splits));
        std::fflush(stdout);
        util::JsonWriter json;
        json.begin_object()
            .field("bench", "simcore")
            .field("mode", "table2_scale")
            .field("instance", instance)
            .field("topology", topology)
            .field("sub_masters", static_cast<std::uint64_t>(subs))
            .field("clients", static_cast<std::uint64_t>(n_hosts))
            .field("status", core::to_string(r.status))
            .field("virtual_seconds", r.seconds)
            .field("wall_seconds", row.wall_s)
            .field("kernel_events", row.kernel_events)
            .field("events_per_sec", eps)
            .field("max_active_clients",
                   static_cast<std::uint64_t>(r.max_active_clients))
            .field("splits", r.total_splits)
            .field("messages", r.messages)
            .field("root_messages", r.root_messages_handled)
            .field("sub_messages", r.sub_messages_handled)
            .field("inter_site_messages", r.inter_site_messages)
            .field("inter_site_bytes", r.inter_site_bytes)
            .field("site_relay_batches", r.site_relay_batches)
            .field("inter_site_digests", r.inter_site_digests)
            .field("brokered_splits", r.brokered_splits)
            .end_object();
        json_rows += json.str();
        json_rows += '\n';
      }
    }
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
  return 0;
}
