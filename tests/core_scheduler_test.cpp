// Scheduler-behaviour tests: migration toward a stronger idle cluster
// (§3.4), backlog dispatch order (longest-running splits first), ranking
// integration with the forecaster, and the master's resource-state
// machine under failures of idle clients; and golden fixed-point
// campaigns pinning the master's exact virtual-time outcome.
#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/testbeds.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"

namespace gridsat::core {
namespace {

constexpr std::size_t kMiB = 1024 * 1024;

TEST(SchedulerTest, MigratesFromWeakRemoteHostToStrongCluster) {
  // Host 0: slow, alone at a far site — gets the problem first (it is the
  // first to register). Hosts 1..4: a fast idle cluster. The paper's
  // migration rule should move the whole problem rather than split it.
  std::vector<sim::HostSpec> hosts;
  sim::HostSpec weak;
  weak.name = "weak";
  weak.site = "far";
  weak.speed = 1000.0;
  weak.memory_bytes = 16 * kMiB;
  hosts.push_back(weak);
  for (int i = 0; i < 4; ++i) {
    sim::HostSpec strong;
    strong.name = "strong" + std::to_string(i);
    strong.site = "cluster";
    strong.speed = 9000.0;
    strong.memory_bytes = 32 * kMiB;
    hosts.push_back(strong);
  }
  GridSatConfig config;
  config.split_timeout_s = 5.0;
  config.overall_timeout_s = 100000.0;
  config.min_client_memory = 1 * kMiB;
  config.migration_rank_factor = 2.0;
  config.migration_min_idle_at_site = 3;
  const auto f = gen::pigeonhole_unsat(8);
  Campaign campaign(f, "far", hosts, config);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_GE(result.migrations, 1u);
}

TEST(SchedulerTest, NoMigrationBetweenEqualHosts) {
  std::vector<sim::HostSpec> hosts;
  for (int i = 0; i < 4; ++i) {
    sim::HostSpec spec;
    spec.name = "h" + std::to_string(i);
    spec.site = "one";
    spec.speed = 4000.0;
    spec.memory_bytes = 32 * kMiB;
    hosts.push_back(spec);
  }
  GridSatConfig config;
  config.split_timeout_s = 3.0;
  config.overall_timeout_s = 100000.0;
  config.min_client_memory = 1 * kMiB;
  Campaign campaign(gen::pigeonhole_unsat(8), "one", hosts, config);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_EQ(result.migrations, 0u);
}

TEST(SchedulerTest, FreeHostIsRelaunchedWhenBacklogNeedsIt) {
  // Kill an idle client early; later, when the busy clients ask for
  // splits and no idle client exists, the master must restart a client
  // on the free host rather than starve the backlog (§3.3: "In case the
  // master needs more resources, it tries to restart clients on free
  // resources").
  std::vector<sim::HostSpec> hosts;
  for (int i = 0; i < 3; ++i) {
    sim::HostSpec spec;
    spec.name = "h" + std::to_string(i);
    spec.site = "one";
    spec.speed = 3000.0;
    spec.memory_bytes = 32 * kMiB;
    hosts.push_back(spec);
  }
  GridSatConfig config;
  config.split_timeout_s = 20.0;
  config.overall_timeout_s = 200000.0;
  config.min_client_memory = 1 * kMiB;
  Campaign campaign(gen::pigeonhole_unsat(8), "one", hosts, config);
  // Host 2 will be idle at t=5 (the problem lives on host 0 and no split
  // is due before t=20).
  campaign.schedule_client_failure(2, 5.0);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  // Host 2 was revived and participated: three active clients at peak.
  EXPECT_EQ(result.max_active_clients, 3u);
}

TEST(SchedulerTest, PeakClientCountNeverExceedsPool) {
  std::vector<sim::HostSpec> hosts;
  for (int i = 0; i < 5; ++i) {
    sim::HostSpec spec;
    spec.name = "h" + std::to_string(i);
    spec.site = "one";
    spec.speed = 3000.0;
    spec.memory_bytes = 32 * kMiB;
    hosts.push_back(spec);
  }
  GridSatConfig config;
  config.split_timeout_s = 1.0;  // split storm
  config.overall_timeout_s = 100000.0;
  config.min_client_memory = 1 * kMiB;
  Campaign campaign(gen::pigeonhole_unsat(8), "one", hosts, config);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_LE(result.max_active_clients, 5u);
  EXPECT_GE(result.total_splits, 4u);
}

TEST(SchedulerTest, SingleHostDegeneratesToSequential) {
  std::vector<sim::HostSpec> hosts(1);
  hosts[0].name = "solo";
  hosts[0].site = "one";
  hosts[0].speed = 5000.0;
  hosts[0].memory_bytes = 64 * kMiB;
  GridSatConfig config;
  config.split_timeout_s = 5.0;
  config.overall_timeout_s = 1e9;
  config.min_client_memory = 1 * kMiB;
  const auto f = gen::random_ksat(60, 255, 3, 3);
  Campaign campaign(f, "one", hosts, config);
  const GridSatResult result = campaign.run();
  EXPECT_NE(result.status, CampaignStatus::kTimeout);
  EXPECT_EQ(result.total_splits, 0u);  // nobody to split with
  EXPECT_EQ(result.max_active_clients, 1u);
}

TEST(SchedulerTest, NoUsableHostsTimesOut) {
  std::vector<sim::HostSpec> hosts(2);
  hosts[0].name = "tiny0";
  hosts[0].site = "one";
  hosts[0].memory_bytes = 16 * 1024;  // below the floor
  hosts[1] = hosts[0];
  hosts[1].name = "tiny1";
  GridSatConfig config;
  config.overall_timeout_s = 50.0;
  config.min_client_memory = 1 * kMiB;
  Campaign campaign(gen::pigeonhole_unsat(5), "one", hosts, config);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kTimeout);
  EXPECT_EQ(result.max_active_clients, 0u);
}

// --- Golden fixed point ------------------------------------------------
// The tests above compare a run with the scheduling rule it should obey;
// these pin the exact virtual-time outcome of four small campaigns, so a
// refactor of the master that changes any dispatch decision, message or
// byte fails here even when the verdict survives. Re-capture the values
// only for a change that is meant to move the simulation.

struct Golden {
  CampaignStatus status;
  double seconds;
  std::uint64_t total_splits;
  std::uint64_t migrations;
  std::uint64_t messages;
  std::uint64_t bytes_transferred;
  std::uint64_t brokered_splits;
  std::uint64_t races_cancelled;
  std::uint64_t checkpoint_recoveries;
};

void expect_golden(const GridSatResult& r, const Golden& g) {
  EXPECT_EQ(r.status, g.status);
  EXPECT_DOUBLE_EQ(r.seconds, g.seconds);
  EXPECT_EQ(r.total_splits, g.total_splits);
  EXPECT_EQ(r.migrations, g.migrations);
  EXPECT_EQ(r.messages, g.messages);
  EXPECT_EQ(r.bytes_transferred, g.bytes_transferred);
  EXPECT_EQ(r.brokered_splits, g.brokered_splits);
  EXPECT_EQ(r.races_cancelled, g.races_cancelled);
  EXPECT_EQ(r.checkpoint_recoveries, g.checkpoint_recoveries);
}

/// `n` hosts alternating between two sites, speeds rising with the index.
std::vector<sim::HostSpec> two_site_hosts(std::size_t n) {
  std::vector<sim::HostSpec> hosts;
  for (std::size_t i = 0; i < n; ++i) {
    sim::HostSpec spec;
    spec.name = "h" + std::to_string(i);
    spec.site = i % 2 == 0 ? "east" : "west";
    spec.speed = 3000.0 + 500.0 * static_cast<double>(i);
    spec.memory_bytes = 32 * kMiB;
    spec.seed = 100 + i;
    hosts.push_back(spec);
  }
  return hosts;
}

GridSatConfig golden_config() {
  GridSatConfig config;
  config.split_timeout_s = 2.0;
  config.overall_timeout_s = 50000.0;
  config.client_quantum_s = 0.5;
  config.min_client_memory = 1 * kMiB;
  return config;
}

TEST(SchedulerGoldenTest, FlatCampaignThatMigrates) {
  std::vector<sim::HostSpec> hosts;
  sim::HostSpec weak;
  weak.name = "weak";
  weak.site = "far";
  weak.speed = 1000.0;
  weak.memory_bytes = 16 * kMiB;
  hosts.push_back(weak);
  for (sim::HostSpec spec : two_site_hosts(6)) {
    spec.speed *= 3.0;
    hosts.push_back(spec);
  }
  Campaign campaign(gen::pigeonhole_unsat(7), "far", hosts, golden_config());
  expect_golden(campaign.run(),
                {.status = CampaignStatus::kUnsat,
                 .seconds = 56.848018828680189,
                 .total_splits = 38,
                 .migrations = 1,
                 .messages = 661,
                 .bytes_transferred = 289815,
                 .brokered_splits = 0,
                 .races_cancelled = 0,
                 .checkpoint_recoveries = 0});
}

TEST(SchedulerGoldenTest, HierarchicalCampaignWithSubMasterKill) {
  GridSatConfig config = golden_config();
  config.sub_masters = 4;
  Campaign campaign(gen::pigeonhole_unsat(8), "grid0",
                    testbeds::synthetic_grid(12, 4, 2003), config);
  // Requests parked at the dead sub-master bounce to the root backlog and
  // are re-homed once the site returns; the other sites broker splits.
  campaign.schedule_sub_master_failure("grid0", 12.0);
  expect_golden(campaign.run(),
                {.status = CampaignStatus::kUnsat,
                 .seconds = 500.93482614806277,
                 .total_splits = 293,
                 .migrations = 0,
                 .messages = 3297,
                 .bytes_transferred = 3143712,
                 .brokered_splits = 116,
                 .races_cancelled = 0,
                 .checkpoint_recoveries = 0});
}

TEST(SchedulerGoldenTest, HybridRacingCampaign) {
  GridSatConfig config = golden_config();
  config.parallel_mode = solver::ParallelMode::kHybrid;
  config.race_width = 2;
  Campaign campaign(gen::pigeonhole_unsat(7), "east", two_site_hosts(6),
                    config);
  expect_golden(campaign.run(),
                {.status = CampaignStatus::kUnsat,
                 .seconds = 196.76545140424463,
                 .total_splits = 61,
                 .migrations = 0,
                 .messages = 1057,
                 .bytes_transferred = 560405,
                 .brokered_splits = 0,
                 .races_cancelled = 7,
                 .checkpoint_recoveries = 0});
}

TEST(SchedulerGoldenTest, FlatCampaignRecoversBusyClientFromCheckpoint) {
  GridSatConfig config = golden_config();
  config.checkpoint = CheckpointMode::kHeavy;
  config.checkpoint_interval_s = 1.0;
  config.recover_from_checkpoints = true;
  Campaign campaign(gen::pigeonhole_unsat(7), "east", two_site_hosts(4),
                    config);
  // Host 0 is busy at t=10; its heavy checkpoint chain is restored on
  // another host.
  campaign.schedule_client_failure(0, 10.0);
  expect_golden(campaign.run(),
                {.status = CampaignStatus::kUnsat,
                 .seconds = 172.28614667038698,
                 .total_splits = 40,
                 .migrations = 0,
                 .messages = 1617,
                 .bytes_transferred = 806469,
                 .brokered_splits = 0,
                 .races_cancelled = 0,
                 .checkpoint_recoveries = 1});
}

}  // namespace
}  // namespace gridsat::core
