// Hierarchical masters (DESIGN.md §4j): flat-vs-hier verdict parity and
// root-message reduction, in-site relay and inter-site digest behaviour,
// split brokering between starving and loaded sites, sub-master failure
// (bounce, re-home, certification), the wan_grid per-pair-link testbed,
// elastic arrival scenarios, and per-topology trace determinism.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/campaign.hpp"
#include "core/scenarios.hpp"
#include "core/testbeds.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "gen/xor_chains.hpp"
#include "solver/proof.hpp"

namespace gridsat::core {
namespace {

using cnf::CnfFormula;

constexpr std::size_t kMiB = 1024 * 1024;

/// 12 hosts over 4 sites ("grid0".."grid3"), master at grid0.
std::vector<sim::HostSpec> four_site_testbed() {
  return testbeds::synthetic_grid(12, 4, 2003);
}

GridSatConfig hier_config(std::size_t sub_masters) {
  GridSatConfig config;
  config.split_timeout_s = 2.0;
  config.overall_timeout_s = 50000.0;
  config.client_quantum_s = 0.5;
  config.min_client_memory = 1 * kMiB;
  config.sub_masters = sub_masters;
  return config;
}

/// Serialize the bus debug trace for byte-identity comparison.
std::string render_trace(const std::vector<sim::MessageRecord>& trace) {
  std::ostringstream out;
  out.precision(17);
  for (const sim::MessageRecord& r : trace) {
    out << r.sent_at << ' ' << r.delivered_at << ' ' << r.from << ' '
        << r.from_site << ' ' << r.to << ' ' << r.to_site << ' ' << r.kind
        << ' ' << r.bytes << '\n';
  }
  return out.str();
}

TEST(HierTest, MatchesFlatVerdictWithFewerRootMessages) {
  const CnfFormula f = gen::pigeonhole_unsat(8);
  // The root-message win is an O(clients)-vs-O(sites) asymmetry, so the
  // comparison needs enough clients per site for the flat master's
  // per-client report load to dominate the hierarchy's cadence floor.
  const std::vector<sim::HostSpec> hosts = testbeds::synthetic_grid(64, 4);

  Campaign flat(f, "grid0", hosts, hier_config(0));
  const GridSatResult flat_result = flat.run();
  ASSERT_EQ(flat_result.status, CampaignStatus::kUnsat);
  EXPECT_EQ(flat.num_sub_masters(), 0u);
  EXPECT_EQ(flat_result.sub_messages_handled, 0u);
  EXPECT_GT(flat_result.root_messages_handled, 0u);

  Campaign hier(f, "grid0", hosts, hier_config(4));
  const GridSatResult hier_result = hier.run();
  ASSERT_EQ(hier_result.status, CampaignStatus::kUnsat);
  EXPECT_EQ(hier.num_sub_masters(), 4u);

  // The point of the topology: client reports terminate at sub-masters,
  // so the root sees a fraction of the flat message load.
  EXPECT_LT(hier_result.root_messages_handled,
            flat_result.root_messages_handled / 2);
  EXPECT_GT(hier_result.sub_messages_handled, 0u);
  // Clause traffic moved onto the in-site relay.
  EXPECT_GT(hier_result.site_relay_batches, 0u);
}

TEST(HierTest, RacingModesKeepTheFlatMaster) {
  GridSatConfig config = hier_config(4);
  config.parallel_mode = solver::ParallelMode::kPortfolio;
  const CnfFormula f = gen::random_ksat_planted(50, 210, 3, 7);
  Campaign campaign(f, "grid0", four_site_testbed(), config);
  EXPECT_EQ(campaign.num_sub_masters(), 0u);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kSat);
  EXPECT_EQ(result.sub_messages_handled, 0u);
}

TEST(HierTest, LbdCapZeroDisablesInterSiteDigestOnly) {
  GridSatConfig config = hier_config(4);
  config.inter_site_lbd_cap = 0;
  const CnfFormula f = gen::pigeonhole_unsat(8);
  Campaign campaign(f, "grid0", four_site_testbed(), config);
  const GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_EQ(result.inter_site_digests, 0u);
  EXPECT_EQ(result.digest_clauses_sent, 0u);
  // In-site relay is unaffected by the cap.
  EXPECT_GT(result.site_relay_batches, 0u);
}

TEST(HierTest, RootBrokersSplitsTowardStarvingSite) {
  // One lone host gets the problem; the other site is all idle capacity.
  // Its sub-master must detect starvation and the root must broker a
  // split from the loaded site across.
  std::vector<sim::HostSpec> hosts;
  for (int i = 0; i < 4; ++i) {
    sim::HostSpec spec;
    spec.name = "h" + std::to_string(i);
    spec.site = i == 0 ? "solo" : "farm";
    spec.speed = 3000.0;
    spec.memory_bytes = 32 * kMiB;
    spec.seed = 300 + i;
    hosts.push_back(spec);
  }
  GridSatConfig config = hier_config(2);
  const CnfFormula f = gen::pigeonhole_unsat(8);
  Campaign campaign(f, "solo", hosts, config);
  const GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_GT(result.brokered_splits, 0u);
  EXPECT_GT(result.total_splits, 0u);
}

TEST(HierTest, SubMasterDeathBouncesRehomesAndStillCertifies) {
  if (!solver::kProofCompiledIn) GTEST_SKIP() << "GRIDSAT_PROOF is off";
  GridSatConfig config = hier_config(4);
  config.solver.log_proof = true;
  const CnfFormula f = gen::pigeonhole_unsat(8);
  Campaign campaign(f, "grid0", four_site_testbed(), config);
  // Kill the master site's sub-master early, while client reports, splits
  // and clause relays are still addressed to it, so some of them bounce;
  // kill a second one later in the endgame.
  campaign.schedule_sub_master_failure("grid0", 2.0);
  campaign.schedule_sub_master_failure("grid1", 20.0);
  const GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_GT(result.sub_master_bounces, 0u);
  EXPECT_GE(result.sub_master_rehomes, 1u);
  // No proof leaf may be lost to the failure: the stitched refutation
  // must still certify against the original formula.
  ASSERT_TRUE(result.proof_stitched) << result.proof_error;
  const solver::ProofCheckResult check = campaign.certify();
  EXPECT_TRUE(check.valid) << check.message;
}

TEST(HierTest, MasterMessageCountsMatchBusRecords) {
  // Every send goes through one endpoint-addressed path, so the per-tier
  // counters must agree with what the bus recorded: each message to the
  // root is counted once, and every message a sub-master handled or
  // bounced was addressed to it (messages still in flight at the verdict
  // are never delivered, hence <=).
  const CnfFormula f = gen::pigeonhole_unsat(8);
  struct Case {
    std::size_t sub_masters;
    bool kill_sub_master;
  };
  for (const Case c : {Case{0, false}, Case{4, false}, Case{4, true}}) {
    Campaign campaign(f, "grid0", four_site_testbed(),
                      hier_config(c.sub_masters));
    campaign.bus().enable_trace();
    // Early enough that in-flight client reports bounce off the corpse.
    if (c.kill_sub_master) campaign.schedule_sub_master_failure("grid0", 2.0);
    const GridSatResult result = campaign.run();
    ASSERT_EQ(result.status, CampaignStatus::kUnsat);
    std::uint64_t to_root = 0;
    std::uint64_t to_subs = 0;
    for (const sim::MessageRecord& r : campaign.bus().trace()) {
      if (r.to == "master") ++to_root;
      if (r.to.rfind("submaster:", 0) == 0) ++to_subs;
    }
    SCOPED_TRACE(testing::Message() << "sub_masters=" << c.sub_masters
                                    << " kill=" << c.kill_sub_master);
    EXPECT_GT(to_root, 0u);
    EXPECT_EQ(result.root_messages_handled, to_root);
    EXPECT_LE(result.sub_messages_handled + result.sub_master_bounces,
              to_subs);
    if (c.sub_masters == 0) {
      EXPECT_EQ(to_subs, 0u);
    }
    if (c.kill_sub_master) {
      EXPECT_GT(result.sub_master_bounces, 0u);
    }
  }
}

TEST(HierTest, SameSeedTracesAreByteIdenticalPerTopology) {
  const CnfFormula f = gen::urquhart_like(8, 11);
  for (const std::size_t subs : {std::size_t{0}, std::size_t{4}}) {
    std::string first;
    for (int run = 0; run < 2; ++run) {
      Campaign campaign(f, "grid0", four_site_testbed(), hier_config(subs));
      campaign.bus().enable_trace();
      const GridSatResult result = campaign.run();
      ASSERT_NE(result.status, CampaignStatus::kError);
      const std::string rendered = render_trace(campaign.bus().trace());
      ASSERT_FALSE(rendered.empty());
      if (run == 0) {
        first = rendered;
      } else {
        EXPECT_EQ(first, rendered) << "topology sub_masters=" << subs
                                   << " is not trace-deterministic";
      }
    }
  }
}

TEST(WanGridTest, PerPairLinksApplyIncludingAsymmetricPair) {
  const testbeds::WanGrid grid = testbeds::wan_grid(3, 2003);
  EXPECT_EQ(grid.hosts.size(), 12u);
  EXPECT_GE(grid.links.size(), 4u);

  const CnfFormula f = gen::pigeonhole_unsat(7);
  GridSatConfig config = hier_config(4);
  Campaign campaign(f, "wan-east", grid.hosts, config);
  testbeds::apply_wan_links(grid, campaign.network());

  // Overrides took: the backbone is faster than the default, and the
  // eu-apac pair trombones above the sum of its east-hop legs.
  const sim::LinkSpec backbone =
      campaign.network().link_between("wan-east", "wan-west");
  EXPECT_DOUBLE_EQ(backbone.latency_s, 0.015);
  const sim::LinkSpec trombone =
      campaign.network().link_between("wan-eu", "wan-apac");
  const sim::LinkSpec leg_a =
      campaign.network().link_between("wan-eu", "wan-east");
  const sim::LinkSpec leg_b =
      campaign.network().link_between("wan-east", "wan-apac");
  EXPECT_GT(trombone.latency_s, leg_a.latency_s + leg_b.latency_s);
  // Unlisted pairs fall back to the inter-site default.
  EXPECT_DOUBLE_EQ(leg_b.latency_s, 0.030);

  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_GT(result.inter_site_bytes, 0u);
}

TEST(ScenarioTest, DiurnalAndFlashCrowdAreDeterministic) {
  const CnfFormula f = gen::pigeonhole_unsat(9);  // outlives the window
  const testbeds::WanGrid grid = testbeds::wan_grid(2, 2003);
  std::vector<sim::HostSpec> extra = testbeds::synthetic_grid(6, 2, 77);

  GridSatResult results[2];
  std::string traces[2];
  for (int run = 0; run < 2; ++run) {
    GridSatConfig config = hier_config(4);
    config.overall_timeout_s = 60.0;
    Campaign campaign(f, "wan-east", grid.hosts, config);
    testbeds::apply_wan_links(grid, campaign.network());
    campaign.bus().enable_trace();

    scenarios::DiurnalSpec diurnal;
    diurnal.first_dusk_s = 4.0;
    diurnal.night_s = 15.0;
    diurnal.day_s = 8.0;
    diurnal.cycles = 2;
    const std::size_t night_joins = scenarios::schedule_diurnal(
        campaign, {extra.begin(), extra.begin() + 3}, diurnal, 5);
    EXPECT_EQ(night_joins, 6u);

    scenarios::FlashCrowdSpec crowd;
    crowd.at_s = 10.0;
    crowd.dwell_mean_s = 20.0;
    crowd.dwell_jitter_s = 5.0;
    const std::size_t crowd_joins = scenarios::schedule_flash_crowd(
        campaign, {extra.begin() + 3, extra.end()}, crowd, 6);
    EXPECT_EQ(crowd_joins, 3u);

    results[run] = campaign.run();
    traces[run] = render_trace(campaign.bus().trace());
  }
  EXPECT_EQ(results[0].status, results[1].status);
  EXPECT_EQ(results[0].hosts_joined, results[1].hosts_joined);
  EXPECT_EQ(results[0].hosts_released, results[1].hosts_released);
  EXPECT_EQ(results[0].messages, results[1].messages);
  EXPECT_EQ(results[0].bytes_transferred, results[1].bytes_transferred);
  EXPECT_EQ(results[0].total_splits, results[1].total_splits);
  EXPECT_DOUBLE_EQ(results[0].seconds, results[1].seconds);
  EXPECT_EQ(traces[0], traces[1]);
  // The elastic machinery actually ran.
  EXPECT_GT(results[0].hosts_joined, 0u);
  EXPECT_GT(results[0].hosts_released, 0u);
}

}  // namespace
}  // namespace gridsat::core
