// Campaign-level portfolio/hybrid racing: verdict agreement with the
// split-mode campaign and the sequential solver, loser cancellation via
// CANCEL_SUBPROBLEM/CANCELLED, racer-death tolerance (co-racers keep the
// space covered), run-to-run determinism, and certification of stitched
// refutations whose leaves include race duplicates.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/sequential.hpp"
#include "core/testbeds.hpp"
#include "gen/pigeonhole.hpp"
#include "gen/random_ksat.hpp"
#include "gen/xor_chains.hpp"
#include "solver/diversify.hpp"

namespace gridsat::core {
namespace {

using cnf::CnfFormula;
using solver::ParallelMode;

constexpr std::size_t kMiB = 1024 * 1024;

/// Deterministic testbed with a configurable host count (two sites).
std::vector<sim::HostSpec> testbed(std::size_t n) {
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

GridSatConfig race_config(ParallelMode mode, std::size_t race_width = 2) {
  GridSatConfig config;
  config.parallel_mode = mode;
  config.race_width = race_width;
  config.split_timeout_s = 2.0;
  config.overall_timeout_s = 50000.0;
  config.client_quantum_s = 0.5;
  config.min_client_memory = 1 * kMiB;
  config.solver.log_proof = true;
  return config;
}

#define REQUIRE_PROOF_HOOKS() \
  if (!solver::kProofCompiledIn) GTEST_SKIP() << "GRIDSAT_PROOF is off"

// --- Verdict agreement --------------------------------------------------

class RaceModeAgreement
    : public testing::TestWithParam<std::tuple<ParallelMode, int>> {};

TEST_P(RaceModeAgreement, MatchesSequentialVerdict) {
  const auto [mode, seed] = GetParam();
  const CnfFormula f = gen::random_ksat(
      40, static_cast<std::size_t>(40 * 4.26), 3,
      static_cast<std::uint64_t>(seed) * 709 + 17);
  SequentialOptions seq_options;
  seq_options.host = testbeds::fastest_dedicated();
  seq_options.timeout_s = 1e9;
  const SequentialResult seq = run_sequential(f, seq_options);
  ASSERT_NE(seq.status, solver::SolveStatus::kUnknown);

  Campaign campaign(f, "east", testbed(4), race_config(mode));
  const GridSatResult result = campaign.run();
  if (seq.status == solver::SolveStatus::kSat) {
    ASSERT_EQ(result.status, CampaignStatus::kSat)
        << to_string(mode) << " seed " << seed;
    EXPECT_TRUE(is_model(f, result.model));
  } else {
    EXPECT_EQ(result.status, CampaignStatus::kUnsat)
        << to_string(mode) << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RaceModeAgreement,
    testing::Combine(testing::Values(ParallelMode::kPortfolio,
                                     ParallelMode::kHybrid),
                     testing::Range(0, 6)));

// --- Portfolio ----------------------------------------------------------

TEST(PortfolioCampaignTest, RefutesWithoutSplitting) {
  const CnfFormula f = gen::pigeonhole_unsat(7);
  Campaign campaign(f, "east", testbed(4),
                    race_config(ParallelMode::kPortfolio));
  const GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kUnsat);
  // Racers cover the whole formula; the guiding-path machinery stays off.
  EXPECT_EQ(result.total_splits, 0u);
  EXPECT_EQ(result.migrations, 0u);
}

TEST(PortfolioCampaignTest, UnsatRefutationCertifies) {
  REQUIRE_PROOF_HOOKS();
  const CnfFormula f = gen::pigeonhole_unsat(7);
  Campaign campaign(f, "east", testbed(4),
                    race_config(ParallelMode::kPortfolio));
  const GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kUnsat);
  ASSERT_TRUE(result.proof != nullptr);
  ASSERT_TRUE(result.proof_stitched) << result.proof_error;
  const solver::ProofCheckResult check = campaign.certify();
  EXPECT_TRUE(check.valid) << check.message << " at step "
                           << check.failed_step;
}

TEST(PortfolioCampaignTest, SurvivesRacerDeath) {
  // A dead portfolio racer leaves the formula covered by its peers: the
  // campaign must finish with a verdict, not kError, and without
  // checkpoint recovery configured.
  const CnfFormula f = gen::pigeonhole_unsat(8);
  Campaign campaign(f, "east", testbed(4),
                    race_config(ParallelMode::kPortfolio));
  campaign.schedule_client_failure(2, 15.0);
  const GridSatResult result = campaign.run();
  EXPECT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_GE(result.client_deaths, 1u);
}

// --- Hybrid -------------------------------------------------------------

TEST(HybridCampaignTest, SplitsAndCancelsLosers) {
  const CnfFormula f = gen::pigeonhole_unsat(8);
  Campaign campaign(f, "east", testbed(6), race_config(ParallelMode::kHybrid));
  const GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kUnsat);
  EXPECT_GT(result.total_splits, 0u);
  // At least one cohort's race was decided before both members finished.
  EXPECT_GT(result.races_cancelled, 0u);
}

TEST(HybridCampaignTest, UnsatRefutationWithRaceDuplicatesCertifies) {
  REQUIRE_PROOF_HOOKS();
  const CnfFormula f = gen::pigeonhole_unsat(8);
  Campaign campaign(f, "east", testbed(6), race_config(ParallelMode::kHybrid));
  const GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kUnsat);
  ASSERT_TRUE(result.proof != nullptr);
  ASSERT_TRUE(result.proof_stitched) << result.proof_error;
  const solver::ProofCheckResult check = campaign.certify();
  EXPECT_TRUE(check.valid) << check.message << " at step "
                           << check.failed_step;
  EXPECT_GT(check.steps_checked, 0u);
}

TEST(HybridCampaignTest, SurvivesRacerDeathWhenCohortCovers) {
  const CnfFormula f = gen::pigeonhole_unsat(8);
  GridSatConfig config = race_config(ParallelMode::kHybrid);
  Campaign campaign(f, "east", testbed(6), config);
  campaign.schedule_client_failure(5, 20.0);
  const GridSatResult result = campaign.run();
  // Either the dead host was racing (co-racer covers the child: verdict)
  // or it held unshared space (kError without recovery). Both are legal;
  // what must never happen is a wrong verdict.
  EXPECT_TRUE(result.status == CampaignStatus::kUnsat ||
              result.status == CampaignStatus::kError)
      << to_string(result.status);
}

TEST(HybridCampaignTest, CertifiesAcrossRacerDeath) {
  REQUIRE_PROOF_HOOKS();
  const CnfFormula f = gen::pigeonhole_unsat(8);
  GridSatConfig config = race_config(ParallelMode::kHybrid);
  config.checkpoint = CheckpointMode::kHeavy;
  config.checkpoint_interval_s = 1.0;
  config.recover_from_checkpoints = true;
  Campaign campaign(f, "east", testbed(6), config);
  campaign.schedule_client_failure(5, 20.0);
  const GridSatResult result = campaign.run();
  ASSERT_EQ(result.status, CampaignStatus::kUnsat);
  const solver::ProofCheckResult check = campaign.certify();
  EXPECT_TRUE(check.valid) << check.message << " at step "
                           << check.failed_step;
}

// --- Determinism --------------------------------------------------------

class RaceDeterminism
    : public testing::TestWithParam<std::tuple<ParallelMode, std::size_t>> {};

TEST_P(RaceDeterminism, RepeatedRunsAreIdentical) {
  const auto [mode, width] = GetParam();
  const CnfFormula f = gen::urquhart_like(9, 4);
  const auto run_once = [&] {
    Campaign campaign(f, "east", testbed(4), race_config(mode, width));
    return campaign.run();
  };
  const GridSatResult a = run_once();
  const GridSatResult b = run_once();
  ASSERT_EQ(a.status, b.status);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.total_splits, b.total_splits);
  EXPECT_EQ(a.races_cancelled, b.races_cancelled);
  if (solver::kProofCompiledIn && a.status == CampaignStatus::kUnsat) {
    // Same winner, same arrival order, same stitched proof.
    ASSERT_TRUE(a.proof != nullptr);
    ASSERT_TRUE(b.proof != nullptr);
    EXPECT_TRUE(*a.proof == *b.proof);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, RaceDeterminism,
    testing::Combine(testing::Values(ParallelMode::kPortfolio,
                                     ParallelMode::kHybrid),
                     testing::Values(std::size_t{1}, std::size_t{2},
                                     std::size_t{4})));

// Split mode must be byte-for-byte unaffected by the racing machinery:
// same timing, same message count as always (guards against accidental
// behavior changes from the multicast refactor).
TEST(RaceDeterminism2, SplitModeUnchangedByRaceKnobs) {
  const CnfFormula f = gen::pigeonhole_unsat(8);
  GridSatConfig split = race_config(ParallelMode::kSplit);
  GridSatConfig split_wide = race_config(ParallelMode::kSplit, 4);
  Campaign a(f, "east", testbed(4), split);
  Campaign b(f, "east", testbed(4), split_wide);
  const GridSatResult ra = a.run();
  const GridSatResult rb = b.run();
  ASSERT_EQ(ra.status, rb.status);
  EXPECT_DOUBLE_EQ(ra.seconds, rb.seconds);
  EXPECT_EQ(ra.messages, rb.messages);
  EXPECT_EQ(ra.races_cancelled, 0u);
  EXPECT_EQ(rb.races_cancelled, 0u);
}

}  // namespace
}  // namespace gridsat::core
