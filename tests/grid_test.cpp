// Tests for the grid information layer: NWS-analog forecaster and the
// resource directory / ranking.
#include <gtest/gtest.h>

#include "grid/directory.hpp"
#include "grid/forecaster.hpp"
#include "util/rng.hpp"

namespace gridsat::grid {
namespace {

TEST(ForecasterTest, OptimisticBeforeData) {
  Forecaster f;
  EXPECT_DOUBLE_EQ(f.forecast(), 1.0);
}

TEST(ForecasterTest, ConvergesOnConstantSeries) {
  Forecaster f;
  for (int i = 0; i < 50; ++i) f.observe(0.6);
  EXPECT_NEAR(f.forecast(), 0.6, 1e-9);
}

TEST(ForecasterTest, TracksSlowDrift) {
  Forecaster f;
  double value = 0.9;
  for (int i = 0; i < 100; ++i) {
    f.observe(value);
    value = std::max(0.1, value - 0.005);
  }
  EXPECT_NEAR(f.forecast(), value, 0.1);
}

TEST(ForecasterTest, NoisySeriesPrefersSmoothing) {
  // With heavy symmetric noise around 0.5, a windowed predictor beats
  // last-value; the forecast should sit near the true mean.
  Forecaster f;
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 500; ++i) {
    f.observe(0.5 + 0.3 * (rng.uniform() - 0.5));
  }
  EXPECT_NEAR(f.forecast(), 0.5, 0.12);
  EXPECT_NE(f.best_predictor(), "last");
}

TEST(ForecasterTest, SamplesCounted) {
  Forecaster f;
  for (int i = 0; i < 7; ++i) f.observe(1.0);
  EXPECT_EQ(f.samples(), 7u);
}

TEST(DirectoryTest, RanksBySpeedTimesForecast) {
  ResourceDirectory dir;
  sim::HostSpec fast;
  fast.name = "fast";
  fast.speed = 8000;
  sim::HostSpec slow;
  slow.name = "slow";
  slow.speed = 2000;
  const std::size_t i_fast = dir.add(fast);
  const std::size_t i_slow = dir.add(slow);
  EXPECT_GT(dir.rank(i_fast), dir.rank(i_slow));
  // Degrade the fast host's observed availability below 1/4 and the
  // ranking flips.
  for (int i = 0; i < 50; ++i) dir.at(i_fast).forecaster.observe(0.1);
  EXPECT_LT(dir.rank(i_fast), dir.rank(i_slow));
}

TEST(DirectoryTest, BestInStateRespectsMemoryFloor) {
  ResourceDirectory dir;
  sim::HostSpec big;
  big.name = "big";
  big.speed = 1000;
  big.memory_bytes = 64 * 1024 * 1024;
  sim::HostSpec tiny;
  tiny.name = "tiny";
  tiny.speed = 9000;
  tiny.memory_bytes = 1024;
  const std::size_t i_big = dir.add(big);
  const std::size_t i_tiny = dir.add(tiny);
  dir.at(i_big).state = HostState::kIdle;
  dir.at(i_tiny).state = HostState::kIdle;
  // Without a floor the tiny-but-fast host wins; with the paper's memory
  // floor it is skipped.
  EXPECT_EQ(dir.best_in_state(HostState::kIdle, 0),
            static_cast<std::ptrdiff_t>(i_tiny));
  EXPECT_EQ(dir.best_in_state(HostState::kIdle, 2 * 1024 * 1024),
            static_cast<std::ptrdiff_t>(i_big));
}

TEST(DirectoryTest, BestInStateFiltersByState) {
  ResourceDirectory dir;
  sim::HostSpec spec;
  spec.speed = 1000;
  const std::size_t a = dir.add(spec);
  const std::size_t b = dir.add(spec);
  dir.at(a).state = HostState::kBusy;
  dir.at(b).state = HostState::kIdle;
  EXPECT_EQ(dir.best_in_state(HostState::kIdle, 0),
            static_cast<std::ptrdiff_t>(b));
  dir.at(b).state = HostState::kBusy;
  EXPECT_EQ(dir.best_in_state(HostState::kIdle, 0), -1);
}

TEST(DirectoryTest, SiteFilterAndLowestIndexWinsTies) {
  ResourceDirectory dir;
  sim::HostSpec spec;
  spec.speed = 1000;
  // Four equally ranked idle hosts, alternating between site ids 7 and 9.
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t index = dir.add(spec);
    dir.at(index).site = i % 2 == 0 ? 7 : 9;
    dir.at(index).state = HostState::kIdle;
  }
  // Equal ranks: the strict `>` keeps the lowest index, with or without
  // a site filter.
  EXPECT_EQ(dir.best_in_state(HostState::kIdle, 0), 0);
  EXPECT_EQ(dir.best_in_state(HostState::kIdle, 0, 7), 0);
  EXPECT_EQ(dir.best_in_state(HostState::kIdle, 0, 9), 1);
  EXPECT_EQ(dir.best_in_state(HostState::kIdle, 0, 5), -1);
  EXPECT_EQ(dir.count_in_state(HostState::kIdle), 4u);
  EXPECT_EQ(dir.count_in_state(HostState::kIdle, 9), 2u);
  EXPECT_EQ(dir.count_in_state(HostState::kIdle, 5), 0u);
  // A strictly better host wins its own site and the whole pool, but
  // never a site it does not belong to.
  dir.at(3).spec.speed = 2000;
  EXPECT_EQ(dir.best_in_state(HostState::kIdle, 0, 9), 3);
  EXPECT_EQ(dir.best_in_state(HostState::kIdle, 0), 3);
  EXPECT_EQ(dir.best_in_state(HostState::kIdle, 0, 7), 0);
  dir.at(3).state = HostState::kBusy;
  EXPECT_EQ(dir.best_in_state(HostState::kIdle, 0, 9), 1);
  EXPECT_EQ(dir.count_in_state(HostState::kBusy, 9), 1u);
  EXPECT_EQ(dir.count_in_state(HostState::kBusy, 7), 0u);
}

TEST(DirectoryTest, CountsStates) {
  ResourceDirectory dir;
  sim::HostSpec spec;
  for (int i = 0; i < 5; ++i) dir.add(spec);
  dir.at(0).state = HostState::kBusy;
  dir.at(1).state = HostState::kBusy;
  dir.at(2).state = HostState::kIdle;
  EXPECT_EQ(dir.count_in_state(HostState::kBusy), 2u);
  EXPECT_EQ(dir.count_in_state(HostState::kIdle), 1u);
  EXPECT_EQ(dir.count_in_state(HostState::kFree), 2u);
}

TEST(DirectoryTest, StateNames) {
  EXPECT_STREQ(to_string(HostState::kFree), "free");
  EXPECT_STREQ(to_string(HostState::kReserved), "reserved");
  EXPECT_STREQ(to_string(HostState::kDead), "dead");
}

}  // namespace
}  // namespace gridsat::grid
