// Randomized stress for the discrete-event engine: tens of thousands of
// events scheduled, cancelled, and rescheduled from inside handlers must
// fire in nondecreasing time order with exact bookkeeping, including at a
// 1000-host (env-scalable) message workload.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "sim/message_bus.hpp"
#include "sim/names.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace gridsat::sim {
namespace {

TEST(EngineStressTest, RandomScheduleCancelRespectsOrder) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SimEngine engine;
    util::Xoshiro256 rng(seed);
    std::vector<double> fire_times;
    std::vector<EventId> cancellable;
    std::size_t scheduled = 0;
    std::size_t cancelled = 0;

    std::function<void()> spawn = [&] {
      fire_times.push_back(engine.now());
      // Each firing may schedule up to 3 more and cancel one pending.
      const std::size_t children = rng.below(4);
      for (std::size_t i = 0; i < children && scheduled < 20000; ++i) {
        ++scheduled;
        const EventId id =
            engine.schedule_in(rng.uniform() * 10.0, spawn);
        if (rng.chance(0.2)) cancellable.push_back(id);
      }
      if (!cancellable.empty() && rng.chance(0.3)) {
        engine.cancel(cancellable.back());
        cancellable.pop_back();
        ++cancelled;
      }
    };
    for (int i = 0; i < 50; ++i) {
      ++scheduled;
      engine.schedule_at(rng.uniform() * 5.0, spawn);
    }
    engine.run();

    EXPECT_TRUE(engine.empty()) << "seed " << seed;
    for (std::size_t i = 1; i < fire_times.size(); ++i) {
      ASSERT_GE(fire_times[i], fire_times[i - 1])
          << "time went backwards at event " << i << " seed " << seed;
    }
    // Fired + cancelled accounts for everything scheduled. (A cancel may
    // target an already-fired event; those still count as fired, so only
    // an upper bound holds for cancelled.)
    EXPECT_LE(engine.events_fired(), scheduled);
    EXPECT_GE(engine.events_fired() + cancelled, scheduled);
    EXPECT_GT(fire_times.size(), 100u) << "stress run fizzled";
  }
}

TEST(EngineStressTest, ManyEqualTimestampsKeepFifoOrder) {
  SimEngine engine;
  std::vector<int> order;
  for (int i = 0; i < 5000; ++i) {
    engine.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EngineStressTest, CancelStormLeavesEngineConsistent) {
  SimEngine engine;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(engine.schedule_at(static_cast<double>(i), [&] { ++fired; }));
  }
  // Cancel every other event, some twice.
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    engine.cancel(ids[i]);
    engine.cancel(ids[i]);
  }
  engine.run();
  EXPECT_EQ(fired, 5000);
  EXPECT_TRUE(engine.empty());
}

/// A campaign-shaped message workload at N hosts: every host runs a
/// ~1 s quantum loop, reports to the master each quantum, and the
/// master broadcasts a clause batch to every host every 5 virtual
/// seconds. N defaults to 1000 and scales with GRIDSAT_STRESS_HOSTS
/// (CI runs this elevated under TSan).
TEST(EngineStressTest, SustainsElevatedHostCount) {
  std::size_t n_hosts = 1000;
  if (const char* env = std::getenv("GRIDSAT_STRESS_HOSTS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) n_hosts = static_cast<std::size_t>(parsed);
  }
  constexpr std::size_t kSites = 16;
  constexpr double kHorizon = 60.0;

  SimEngine engine;
  NameTable names;
  Network net(names);
  MessageBus bus(engine, net);
  util::Xoshiro256 rng(42);

  const std::uint32_t master = names.intern("master");
  const std::uint32_t master_site = names.intern("site0");
  const std::uint32_t report = names.intern("REPORT");
  const std::uint32_t clauses = names.intern("CLAUSES");
  std::vector<std::uint32_t> endpoint(n_hosts);
  std::vector<std::uint32_t> site(n_hosts);
  for (std::size_t i = 0; i < n_hosts; ++i) {
    endpoint[i] = names.intern("client:g" + std::to_string(i));
    site[i] = names.intern("site" + std::to_string(i % kSites));
  }

  std::uint64_t quanta = 0;
  std::uint64_t reports = 0;
  std::uint64_t broadcast_deliveries = 0;

  std::function<void(std::size_t)> quantum = [&](std::size_t i) {
    ++quanta;
    if (engine.now() >= kHorizon) return;
    MessageHeader h;
    h.from = endpoint[i];
    h.from_site = site[i];
    h.to = master;
    h.to_site = master_site;
    h.kind = report;
    h.bytes = 96;
    bus.send(h, [&reports] { ++reports; });
    engine.schedule_in(0.8 + rng.uniform() * 0.4,
                       [&quantum, i] { quantum(i); });
  };
  std::function<void()> broadcast = [&] {
    if (engine.now() >= kHorizon) return;
    DeliveryBatch batch(bus, master, master_site, clauses, 4096);
    for (std::size_t i = 0; i < n_hosts; ++i) {
      batch.add(endpoint[i], site[i],
                [&broadcast_deliveries] { ++broadcast_deliveries; });
    }
    // All inter-site recipients share one link class: the whole storm
    // costs O(sites) queue operations, not O(hosts).
    EXPECT_LE(batch.flush(), kSites + 1);
    engine.schedule_in(5.0, broadcast);
  };

  for (std::size_t i = 0; i < n_hosts; ++i) {
    engine.schedule_at(rng.uniform() * 1.0, [&quantum, i] { quantum(i); });
  }
  engine.schedule_at(5.0, broadcast);
  engine.run();

  EXPECT_GE(engine.now(), kHorizon - 1.0);
  // Every host ticked for the whole horizon (~60 quanta each).
  EXPECT_GE(quanta, n_hosts * 40);
  EXPECT_GE(broadcast_deliveries, 11 * n_hosts);
  // Broadcast deliveries ride shared group events: total engine events
  // is quanta + reports + the broadcast scheduler ticks + at most
  // (sites + 1) group events per broadcast — NOT one per delivery.
  EXPECT_GE(engine.events_fired(), quanta + reports);
  EXPECT_LE(engine.events_fired(),
            quanta + reports + 13 * (kSites + 2));
  // Slab stays bounded by peak concurrency (one quantum + a few
  // in-flight messages per host), not by the million-ish total events.
  EXPECT_LE(engine.slab_slots(), 4 * n_hosts + 64);
  EXPECT_GT(bus.messages_sent(), quanta);
}

}  // namespace
}  // namespace gridsat::sim
