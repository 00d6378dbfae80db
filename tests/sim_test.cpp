// Tests for the discrete-event substrate: engine ordering/cancellation,
// event-id generation checks, firing order against a linear-scan
// reference, callback storage, name interning, host load traces, network
// transfer arithmetic, message bus accounting and fan-out batching, and
// the batch-queue (Blue Horizon) model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/batch.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"
#include "sim/host.hpp"
#include "sim/message_bus.hpp"
#include "sim/names.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace gridsat::sim {
namespace {

TEST(EngineTest, FiresInTimeOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
  EXPECT_EQ(engine.events_fired(), 3u);
}

TEST(EngineTest, TiesFireInSchedulingOrder) {
  SimEngine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineTest, RelativeScheduling) {
  SimEngine engine;
  double fired_at = -1;
  engine.schedule_at(2.0, [&] {
    engine.schedule_in(3.0, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(EngineTest, CancelPreventsFiring) {
  SimEngine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(1.0, [&] { fired = true; });
  engine.cancel(id);
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(engine.empty());
  engine.cancel(id);  // double-cancel is a no-op
}

TEST(EngineTest, RunUntilStopsBeforeLaterEvents) {
  SimEngine engine;
  std::vector<double> fired;
  engine.schedule_at(1.0, [&] { fired.push_back(1.0); });
  engine.schedule_at(2.0, [&] { fired.push_back(2.0); });
  engine.schedule_at(10.0, [&] { fired.push_back(10.0); });
  engine.run_until(2.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(EngineTest, PastTimesClampToNow) {
  SimEngine engine;
  double fired_at = -1;
  engine.schedule_at(5.0, [&] {
    engine.schedule_at(1.0, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(EngineTest, EventsScheduledDuringRunAreProcessed) {
  SimEngine engine;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) engine.schedule_in(1.0, chain);
  };
  engine.schedule_at(0.0, chain);
  engine.run();
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(engine.now(), 99.0);
}

TEST(EngineTest, RunUntilAdvancesClockToDeadline) {
  SimEngine engine;
  engine.schedule_at(1.0, [] {});
  engine.run_until(7.5);  // deadline past the last event
  EXPECT_DOUBLE_EQ(engine.now(), 7.5);
  engine.run_until(7.5);  // idempotent on an empty queue
  EXPECT_DOUBLE_EQ(engine.now(), 7.5);
}

TEST(EngineTest, CancelAfterFireIsNoOpDespiteSlotReuse) {
  SimEngine engine;
  bool survivor_fired = false;
  const EventId stale = engine.schedule_at(1.0, [] {});
  engine.run();  // `stale` fires; its slot returns to the free list
  // The survivor recycles the same slot but carries a new generation.
  const EventId survivor =
      engine.schedule_at(2.0, [&] { survivor_fired = true; });
  EXPECT_EQ(stale & 0xffffffffu, survivor & 0xffffffffu);  // same slot
  EXPECT_NE(stale, survivor);                              // new generation
  engine.cancel(stale);  // must NOT kill the survivor
  engine.run();
  EXPECT_TRUE(survivor_fired);
}

TEST(EngineTest, CancelDuringFireIsNoOp) {
  SimEngine engine;
  EventId self = kNoEvent;
  bool later_fired = false;
  self = engine.schedule_at(1.0, [&] {
    engine.cancel(self);  // cancelling the event being fired
    engine.schedule_in(1.0, [&] { later_fired = true; });
  });
  engine.run();
  EXPECT_TRUE(later_fired);
  EXPECT_EQ(engine.events_fired(), 2u);
}

TEST(EngineTest, SlabBoundedByPeakConcurrency) {
  SimEngine engine;
  // A long sequential chain keeps at most two events pending at once, so
  // the slab must stay tiny no matter how many events ever fire.
  std::function<void()> chain;
  int count = 0;
  chain = [&] {
    if (++count < 5000) engine.schedule_in(1.0, chain);
  };
  engine.schedule_at(0.0, chain);
  engine.run();
  EXPECT_EQ(count, 5000);
  EXPECT_LE(engine.slab_slots(), 4u);
}

/// Reference pending set for the exact-order check: a flat vector scanned
/// linearly for the minimum (time, scheduling sequence) on every pop.
/// Same contract as SimEngine — past times clamp to now, ids are nonzero,
/// cancelling a fired or cancelled id is a no-op — with none of its
/// machinery.
class LinearScanEngine {
 public:
  EventId schedule_at(SimTime at, std::function<void()> fn) {
    pending_.push_back(Entry{std::max(at, now_), ++last_id_, std::move(fn)});
    return last_id_;
  }
  EventId schedule_in(SimTime delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }
  void cancel(EventId id) {
    std::erase_if(pending_, [id](const Entry& e) { return e.id == id; });
  }
  [[nodiscard]] SimTime now() const { return now_; }
  void run() {
    while (!pending_.empty()) {
      const auto next = std::min_element(
          pending_.begin(), pending_.end(), [](const Entry& a, const Entry& b) {
            return a.at != b.at ? a.at < b.at : a.id < b.id;
          });
      Entry e = std::move(*next);
      pending_.erase(next);
      now_ = e.at;
      e.fn();
    }
  }

 private:
  struct Entry {
    SimTime at;
    EventId id;  ///< scheduling sequence, doubles as the handle
    std::function<void()> fn;
  };
  std::vector<Entry> pending_;
  SimTime now_ = 0.0;
  EventId last_id_ = kNoEvent;
};

/// Drives a randomized 10k-event workload (fan-out, nested scheduling,
/// sporadic cancellation) and fingerprints the firing order.
template <class Engine>
std::vector<double> replay_fingerprint(std::uint64_t seed) {
  Engine engine;
  util::Xoshiro256 rng(seed);
  std::vector<double> trace;
  int budget = 10000;
  // Tags name the spawn path; unsigned so deep chains wrap, not overflow.
  std::function<void(std::uint64_t)> spawn = [&](std::uint64_t tag) {
    trace.push_back(engine.now());
    trace.push_back(static_cast<double>(tag));
    if (budget <= 0) return;
    const std::uint64_t fan = rng.below(4);
    EventId last = kNoEvent;
    for (std::uint64_t i = 0; i < fan && budget > 0; ++i) {
      --budget;
      const std::uint64_t child = tag * 10 + i;
      last = engine.schedule_in(rng.uniform(0.0, 50.0),
                                [&spawn, child] { spawn(child); });
    }
    if (last != kNoEvent && rng.below(8) == 0) engine.cancel(last);
  };
  for (std::uint64_t root = 0; root < 32; ++root) {
    --budget;
    engine.schedule_at(rng.uniform(0.0, 10.0),
                       [&spawn, root] { spawn(root); });
  }
  engine.run();
  return trace;
}

TEST(EngineTest, TenThousandEventReplayIsDeterministic) {
  const auto first = replay_fingerprint<SimEngine>(99);
  const auto second = replay_fingerprint<SimEngine>(99);
  EXPECT_GT(first.size(), 10000u);
  EXPECT_EQ(first, second);
}

TEST(EngineTest, FiresInReferenceOrder) {
  // The heap must fire in exactly the (time, sequence) order of a naive
  // linear scan, under nested scheduling and cancels alike.
  for (const std::uint64_t seed : {7u, 21u, 99u, 1003u}) {
    EXPECT_EQ(replay_fingerprint<SimEngine>(seed),
              replay_fingerprint<LinearScanEngine>(seed))
        << "seed " << seed;
  }
}

TEST(CallbackTest, InlineCaptureAvoidsHeap) {
  struct SmallFn {
    int* p;
    void operator()() const { ++*p; }
  };
  struct BigFn {
    double payload[16];
    void operator()() const {}
  };
  static_assert(Callback::fits_inline<SmallFn>());
  static_assert(!Callback::fits_inline<BigFn>());
  int hits = 0;
  Callback cb(SmallFn{&hits});
  ASSERT_TRUE(cb);
  cb();
  EXPECT_EQ(hits, 1);
  Callback moved = std::move(cb);
  moved();
  EXPECT_EQ(hits, 2);
}

TEST(CallbackTest, OversizedCaptureFallsBackToHeap) {
  struct Big {
    double payload[16] = {};  // 128 bytes: over the inline buffer
  };
  Big big;
  big.payload[7] = 42.0;
  double seen = 0.0;
  double* out = &seen;
  Callback cb([big, out] { *out = big.payload[7]; });
  Callback moved = std::move(cb);
  EXPECT_FALSE(cb);  // NOLINT(bugprone-use-after-move): moved-from is empty
  moved();
  EXPECT_DOUBLE_EQ(seen, 42.0);
}

TEST(CallbackTest, DestroysCaptureExactlyOnce) {
  auto token = std::make_shared<int>(5);
  std::weak_ptr<int> watch = token;
  {
    Callback cb([token = std::move(token)] { (void)token; });
    Callback moved = std::move(cb);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(HostTest, DedicatedHostAlwaysFullSpeed) {
  HostSpec spec;
  spec.speed = 1000.0;
  Host host(spec);
  for (double t : {0.0, 100.0, 10000.0}) {
    EXPECT_DOUBLE_EQ(host.effective_speed(t), 1000.0);
  }
}

TEST(HostTest, SharedHostFluctuatesAroundTarget) {
  HostSpec spec;
  spec.speed = 1000.0;
  spec.base_load = 0.3;
  spec.load_jitter = 0.1;
  spec.seed = 7;
  Host host(spec);
  double sum = 0;
  const int samples = 200;
  for (int i = 0; i < samples; ++i) {
    const double a = host.availability(i * Host::kSegmentSeconds);
    EXPECT_GE(a, Host::kMinAvailability);
    EXPECT_LE(a, 1.0);
    sum += a;
  }
  EXPECT_NEAR(sum / samples, 0.7, 0.1);
}

TEST(HostTest, TraceIsDeterministicAndStable) {
  HostSpec spec;
  spec.base_load = 0.2;
  spec.load_jitter = 0.15;
  spec.seed = 42;
  Host a(spec);
  Host b(spec);
  // Query out of order; values must match a fresh in-order host.
  const double v1 = a.availability(600.0);
  const double v2 = a.availability(0.0);
  EXPECT_DOUBLE_EQ(b.availability(0.0), v2);
  EXPECT_DOUBLE_EQ(b.availability(600.0), v1);
  EXPECT_DOUBLE_EQ(a.availability(600.0), v1);  // stable on re-query
}

TEST(NetworkTest, IntraVersusInterSite) {
  NameTable names;
  Network net(names);
  const double intra = net.transfer_time(1024 * 1024, "utk", "utk");
  const double inter = net.transfer_time(1024 * 1024, "utk", "ucsd");
  EXPECT_LT(intra, inter);
}

TEST(NetworkTest, TransferTimeArithmetic) {
  NameTable names;
  Network net(names);
  LinkSpec link;
  link.latency_s = 0.5;
  link.bandwidth_bps = 1000.0;
  net.set_link("a", "b", link);
  EXPECT_DOUBLE_EQ(net.transfer_time(2000, "a", "b"), 0.5 + 2.0);
  EXPECT_DOUBLE_EQ(net.transfer_time(2000, "b", "a"), 0.5 + 2.0);
}

TEST(NetworkTest, LoopbackIsCheap) {
  NameTable names;
  Network net(names);
  EXPECT_LT(net.transfer_time(100 * 1024 * 1024, "x", "x", true), 0.001);
}

TEST(NetworkTest, BigSubproblemTransferDominates) {
  // The paper's split payloads reach 100s of MBytes; over the wide area
  // they must cost minutes, not milliseconds.
  NameTable names;
  Network net(names);
  const double t = net.transfer_time(200 * 1024 * 1024, "utk", "ucsd");
  EXPECT_GT(t, 60.0);
}

TEST(NetworkTest, IdAndStringOverloadsAgree) {
  NameTable names;
  Network net(names);
  LinkSpec link;
  link.latency_s = 0.25;
  link.bandwidth_bps = 4096.0;
  net.set_link("utk", "ucsd", link);
  const std::uint32_t utk = names.lookup("utk");
  const std::uint32_t ucsd = names.lookup("ucsd");
  ASSERT_NE(utk, NameTable::kInvalid);
  ASSERT_NE(ucsd, NameTable::kInvalid);
  EXPECT_DOUBLE_EQ(net.transfer_time(8192, "utk", "ucsd"),
                   net.transfer_time(8192, utk, ucsd));
  // Same-name but never-interned sites still read as intra-site.
  EXPECT_DOUBLE_EQ(net.transfer_time(1000, "ghost", "ghost"),
                   net.transfer_time(1000, utk, utk));
}

TEST(NameTableTest, InternIsIdempotentAndDense) {
  NameTable names;
  const std::uint32_t a = names.intern("alpha");
  const std::uint32_t b = names.intern("beta");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(names.intern("alpha"), a);
  EXPECT_EQ(names.lookup("beta"), b);
  EXPECT_EQ(names.lookup("gamma"), NameTable::kInvalid);
  EXPECT_EQ(names.name(a), "alpha");
  EXPECT_EQ(names.size(), 2u);
}

TEST(MessageBusTest, DeliversAfterTransferTime) {
  SimEngine engine;
  NameTable names;
  Network net(names);
  MessageBus bus(engine, net);
  LinkSpec link;
  link.latency_s = 1.0;
  link.bandwidth_bps = 100.0;
  net.set_link("a", "b", link);
  double delivered_at = -1;
  const double delay = bus.send("x", "a", "y", "b", "TEST", 300,
                                [&] { delivered_at = engine.now(); });
  EXPECT_DOUBLE_EQ(delay, 4.0);
  engine.run();
  EXPECT_DOUBLE_EQ(delivered_at, 4.0);
  EXPECT_EQ(bus.messages_sent(), 1u);
  EXPECT_EQ(bus.bytes_sent(), 300u);
}

TEST(MessageBusTest, TraceRecordsProtocol) {
  SimEngine engine;
  NameTable names;
  Network net(names);
  MessageBus bus(engine, net);
  bus.enable_trace();
  bus.send("client:a", "utk", "master", "ucsd", "SPLIT_REQUEST", 96, [] {});
  engine.run();
  ASSERT_EQ(bus.trace().size(), 1u);
  EXPECT_EQ(bus.trace()[0].kind, "SPLIT_REQUEST");
  EXPECT_EQ(bus.trace()[0].from, "client:a");
  EXPECT_EQ(bus.trace()[0].to, "master");
  EXPECT_GT(bus.trace()[0].delivered_at, bus.trace()[0].sent_at);
}

TEST(MessageBusTest, TraceRecordsOnlyWhenEnabled) {
  SimEngine engine;
  NameTable names;
  Network net(names);
  MessageBus bus(engine, net);
  bus.send("x", "a", "y", "b", "TEST", 10, [] {});
  engine.run();
  EXPECT_TRUE(bus.trace().empty());
  EXPECT_EQ(bus.messages_sent(), 1u);  // counters still accrue
}

TEST(MessageBusTest, SendMultiGroupsByLinkClass) {
  SimEngine engine;
  NameTable names;
  Network net(names);
  MessageBus bus(engine, net);
  const std::uint32_t master = names.intern("master");
  const std::uint32_t utk = names.intern("utk");
  const std::uint32_t ucsd = names.intern("ucsd");
  std::vector<int> order;
  std::vector<MessageBus::Recipient> to;
  // Two intra-site recipients share one link class, one inter-site.
  to.push_back({names.intern("c0"), utk, Callback([&] { order.push_back(0); })});
  to.push_back({names.intern("c1"), ucsd,
                Callback([&] { order.push_back(1); })});
  to.push_back({names.intern("c2"), utk, Callback([&] { order.push_back(2); })});
  const std::size_t events =
      bus.send_multi(master, utk, names.intern("CLAUSES"), 4096,
                     std::move(to));
  EXPECT_EQ(events, 2u);  // one per distinct transfer time
  EXPECT_EQ(bus.messages_sent(), 3u);  // accounting stays per-recipient
  EXPECT_EQ(bus.bytes_sent(), 3u * 4096u);
  engine.run();
  // Intra-site group (faster link) first, recipient order inside it.
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(MessageBusTest, DeliveryBatchFlushesAndIsReusable) {
  SimEngine engine;
  NameTable names;
  Network net(names);
  MessageBus bus(engine, net);
  const std::uint32_t utk = names.intern("utk");
  int delivered = 0;
  DeliveryBatch batch(bus, names.intern("master"), utk,
                      names.intern("CLAUSES"), 128);
  EXPECT_EQ(batch.flush(), 0u);  // empty flush schedules nothing
  for (int i = 0; i < 5; ++i) {
    batch.add(names.intern("c" + std::to_string(i)), utk,
              [&] { ++delivered; });
  }
  EXPECT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch.flush(), 1u);  // same link class: one engine event
  EXPECT_EQ(batch.size(), 0u);
  batch.add(names.intern("c0"), utk, [&] { ++delivered; });
  EXPECT_EQ(batch.flush(), 1u);
  engine.run();
  EXPECT_EQ(delivered, 6);
}

TEST(BatchTest, JobWaitsThenStarts) {
  SimEngine engine;
  BatchSystemSpec spec;
  spec.mean_queue_wait_s = 100.0;
  spec.seed = 3;
  BatchSystem batch(engine, spec);
  double started_at = -1;
  BatchJobRequest request;
  request.max_duration_s = 50.0;
  request.on_start = [&] { started_at = engine.now(); };
  const auto job = batch.submit(std::move(request));
  engine.run();
  EXPECT_GE(started_at, 50.0);  // wait >= half the mean
  EXPECT_DOUBLE_EQ(batch.queue_wait(job), 0.0);  // job gone after expiry
}

TEST(BatchTest, ExpiryFires) {
  SimEngine engine;
  BatchSystemSpec spec;
  spec.mean_queue_wait_s = 10.0;
  BatchSystem batch(engine, spec);
  double started_at = -1;
  double expired_at = -1;
  BatchJobRequest request;
  request.max_duration_s = 20.0;
  request.on_start = [&] { started_at = engine.now(); };
  request.on_expire = [&] { expired_at = engine.now(); };
  batch.submit(std::move(request));
  engine.run();
  ASSERT_GE(started_at, 0.0);
  EXPECT_DOUBLE_EQ(expired_at, started_at + 20.0);
}

TEST(BatchTest, CancelBeforeStartSuppressesJob) {
  SimEngine engine;
  BatchSystemSpec spec;
  spec.mean_queue_wait_s = 100.0;
  BatchSystem batch(engine, spec);
  bool started = false;
  BatchJobRequest request;
  request.on_start = [&] { started = true; };
  const auto job = batch.submit(std::move(request));
  batch.cancel(job);
  engine.run();
  EXPECT_FALSE(started);
}

TEST(BatchTest, CancelWhileRunningSkipsExpireCallback) {
  SimEngine engine;
  BatchSystemSpec spec;
  spec.mean_queue_wait_s = 10.0;
  BatchSystem batch(engine, spec);
  bool expired = false;
  BatchJobRequest request;
  request.max_duration_s = 1000.0;
  request.on_expire = [&] { expired = true; };
  const auto job = batch.submit(std::move(request));
  // Cancel shortly after it starts.
  engine.schedule_at(60.0, [&] {
    if (batch.running(job)) batch.cancel(job);
  });
  engine.run();
  EXPECT_FALSE(expired);
}

TEST(BatchTest, QueueWaitsAreSeededAndSpread) {
  SimEngine engine;
  BatchSystemSpec spec;
  spec.mean_queue_wait_s = 33.0 * 3600.0;
  spec.seed = 11;
  BatchSystem batch(engine, spec);
  std::vector<double> waits;
  for (int i = 0; i < 20; ++i) {
    const double submitted = engine.now();
    double start = -1;
    BatchJobRequest request;
    request.max_duration_s = 1.0;
    request.on_start = [&engine, &start] { start = engine.now(); };
    batch.submit(std::move(request));
    engine.run();
    waits.push_back(start - submitted);
  }
  // All waits at least half the mean; they differ (stochastic queue).
  double min_wait = waits[0];
  double max_wait = waits[0];
  for (const double w : waits) {
    EXPECT_GE(w, 0.5 * spec.mean_queue_wait_s - 1.0);
    min_wait = std::min(min_wait, w);
    max_wait = std::max(max_wait, w);
  }
  EXPECT_GT(max_wait - min_wait, 3600.0);
}

}  // namespace
}  // namespace gridsat::sim
