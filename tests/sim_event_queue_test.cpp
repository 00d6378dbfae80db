// Unit tests for QuadHeap, the discrete-event kernel's pending-event set:
// (time, sequence) pop order, the slot -> position backlinks the engine
// cancels through, eager removal from every heap position (including the
// replacement that must sift up), and random push/pop/remove interleavings
// checked against a linear-scan reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace gridsat::sim {
namespace {

/// A heap plus its backlink array, with one slot per pushed entry and
/// sequence numbers assigned in push order, as SimEngine does.
class HeapHarness {
 public:
  HeapHarness() : heap_(where_) {}

  std::uint32_t push(SimTime at) {
    const auto slot = static_cast<std::uint32_t>(where_.size());
    where_.push_back(kNotQueued);
    heap_.push(QueuedEvent{at, next_seq_++, slot});
    return slot;
  }

  QuadHeap& heap() { return heap_; }
  [[nodiscard]] const std::vector<std::uint32_t>& where() const {
    return where_;
  }

  /// Slot whose entry sits at heap position `pos`.
  [[nodiscard]] std::uint32_t slot_at(std::uint32_t pos) const {
    const auto it = std::find(where_.begin(), where_.end(), pos);
    EXPECT_NE(it, where_.end()) << "no slot at position " << pos;
    return static_cast<std::uint32_t>(it - where_.begin());
  }

  /// Pops everything, returning the entries in pop order.
  std::vector<QueuedEvent> drain() {
    std::vector<QueuedEvent> out;
    while (!heap_.empty()) {
      out.push_back(heap_.pop_min());
      EXPECT_EQ(where_[out.back().slot], kNotQueued);
    }
    return out;
  }

 private:
  std::vector<std::uint32_t> where_;
  QuadHeap heap_;
  std::uint64_t next_seq_ = 0;
};

bool strictly_ordered(const std::vector<QueuedEvent>& popped) {
  return std::adjacent_find(popped.begin(), popped.end(),
                            [](const QueuedEvent& a, const QueuedEvent& b) {
                              return !event_before(a, b);
                            }) == popped.end();
}

/// Every queued slot maps to a distinct in-range position, the other slots
/// are kNotQueued, and the minimum sits at position 0.
void expect_backlinks_consistent(HeapHarness& h) {
  std::set<std::uint32_t> positions;
  for (const std::uint32_t pos : h.where()) {
    if (pos == kNotQueued) continue;
    EXPECT_LT(pos, h.heap().size());
    EXPECT_TRUE(positions.insert(pos).second) << "position " << pos
                                              << " claimed twice";
  }
  EXPECT_EQ(positions.size(), h.heap().size());
  if (!h.heap().empty()) {
    EXPECT_EQ(h.where()[h.heap().min().slot], 0u);
  }
}

TEST(QuadHeapTest, PopsInTimeThenSequenceOrder) {
  HeapHarness h;
  util::Xoshiro256 rng(5);
  // Few distinct times, so most comparisons fall through to the sequence.
  for (int i = 0; i < 2000; ++i) {
    h.push(static_cast<SimTime>(rng.below(16)));
  }
  EXPECT_EQ(h.heap().size(), 2000u);
  const auto popped = h.drain();
  ASSERT_EQ(popped.size(), 2000u);
  EXPECT_TRUE(strictly_ordered(popped));
}

TEST(QuadHeapTest, BacklinksTrackEveryMove) {
  HeapHarness h;
  util::Xoshiro256 rng(17);
  std::vector<std::uint32_t> live;
  for (int step = 0; step < 3000; ++step) {
    const auto op = rng.below(4);
    if (op < 2 || live.empty()) {
      live.push_back(h.push(rng.uniform(0.0, 100.0)));
    } else if (op == 2) {
      const auto pick = static_cast<std::size_t>(rng.below(live.size()));
      h.heap().remove_slot(live[pick]);
      EXPECT_EQ(h.where()[live[pick]], kNotQueued);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const QueuedEvent top = h.heap().pop_min();
      std::erase(live, top.slot);
    }
    if (step % 97 == 0) expect_backlinks_consistent(h);
  }
  expect_backlinks_consistent(h);
  EXPECT_EQ(h.heap().size(), live.size());
}

TEST(QuadHeapTest, RemovesFromEveryPositionKeepingOrder) {
  // Sizes up to 40 give full and partial last levels of a 4-ary tree; each
  // position is removed once (root, inner, leaf, and the last entry).
  for (std::uint32_t n = 1; n <= 40; ++n) {
    for (std::uint32_t pos = 0; pos < n; ++pos) {
      HeapHarness h;
      util::Xoshiro256 rng(n * 100 + pos);
      std::vector<QueuedEvent> reference;
      for (std::uint32_t i = 0; i < n; ++i) {
        const SimTime at = static_cast<SimTime>(rng.below(8));
        reference.push_back(QueuedEvent{at, i, h.push(at)});
      }
      const std::uint32_t victim = h.slot_at(pos);
      h.heap().remove_slot(victim);
      EXPECT_EQ(h.where()[victim], kNotQueued);
      expect_backlinks_consistent(h);

      std::erase_if(reference,
                    [victim](const QueuedEvent& e) { return e.slot == victim; });
      std::sort(reference.begin(), reference.end(), event_before);
      const auto popped = h.drain();
      ASSERT_EQ(popped.size(), reference.size()) << "n " << n << " pos " << pos;
      for (std::size_t i = 0; i < popped.size(); ++i) {
        EXPECT_EQ(popped[i].slot, reference[i].slot)
            << "n " << n << " pos " << pos << " rank " << i;
      }
    }
  }
}

TEST(QuadHeapTest, RemovalReplacementCanSiftUp) {
  // Pushed in this order every entry stays where it lands:
  //   pos 0: t=0; pos 1..4: t=50, 20, 30, 40;
  //   pos 5..8 (children of pos 1): t=51..54; pos 9 (child of pos 2): t=21.
  HeapHarness h;
  for (const SimTime at : {0.0, 50.0, 20.0, 30.0, 40.0, 51.0, 52.0, 53.0,
                           54.0, 21.0}) {
    h.push(at);
  }
  for (std::uint32_t slot = 0; slot < 10; ++slot) {
    ASSERT_EQ(h.where()[slot], slot);
  }
  // Removing pos 6 moves the last entry (t=21) under pos 1 (t=50), so it
  // must climb past its new parent instead of sinking.
  h.heap().remove_slot(6);
  EXPECT_EQ(h.where()[9], 1u);
  EXPECT_EQ(h.where()[1], 6u);
  expect_backlinks_consistent(h);

  std::vector<SimTime> times;
  for (const QueuedEvent& e : h.drain()) times.push_back(e.at);
  EXPECT_EQ(times, (std::vector<SimTime>{0, 20, 21, 30, 40, 50, 51, 53, 54}));
}

TEST(QuadHeapTest, RandomOperationsMatchLinearScan) {
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    HeapHarness h;
    util::Xoshiro256 rng(seed);
    std::vector<QueuedEvent> reference;
    std::uint64_t seq = 0;
    const auto ref_min = [&reference] {
      return std::min_element(reference.begin(), reference.end(),
                              event_before);
    };
    for (int step = 0; step < 5000; ++step) {
      const auto op = rng.below(5);
      if (op < 2 || reference.empty()) {
        const SimTime at = static_cast<SimTime>(rng.below(32));
        reference.push_back(QueuedEvent{at, seq++, h.push(at)});
      } else if (op == 2) {
        const auto pick = static_cast<std::size_t>(rng.below(reference.size()));
        h.heap().remove_slot(reference[pick].slot);
        reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        const auto expected = ref_min();
        const QueuedEvent got = h.heap().pop_min();
        ASSERT_EQ(got.slot, expected->slot) << "seed " << seed << " step "
                                            << step;
        reference.erase(expected);
      }
      ASSERT_EQ(h.heap().size(), reference.size());
      if (!reference.empty()) {
        ASSERT_EQ(h.heap().min().slot, ref_min()->slot)
            << "seed " << seed << " step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace gridsat::sim
