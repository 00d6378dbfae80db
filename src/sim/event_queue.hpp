// Priority structure for the discrete-event kernel (DESIGN.md §4g).
//
// QuadHeap is the pending-event set: a 4-ary implicit min-heap, totally
// ordered by (time, insertion sequence) so the firing order — and
// therefore every seeded campaign replay — is deterministic. Per-slot
// position backlinks make cancellation an eager O(log n) removal instead
// of a tombstone, so pending() is exact and a cancel-heavy run never
// drags dead entries through pops. The 4-ary layout halves the tree
// height of a binary heap and keeps child scans inside one cache line.
//
// Entries are indexed by the engine's slab slot, and the heap maintains
// the shared `where` backlink array, so the engine can cancel by slot id
// without searching.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace gridsat::sim {

/// Virtual seconds since simulation start.
using SimTime = double;

/// One pending entry: absolute firing time, global insertion sequence
/// (ties fire in scheduling order), and the owning slab slot.
struct QueuedEvent {
  SimTime at = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
};

[[nodiscard]] inline bool event_before(const QueuedEvent& a,
                                       const QueuedEvent& b) noexcept {
  if (a.at != b.at) return a.at < b.at;
  return a.seq < b.seq;
}

/// Backlink value for "this slot has no queued entry".
inline constexpr std::uint32_t kNotQueued =
    std::numeric_limits<std::uint32_t>::max();

class QuadHeap {
 public:
  /// `where` maps slot -> heap position; shared with the engine's slab
  /// and kept in sync by every heap operation.
  explicit QuadHeap(std::vector<std::uint32_t>& where) : where_(where) {}

  void push(const QueuedEvent& e) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  [[nodiscard]] const QueuedEvent& min() const noexcept {
    assert(!heap_.empty());
    return heap_.front();
  }

  QueuedEvent pop_min() {
    const QueuedEvent top = heap_.front();
    remove_at(0);
    return top;
  }

  /// Eagerly remove the entry belonging to `slot` (must be queued).
  void remove_slot(std::uint32_t slot) {
    assert(where_[slot] != kNotQueued);
    remove_at(where_[slot]);
  }

  void clear() noexcept { heap_.clear(); }

 private:
  void remove_at(std::size_t pos) {
    where_[heap_[pos].slot] = kNotQueued;
    const std::size_t last = heap_.size() - 1;
    if (pos != last) {
      heap_[pos] = heap_[last];
      heap_.pop_back();
      // The moved entry may need to go either way relative to `pos`.
      if (pos > 0 && event_before(heap_[pos], heap_[parent(pos)])) {
        sift_up(pos);
      } else {
        sift_down(pos);
      }
    } else {
      heap_.pop_back();
    }
  }

  static std::size_t parent(std::size_t pos) noexcept {
    return (pos - 1) / 4;
  }

  void sift_up(std::size_t pos) {
    QueuedEvent moving = heap_[pos];
    while (pos > 0) {
      const std::size_t up = parent(pos);
      if (!event_before(moving, heap_[up])) break;
      heap_[pos] = heap_[up];
      where_[heap_[pos].slot] = static_cast<std::uint32_t>(pos);
      pos = up;
    }
    heap_[pos] = moving;
    where_[moving.slot] = static_cast<std::uint32_t>(pos);
  }

  void sift_down(std::size_t pos) {
    const std::size_t n = heap_.size();
    QueuedEvent moving = heap_[pos];
    for (;;) {
      const std::size_t first_child = pos * 4 + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end = std::min(first_child + 4, n);
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (event_before(heap_[c], heap_[best])) best = c;
      }
      if (!event_before(heap_[best], moving)) break;
      heap_[pos] = heap_[best];
      where_[heap_[pos].slot] = static_cast<std::uint32_t>(pos);
      pos = best;
    }
    heap_[pos] = moving;
    where_[moving.slot] = static_cast<std::uint32_t>(pos);
  }

  std::vector<QueuedEvent> heap_;
  std::vector<std::uint32_t>& where_;
};

}  // namespace gridsat::sim
