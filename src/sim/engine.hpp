// Deterministic discrete-event simulation kernel.
//
// The Computational Grid substrate runs in *virtual time*: every solver
// compute slice, message delivery, batch-queue grant, and timeout is an
// event on one totally-ordered queue (time, then insertion sequence), so
// a whole GridSAT campaign replays bit-for-bit from a seed. See DESIGN.md
// §1 for why this substitution preserves the paper's claims, and §4g for
// the scale-out design implemented here.
//
// Storage is a slab of reusable event slots addressed by generation-
// checked EventIds: memory is bounded by the *peak concurrent* event
// count rather than the total scheduled over a run, and a stale cancel
// (the id already fired and its slot was recycled) is detected by the
// generation mismatch instead of silently killing an unrelated event.
// Handlers are small-buffer Callbacks (no per-event heap allocation for
// ordinary captures), and the pending set is a 4-ary heap that cancels
// eagerly and fires in (time, sequence) order.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/callback.hpp"
#include "sim/event_queue.hpp"

namespace gridsat::sim {

/// Opaque handle: (generation << 32) | slot. Generations start at 1, so
/// the zero id never names a live event and works as a null default.
using EventId = std::uint64_t;

inline constexpr EventId kNoEvent = 0;

class SimEngine {
 public:
  SimEngine() : heap_(where_) {}

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Schedule `fn` at absolute virtual time `at` (>= now; earlier times
  /// are clamped to now). Events at equal times fire in scheduling order.
  EventId schedule_at(SimTime at, Callback fn) {
    assert(fn);
    if (at < now_) at = now_;
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.scheduled_at = now_;
    heap_.push(QueuedEvent{at, next_seq_++, slot});
    return make_id(s.generation, slot);
  }

  /// Schedule `fn` after a relative delay.
  EventId schedule_in(SimTime delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancel a pending event, removing it from the queue eagerly.
  /// Cancelling an already-fired or already-cancelled event is a no-op —
  /// even after its slot has been recycled, because the generation
  /// encoded in the id no longer matches the slot's.
  void cancel(EventId id) {
    const std::uint32_t slot = slot_of(id);
    if (slot >= slots_.size()) return;
    Slot& s = slots_[slot];
    if (s.generation != generation_of(id) || where_[slot] == kNotQueued) {
      return;
    }
    heap_.remove_slot(slot);
    s.fn.reset();
    release_slot(slot);
  }

  /// Attach a tracer (not owned): the engine drives its manual clock, so
  /// events emitted from handlers are stamped with virtual time.
  void set_tracer(obs::Tracer* tracer) noexcept {
    tracer_ = tracer;
    if (tracer_ != nullptr) tracer_->set_manual_time(now_);
  }

  /// Register simulator-health instruments (not owned): a
  /// `sim.queue_depth` gauge and a `sim.event_delay_s` histogram of the
  /// virtual latency between scheduling and firing.
  void set_metrics(obs::MetricRegistry* metrics) {
    metrics_ = metrics;
    delay_hist_ = nullptr;
    if (metrics_ == nullptr) return;
    metrics_->gauge_fn("sim.queue_depth",
                       [this] { return static_cast<double>(pending()); });
    metrics_->gauge_fn("sim.events_fired", [this] {
      return static_cast<double>(events_fired_);
    });
    // Log buckets: scheduling delays span sub-millisecond control hops
    // to multi-hour straggler timeouts, and the p99 of that mix is
    // meaningless on a linear grid.
    delay_hist_ =
        &metrics_->histogram("sim.event_delay_s", 1e-6, 1e5, 64,
                             obs::HistogramMetric::Scale::kLog);
  }

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }
  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size();
  }
  [[nodiscard]] std::uint64_t events_fired() const noexcept {
    return events_fired_;
  }
  /// Slab capacity — tracks the peak concurrent event count, not the
  /// total ever scheduled (introspection for tests/benches).
  [[nodiscard]] std::size_t slab_slots() const noexcept {
    return slots_.size();
  }

  /// Fire the next event; returns false when the queue is exhausted.
  bool step() {
    if (pending() == 0) return false;
    const QueuedEvent ev = heap_.pop_min();
    Slot& s = slots_[ev.slot];
    now_ = ev.at;
    if constexpr (obs::kTraceCompiledIn) {
      if (tracer_ != nullptr) tracer_->set_manual_time(now_);
    }
    if (delay_hist_ != nullptr) delay_hist_->observe(ev.at - s.scheduled_at);
    // Move the handler out and retire the slot *before* invoking: a
    // handler that cancels its own id (or schedules into the recycled
    // slot) must see consistent state.
    Callback fn = std::move(s.fn);
    s.fn.reset();
    release_slot(ev.slot);
    ++events_fired_;
    fn();
    return true;
  }

  /// Run until the queue empties or the next live event lies beyond
  /// `deadline`. Events exactly at the deadline still fire; afterwards
  /// now() is at least `deadline`.
  void run_until(SimTime deadline) {
    while (pending() > 0) {
      if (heap_.min().at > deadline) break;
      step();
    }
    if (now_ < deadline) now_ = deadline;
  }

  /// Run to quiescence.
  void run() {
    while (step()) {
    }
  }

 private:
  struct Slot {
    Callback fn;
    SimTime scheduled_at = 0.0;
    std::uint32_t generation = 1;
  };

  static constexpr EventId make_id(std::uint32_t generation,
                                   std::uint32_t slot) noexcept {
    return (static_cast<EventId>(generation) << 32) | slot;
  }
  static constexpr std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id & 0xffffffffu);
  }
  static constexpr std::uint32_t generation_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

  std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    where_.push_back(kNotQueued);
    return slot;
  }

  void release_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    if (++s.generation == 0) s.generation = 1;  // keep ids nonzero on wrap
    where_[slot] = kNotQueued;
    free_slots_.push_back(slot);
  }

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_fired_ = 0;
  /// Slab of reusable event records + LIFO free list (hot slots stay
  /// cache-resident) + heap-position backlinks shared with the heap.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> where_;
  QuadHeap heap_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricRegistry* metrics_ = nullptr;
  obs::HistogramMetric* delay_hist_ = nullptr;
};

}  // namespace gridsat::sim
