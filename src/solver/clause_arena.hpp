// Arena storage for clauses, the solver's "clause database" (paper §1:
// "a local clause database that is heavily accessed ... and which can
// grow arbitrarily large").
//
// Clauses live in one contiguous uint32 arena and are referred to by
// offset (ClauseRef). Layout per clause:
//
//   word 0 : size << 4 | learned << 0 | deleted << 1 | pad << 2
//            | import_pending << 3  (imported clause not yet seen in a
//            conflict; cleared — and counted as a useful import — the
//            first time analyze() walks it)
//   word 1 : activity (float bits; learned-clause relevance for deletion)
//   word 2 : LBD — number of distinct decision levels at learning time
//            (glue metric; drives deletion tiering and the sharing
//            filter). Clauses whose LBD was never measured (problem
//            clauses, imports) carry their size as a pessimistic bound.
//   word 3..3+size : literal codes  (words 3 and 4 are the watched pair)
//
// In-place strengthening (remove_lit()) shrinks a clause by one literal
// and leaves a single-word pad (bit 2 set, everything else 0) where its
// tail used to end, so the arena walk stays a simple stride scan: a pad
// word advances the cursor by one. Pads count as garbage and vanish at
// the next compaction.
//
// Deletion marks the clause, overwrites its activity word with kNoClause
// and counts its bytes as garbage. Compaction is one copying pass into a
// right-sized buffer; it writes each live clause's new ref into the old
// buffer's activity word (a forwarding ref), so the returned Remap, which
// keeps the old buffer, maps any old ref with one load. Callers rewrite
// all external references through it; that is safe at any decision level
// (the solver remaps watch lists and every trail reason). Two orders:
// gc() keeps allocation order; gc_ordered() lays clauses out in a
// caller-chosen order (the locality pass reduce_db() uses to keep hot
// clauses adjacent). Live-byte accounting feeds the GridSAT client's
// memory monitor.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "cnf/types.hpp"

namespace gridsat::solver {

using ClauseRef = std::uint32_t;
inline constexpr ClauseRef kNoClause = 0xffffffffu;
/// Fictitious antecedent for decision variables (paper §2.2 uses "clause
/// 0 which does not exist" for decisions); split assumptions get the same
/// marker plus a taint bit on the variable.
inline constexpr ClauseRef kDecisionReason = 0xfffffffeu;

class ClauseArena {
 public:
  static constexpr std::uint32_t kHeaderWords = 3;
  /// Filler word left behind by remove_lit(): bit 2 set, size 0. The walk
  /// in for_each()/gc() skips it with stride 1.
  static constexpr std::uint32_t kPadWord = 4;

  /// Allocate a clause; returns its reference. Literals are stored in the
  /// given order (callers arrange the watched pair in slots 0/1). LBD
  /// defaults to the clause size — the pessimistic upper bound — until the
  /// learner calls set_lbd() with the measured value.
  ClauseRef alloc(std::span<const cnf::Lit> lits, bool learned) {
    assert(!lits.empty());
    const ClauseRef ref = open_clause(lits.size());
    std::copy(lits.begin(), lits.end(), open_lits(ref));
    close_clause(ref, lits.size(), learned);
    return ref;
  }

  /// alloc() in two steps, for a caller that writes the literals in
  /// place: open a clause of up to `max_len` literals at the end, write
  /// them through open_lits(), then seal the clause with its first `len`
  /// (>= 1) literals, or drop it. Nothing else may allocate while a
  /// clause is open.
  ClauseRef open_clause(std::size_t max_len) {
    const auto ref = static_cast<ClauseRef>(data_.size());
    data_.resize(data_.size() + kHeaderWords + max_len);
    return ref;
  }
  [[nodiscard]] cnf::Lit* open_lits(ClauseRef r) {
    static_assert(sizeof(cnf::Lit) == sizeof(std::uint32_t));
    return reinterpret_cast<cnf::Lit*>(&data_[r + kHeaderWords]);
  }
  void close_clause(ClauseRef r, std::size_t len, bool learned) {
    assert(len > 0 && r + kHeaderWords + len <= data_.size());
    data_.resize(r + kHeaderWords + len);
    const auto size = static_cast<std::uint32_t>(len);
    data_[r] = (size << 4) | (learned ? 1u : 0u);
    data_[r + 1] = float_bits(0.0f);
    data_[r + 2] = size;
    live_words_ += kHeaderWords + len;
    if (learned) ++num_learned_;
    else ++num_problem_;
  }
  void discard_clause(ClauseRef r) {
    assert(r <= data_.size());
    data_.resize(r);
  }

  [[nodiscard]] std::uint32_t size(ClauseRef r) const {
    return data_[r] >> 4;
  }
  [[nodiscard]] bool learned(ClauseRef r) const { return (data_[r] & 1) != 0; }
  [[nodiscard]] bool deleted(ClauseRef r) const { return (data_[r] & 2) != 0; }

  /// Import-usefulness tracking (Beame et al.'s question: which shared
  /// clauses matter?). mark_import() flags a freshly merged import;
  /// import_pending() + clear_import_pending() let conflict analysis
  /// count it as used exactly once. The flag travels with the clause
  /// through gc()/gc_ordered() (headers are copied wholesale).
  void mark_import(ClauseRef r) { data_[r] |= 8u; }
  [[nodiscard]] bool import_pending(ClauseRef r) const {
    return (data_[r] & 8u) != 0;
  }
  void clear_import_pending(ClauseRef r) { data_[r] &= ~8u; }

  [[nodiscard]] cnf::Lit lit(ClauseRef r, std::uint32_t i) const {
    return cnf::Lit::from_code(data_[r + kHeaderWords + i]);
  }
  void set_lit(ClauseRef r, std::uint32_t i, cnf::Lit l) {
    data_[r + kHeaderWords + i] = l.code();
  }

  [[nodiscard]] std::span<const cnf::Lit> lits(ClauseRef r) const {
    static_assert(sizeof(cnf::Lit) == sizeof(std::uint32_t));
    return {reinterpret_cast<const cnf::Lit*>(&data_[r + kHeaderWords]),
            size(r)};
  }

  /// Mutable literal view for the BCP hot loop: lets the watcher scan
  /// read and reorder a clause through one pointer instead of per-slot
  /// lit()/set_lit() calls (each of which re-derives the base offset).
  [[nodiscard]] std::span<cnf::Lit> lits_mut(ClauseRef r) {
    static_assert(sizeof(cnf::Lit) == sizeof(std::uint32_t));
    return {reinterpret_cast<cnf::Lit*>(&data_[r + kHeaderWords]), size(r)};
  }

  /// Address of clause r's header, computed without loading it: the
  /// target of a software prefetch ahead of lits_mut(r).
  [[nodiscard]] const std::uint32_t* header_address(ClauseRef r) const noexcept {
    return data_.data() + r;
  }

  [[nodiscard]] bool binary(ClauseRef r) const { return size(r) == 2; }

  [[nodiscard]] float activity(ClauseRef r) const {
    return bits_float(data_[r + 1]);
  }
  void set_activity(ClauseRef r, float a) { data_[r + 1] = float_bits(a); }

  /// Literal-blocks-distance measured when the clause was learned (or its
  /// size when never measured). Lower = better; <= 2 is "glue".
  [[nodiscard]] std::uint32_t lbd(ClauseRef r) const { return data_[r + 2]; }
  void set_lbd(ClauseRef r, std::uint32_t lbd) { data_[r + 2] = lbd; }

  /// In-place strengthening: remove the literal at index `i`, shifting the
  /// tail left and leaving a pad word where the clause used to end. The
  /// clause keeps its ref, flags, activity, and LBD; callers are
  /// responsible for watcher bookkeeping (detach before, attach after)
  /// and require the result to stay >= 2 literals.
  void remove_lit(ClauseRef r, std::uint32_t i) {
    const std::uint32_t sz = size(r);
    assert(!deleted(r));
    assert(sz >= 3 && i < sz);
    for (std::uint32_t k = i; k + 1 < sz; ++k) {
      data_[r + kHeaderWords + k] = data_[r + kHeaderWords + k + 1];
    }
    data_[r + kHeaderWords + sz - 1] = kPadWord;
    data_[r] = (data_[r] & 15u) | ((sz - 1) << 4);
    --live_words_;
    ++garbage_words_;
  }

  /// Mark deleted; bytes counted as garbage until gc(). The activity word
  /// becomes the clause's forwarding ref, kNoClause (see Remap).
  void free(ClauseRef r) {
    assert(!deleted(r));
    data_[r] |= 2u;
    data_[r + 1] = kNoClause;
    garbage_words_ += kHeaderWords + size(r);
    live_words_ -= kHeaderWords + size(r);
    if (learned(r)) --num_learned_;
    else --num_problem_;
  }

  [[nodiscard]] std::size_t live_bytes() const noexcept {
    return live_words_ * sizeof(std::uint32_t);
  }
  [[nodiscard]] std::size_t total_bytes() const noexcept {
    return data_.size() * sizeof(std::uint32_t);
  }
  [[nodiscard]] std::size_t garbage_bytes() const noexcept {
    return garbage_words_ * sizeof(std::uint32_t);
  }
  [[nodiscard]] std::size_t num_learned() const noexcept { return num_learned_; }
  [[nodiscard]] std::size_t num_problem() const noexcept { return num_problem_; }

  /// Iterate all live clause refs in arena order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    ClauseRef r = 0;
    while (r < data_.size()) {
      if (data_[r] & 4u) {  // strengthening pad: single filler word
        ++r;
        continue;
      }
      const std::uint32_t sz = size(r);
      if (!deleted(r)) fn(r);
      r += kHeaderWords + sz;
    }
  }

  /// Old-ref -> new-ref map produced by gc() and gc_ordered(). It holds
  /// the pre-compaction buffer, whose activity word of each clause is the
  /// clause's forwarding ref: its new ref, or kNoClause once deleted. The
  /// sentinel reasons map to themselves.
  class Remap {
   public:
    [[nodiscard]] ClauseRef operator()(ClauseRef old_ref) const {
      if (old_ref == kNoClause || old_ref == kDecisionReason) return old_ref;
      return old_[old_ref + 1];
    }

   private:
    friend class ClauseArena;
    std::vector<std::uint32_t> old_;
  };

  /// Compact preserving allocation order; callers rewrite watch lists and
  /// reasons through the returned remap.
  Remap gc() {
    return compact([this](auto&& copy) { for_each(copy); });
  }

  /// Compact with the live clauses laid out in the caller-given order
  /// (the locality pass: problem clauses first, then learned by glue).
  /// `order` must list every live clause exactly once.
  Remap gc_ordered(std::span<const ClauseRef> order) {
    return compact([order](auto&& copy) {
      for (const ClauseRef r : order) copy(r);
    });
  }

 private:
  /// The one compaction pass: `each_live(copy)` calls copy(r) on every
  /// live clause in the new layout order. The fresh buffer is sized to
  /// the live words exactly, and the old one moves into the Remap.
  template <class EachLive>
  Remap compact(EachLive&& each_live) {
    std::vector<std::uint32_t> fresh;
    fresh.reserve(live_words_);
    each_live([&](ClauseRef r) {
      assert(!deleted(r) && (data_[r] & 4u) == 0);
      const std::uint32_t words = kHeaderWords + size(r);
      const auto moved = static_cast<ClauseRef>(fresh.size());
      fresh.insert(fresh.end(), data_.begin() + r, data_.begin() + r + words);
      data_[r + 1] = moved;
    });
    assert(fresh.size() == live_words_ && "order must cover every live clause");
    Remap remap;
    remap.old_ = std::exchange(data_, std::move(fresh));
    garbage_words_ = 0;
    return remap;
  }

  static std::uint32_t float_bits(float f) {
    std::uint32_t b;
    static_assert(sizeof b == sizeof f);
    std::memcpy(&b, &f, sizeof b);
    return b;
  }
  static float bits_float(std::uint32_t b) {
    float f;
    std::memcpy(&f, &b, sizeof f);
    return f;
  }

  std::vector<std::uint32_t> data_;
  std::size_t live_words_ = 0;
  std::size_t garbage_words_ = 0;
  std::size_t num_learned_ = 0;
  std::size_t num_problem_ = 0;
};

}  // namespace gridsat::solver
