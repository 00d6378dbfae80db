// A flat clause list: the literals of every clause back to back in one
// buffer, plus the end offset of each clause (DESIGN.md §4e).
//
// This is the clause set a subproblem carries (paper §3.1: "a set of
// variable assignments and a set of clauses"). A split builds one, the
// wire codec sizes and encodes it, and the receiver rebuilds its solver
// from it, thousands of times per campaign; two buffers per list instead
// of one heap vector per clause keep that path off the allocator.
// HordeSat ships clause sets the same way, as flat integer buffers.
//
// Clauses are appended at the end only: copied in whole (push_back), or
// written in place (open_clause, then close_clause); truncate() drops a
// tail. Offsets are 32-bit: a pool holds fewer than 2^32 literals.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <vector>

#include "cnf/formula.hpp"
#include "cnf/types.hpp"

namespace gridsat::cnf {

class ClausePool {
 public:
  ClausePool() = default;
  explicit ClausePool(std::span<const Clause> clauses) {
    std::size_t lits = 0;
    for (const Clause& c : clauses) lits += c.size();
    reserve(clauses.size(), lits);
    append(clauses);
  }
  ClausePool(std::initializer_list<Clause> clauses)
      : ClausePool(std::span<const Clause>(clauses.begin(), clauses.size())) {}

  /// Number of clauses.
  [[nodiscard]] std::size_t size() const noexcept { return ends_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ends_.empty(); }
  /// Literal slots across all clauses.
  [[nodiscard]] std::size_t num_lits() const noexcept { return lits_.size(); }

  [[nodiscard]] std::span<const Lit> operator[](std::size_t i) const {
    assert(i < ends_.size());
    const std::size_t begin = lit_offset(i);
    return {lits_.data() + begin, ends_[i] - begin};
  }

  void reserve(std::size_t clauses, std::size_t lits) {
    ends_.reserve(clauses);
    lits_.reserve(lits);
  }

  /// Open a clause of up to `max_len` literals at the end, to be written
  /// in place through the returned span and sealed by close_clause().
  [[nodiscard]] std::span<Lit> open_clause(std::size_t max_len) {
    const std::size_t begin = lits_.size();
    lits_.resize(begin + max_len);
    return {lits_.data() + begin, max_len};
  }
  /// Seal the open clause with its first `len` literals (at least one).
  void close_clause(std::size_t len) {
    assert(len > 0 && lit_offset(ends_.size()) + len <= lits_.size());
    lits_.resize(lit_offset(ends_.size()) + len);
    ends_.push_back(static_cast<std::uint32_t>(lits_.size()));
  }

  void push_back(std::span<const Lit> clause) {
    assert(!clause.empty());
    lits_.insert(lits_.end(), clause.begin(), clause.end());
    ends_.push_back(static_cast<std::uint32_t>(lits_.size()));
  }
  void append(std::span<const Clause> clauses) {
    for (const Clause& c : clauses) push_back(c);
  }

  /// Append copies of `src`'s clauses [first, last) in one bulk copy.
  void append(const ClausePool& src, std::size_t first, std::size_t last) {
    assert(first <= last && last <= src.size());
    if (first == last) return;
    const std::size_t begin = src.lit_offset(first);
    lits_.insert(lits_.end(), src.lits_.begin() + begin,
                 src.lits_.begin() + src.ends_[last - 1]);
    const std::size_t shift = lits_.size() - src.ends_[last - 1];
    for (std::size_t i = first; i < last; ++i) {
      ends_.push_back(static_cast<std::uint32_t>(src.ends_[i] + shift));
    }
  }

  /// Drop every clause from index `count` on.
  void truncate(std::size_t count) {
    assert(count <= size());
    lits_.resize(lit_offset(count));
    ends_.resize(count);
  }

  /// Literal slots in clauses [0, i): where clause i begins.
  [[nodiscard]] std::size_t lit_offset(std::size_t i) const {
    assert(i <= ends_.size());
    return i == 0 ? 0 : ends_[i - 1];
  }

  /// Clauses [first, last): the list shape (size() and operator[]) the
  /// wire encoder takes.
  class Slice {
   public:
    [[nodiscard]] std::size_t size() const noexcept { return last_ - first_; }
    [[nodiscard]] std::span<const Lit> operator[](std::size_t i) const {
      return (*pool_)[first_ + i];
    }

   private:
    friend class ClausePool;
    Slice(const ClausePool& pool, std::size_t first, std::size_t last)
        : pool_(&pool), first_(first), last_(last) {}
    const ClausePool* pool_;
    std::size_t first_;
    std::size_t last_;
  };
  [[nodiscard]] Slice slice(std::size_t first, std::size_t last) const {
    assert(first <= last && last <= size());
    return {*this, first, last};
  }

  /// Forward iteration yields each clause as a literal span.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = std::span<const Lit>;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = value_type;
    const_iterator() = default;
    [[nodiscard]] value_type operator*() const { return (*pool_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator prev = *this;
      ++i_;
      return prev;
    }
    friend bool operator==(const const_iterator&,
                           const const_iterator&) = default;

   private:
    friend class ClausePool;
    const_iterator(const ClausePool* pool, std::size_t i)
        : pool_(pool), i_(i) {}
    const ClausePool* pool_ = nullptr;
    std::size_t i_ = 0;
  };
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

  friend bool operator==(const ClausePool&, const ClausePool&) = default;

 private:
  std::vector<Lit> lits_;
  /// ends_[i] is one past clause i's last literal in lits_.
  std::vector<std::uint32_t> ends_;
};

}  // namespace gridsat::cnf
