// Shared wire codec for clause streams (DESIGN.md §4e).
//
// Every payload that ships clauses — subproblem transfers, checkpoints,
// clause-sharing batches — uses the same two tricks:
//
//  * within a clause, literal codes are sorted ascending and the gaps
//    are LEB128-encoded (watch order is rebuilt on attach, so in-clause
//    order is free to give away; sorted gaps make most literals 1 byte);
//  * across the stream, clauses are stable-sorted by length and emitted
//    as (len, count) runs, so per-clause length prefixes collapse to one
//    header per run.
//
// Encoders are templates over the writer so the same code path runs
// against util::ByteWriter (real bytes) and util::ByteCounter
// (wire_size) — size and serialization cannot drift apart.
//
// Bumping any layout here is a wire-format version change: update
// kWireFormatVersion and the golden-bytes fixtures together.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "cnf/formula.hpp"
#include "cnf/types.hpp"
#include "util/bytes.hpp"

namespace gridsat::cnf {

/// Version byte leading every serialized payload (and the protocol frame
/// header). v1 was the PR-0 per-clause varint format; v2 added delta
/// literals, length runs, base-formula references, and checkpoint epochs.
inline constexpr std::uint8_t kWireFormatVersion = 2;

/// Encode one clause whose literal codes are already sorted ascending:
/// first code absolute, then the gaps. Gap 0 (duplicate literal) is legal
/// and round-trips.
template <class W>
void encode_sorted_clause(W& out, std::span<const Lit> lits) {
  out.var_u64(lits[0].code());
  for (std::size_t i = 1; i < lits.size(); ++i) {
    out.var_u64(lits[i].code() - lits[i - 1].code());
  }
}

/// Encode clauses as length-grouped runs. Empty clauses are not
/// representable on the wire (an empty clause means the search already
/// refuted this node; nothing legitimate ships one). A clause that
/// arrives sorted (CdclSolver::to_subproblem() emits every clause that
/// way) is encoded in place; any other is copied and sorted first. Both
/// paths emit the same bytes.
template <class W>
void encode_clause_stream(W& out, std::span<const Clause> clauses) {
  const std::size_t count = clauses.size();
  out.var_u64(count);
  std::vector<std::uint32_t> order(count);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return clauses[a].size() < clauses[b].size();
                   });
  Clause sorted;
  std::size_t i = 0;
  while (i < count) {
    const std::size_t len = clauses[order[i]].size();
    if (len == 0) throw util::DecodeError("cannot encode an empty clause");
    std::size_t j = i + 1;
    while (j < count && clauses[order[j]].size() == len) ++j;
    out.var_u64(len);
    out.var_u64(j - i);
    for (std::size_t k = i; k < j; ++k) {
      const Clause& clause = clauses[order[k]];
      if (std::is_sorted(clause.begin(), clause.end())) {
        encode_sorted_clause(out, clause);
        continue;
      }
      sorted.assign(clause.begin(), clause.end());
      std::sort(sorted.begin(), sorted.end());
      encode_sorted_clause(out, sorted);
    }
    i = j;
  }
}

/// Decode a clause stream, appending to `out`. Clauses come back with
/// literals sorted ascending (the canonical wire order); attach rebuilds
/// watches, so semantics are unchanged. Structural bounds are validated
/// before any allocation so adversarial buffers fail with DecodeError
/// instead of an out-of-memory reserve.
inline void decode_clause_stream(util::ByteReader& in,
                                 std::vector<Clause>& out) {
  const std::uint64_t count = in.var_u64();
  // Every clause carries >= 1 literal and every literal >= 1 byte.
  if (count > in.remaining()) {
    throw util::DecodeError("clause stream count exceeds buffer");
  }
  out.reserve(out.size() + count);
  std::uint64_t emitted = 0;
  while (emitted < count) {
    const std::uint64_t len = in.var_u64();
    const std::uint64_t run = in.var_u64();
    if (len == 0) throw util::DecodeError("empty clause in stream");
    if (run == 0 || run > count - emitted) {
      throw util::DecodeError("clause run overflows stream count");
    }
    if (len > in.remaining()) {
      throw util::DecodeError("clause length exceeds buffer");
    }
    for (std::uint64_t k = 0; k < run; ++k) {
      Clause c;
      c.reserve(len);
      std::uint32_t code = 0;
      for (std::uint64_t m = 0; m < len; ++m) {
        const std::uint64_t delta = in.var_u64();
        const std::uint64_t next = (m == 0 ? delta : code + delta);
        if (next > UINT32_MAX || (m == 0 && next < 2)) {
          throw util::DecodeError("literal code out of range");
        }
        code = static_cast<std::uint32_t>(next);
        c.push_back(Lit::from_code(code));
      }
      out.push_back(std::move(c));
    }
    emitted += run;
  }
}

/// Order-preserving literal array (guiding-path units, assumptions keep
/// their trail order: recovery replays them in sequence).
template <class W>
void encode_lit_array(W& out, std::span<const Lit> lits) {
  out.var_u64(lits.size());
  for (const Lit l : lits) out.var_u64(l.code());
}

inline void decode_lit_array(util::ByteReader& in, std::vector<Lit>& out) {
  const std::uint64_t count = in.var_u64();
  if (count > in.remaining()) {
    throw util::DecodeError("literal array count exceeds buffer");
  }
  out.reserve(out.size() + count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t code = in.var_u64();
    if (code < 2 || code > UINT32_MAX) {
      throw util::DecodeError("literal code out of range");
    }
    out.push_back(Lit::from_code(static_cast<std::uint32_t>(code)));
  }
}

}  // namespace gridsat::cnf
