#include "solver/cdcl.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <sstream>

namespace gridsat::solver {

using cnf::kUndefLit;
using cnf::LBool;
using cnf::Lit;
using cnf::Var;

namespace {

/// Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
std::uint64_t luby(std::uint32_t i) {
  // Find the finite subsequence containing index i and its position.
  std::uint32_t size = 1;
  std::uint32_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) >> 1;
    --seq;
    i %= size;
  }
  return std::uint64_t{1} << seq;
}

constexpr double kActivityRescaleLimit = 1e100;
constexpr float kClauseActivityRescaleLimit = 1e20f;

/// Learned clauses with LBD at or below this are "glue" (Glucose's term):
/// they connect two decision levels directly and are never evicted by
/// reduce_db() (the emergency squeeze may still drop them).
constexpr std::uint32_t kGlueLbd = 2;

/// kGeometric restart growth per restart (MiniSat's classic factor).
constexpr double kGeometricRestartGrowth = 1.5;

/// Watchers the long-clause scan looks ahead when it prefetches a
/// clause header out of the arena.
constexpr std::ptrdiff_t kClausePrefetchDistance = 4;

/// Copy an arena clause out with strictly ascending literal codes (the
/// canonical order the wire encoder and add_clause_at_level0() take
/// without sorting). When the code span needs at most one 64-bit word
/// per literal a bitmap over the span sorts in one linear pass; a wider
/// span falls back to std::sort. Both paths drop a repeated literal
/// (arena clauses hold none), so they return the same clause for any
/// input. `bits` is caller-owned scratch, left all-zero.
cnf::Clause canonical_clause(std::span<const Lit> lits,
                             std::vector<std::uint64_t>& bits) {
  std::uint32_t lo = lits[0].code();
  std::uint32_t hi = lo;
  for (const Lit l : lits) {
    lo = std::min(lo, l.code());
    hi = std::max(hi, l.code());
  }
  const std::size_t words = ((hi - lo) >> 6) + 1;
  if (words > lits.size()) {
    cnf::Clause out(lits.begin(), lits.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
  if (bits.size() < words) bits.resize(words, 0);
  for (const Lit l : lits) {
    const std::uint32_t d = l.code() - lo;
    bits[d >> 6] |= std::uint64_t{1} << (d & 63);
  }
  cnf::Clause out;
  out.reserve(lits.size());
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
      out.push_back(Lit::from_code(lo + static_cast<std::uint32_t>(
                                            (w << 6) + std::countr_zero(b))));
    }
    bits[w] = 0;
  }
  return out;
}

}  // namespace

const char* to_string(SolveStatus s) noexcept {
  switch (s) {
    case SolveStatus::kSat: return "SAT";
    case SolveStatus::kUnsat: return "UNSAT";
    case SolveStatus::kUnknown: return "UNKNOWN";
    case SolveStatus::kMemOut: return "MEM_OUT";
  }
  return "?";
}

CdclSolver::CdclSolver(const cnf::CnfFormula& formula, SolverConfig config)
    : config_(config), rng_(config.seed) {
  init(formula.num_vars(), formula.clauses(), formula.num_clauses(), {});
}

CdclSolver::CdclSolver(const Subproblem& subproblem, SolverConfig config)
    : config_(config), rng_(config.seed) {
  assumptions_ = subproblem.assumptions;
  init(subproblem.num_vars, subproblem.clauses,
       static_cast<std::size_t>(subproblem.num_problem_clauses),
       subproblem.units);
}

void CdclSolver::init(Var num_vars, const std::vector<cnf::Clause>& clauses,
                      std::size_t num_problem_clauses,
                      const std::vector<SubproblemUnit>& units) {
  num_vars_ = num_vars;
  const std::size_t nv = static_cast<std::size_t>(num_vars) + 1;
  watches_.assign(2 * nv, {});
  bin_watches_.assign(2 * nv, {});
  bin_occupied_.assign((2 * nv + 63) / 64, 0);
  watch_occupied_.assign((2 * nv + 63) / 64, 0);
  vals_.assign(2 * nv, LBool::kUndef);
  vars_.assign(nv, VarState{});
  phase_.assign(nv, 2);  // 2 = no saved phase
  activity_.assign(2 * nv, 0.0);
  heap_pos_.assign(2 * nv, -1);
  seen_.assign(nv, 0);
  lbd_stamp_.assign(nv + 1, 0);  // decision levels range over [0, num_vars]
  min_stamp_.assign(nv, 0);
  min_mark_.assign(nv, kMinUnknown);
  lit_stamp_.assign(2 * nv, 0);
  heap_.clear();
  heap_.reserve(2 * nv);
  for (Var v = 1; v <= num_vars_; ++v) {
    heap_insert(2 * v);
    heap_insert(2 * v + 1);
  }
  max_learned_ = config_.reduce_base;
  geom_interval_ = static_cast<double>(config_.restart_base);
  conflicts_until_restart_ =
      config_.restart_base ? next_restart_interval() : 0;

  for (const SubproblemUnit& u : units) {
    if (u.lit.var() > num_vars_) {
      root_conflict_ = true;  // malformed subproblem
      return;
    }
    if (!enqueue_level0(u.lit, u.tainted)) {
      root_conflict_ = true;
      return;
    }
  }
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    if (!add_clause_at_level0(clauses[i], /*learned=*/i >= num_problem_clauses)) {
      root_conflict_ = true;
      return;
    }
  }
}

bool CdclSolver::enqueue_level0(Lit p, bool tainted) {
  assert(decision_level() == 0);
  const LBool v = value(p);
  if (v == LBool::kFalse) return false;
  if (v == LBool::kTrue) {
    // Already assigned; an assumption that re-asserts a known fact adds no
    // taint (the fact stands on its own).
    return true;
  }
  const Var var = p.var();
  assign_true(p);
  vars_[var].level = 0;
  vars_[var].reason = kDecisionReason;
  vars_[var].taint = tainted ? 1 : 0;
  trail_.push_back(p);
  return true;
}

bool CdclSolver::add_clause_at_level0(const cnf::Clause& clause, bool learned,
                                      ClauseRef* new_ref) {
  assert(decision_level() == 0);
  if (new_ref != nullptr) *new_ref = kNoClause;
  // Preprocess: sort/dedupe, detect tautology, apply level-0 facts. A
  // strictly ascending clause (what to_subproblem() ships) is already
  // sorted and duplicate-free, so it skips the copy and the sort.
  std::span<const Lit> lits(clause);
  if (std::adjacent_find(clause.begin(), clause.end(), [](Lit a, Lit b) {
        return !(a < b);
      }) != clause.end()) {
    add_lits_.assign(clause.begin(), clause.end());
    std::sort(add_lits_.begin(), add_lits_.end());
    add_lits_.erase(std::unique(add_lits_.begin(), add_lits_.end()),
                    add_lits_.end());
    lits = add_lits_;
  }
  for (std::size_t i = 0; i + 1 < lits.size(); ++i) {
    if (lits[i].var() == lits[i + 1].var()) return true;  // tautology
  }
  // Unassigned literals first so the watched pair is sane, then the
  // tainted-false ones, each group in ascending order.
  std::vector<Lit>& kept = add_kept_;
  kept.clear();
  for (const Lit l : lits) {
    if (l.var() > num_vars_) {
      // Grow the universe? Clauses beyond num_vars indicate generator or
      // wire corruption; treat as hard error in debug, tolerate by growth
      // in release paths is not worth the complexity.
      assert(false && "literal beyond variable universe");
      continue;
    }
    const LBool v = value(l);
    if (v == LBool::kTrue) return true;  // satisfied at level 0: prune (paper §3.1)
    if (v == LBool::kUndef) kept.push_back(l);
  }
  const std::size_t num_open = kept.size();
  if (num_open == 0) return false;  // all literals false => conflict
  for (const Lit l : lits) {
    // Keep tainted-false literals: dropping them would make clauses
    // derived from this one depend on split assumptions invisibly.
    if (l.var() <= num_vars_ && value(l) == LBool::kFalse && tainted(l.var())) {
      kept.push_back(l);
    }
  }
  if (num_open == 1 && kept.size() == 1) {
    return enqueue_level0(kept[0], /*tainted=*/false);
  }
  const ClauseRef cref = arena_.alloc(kept, learned);
  if (new_ref != nullptr) *new_ref = cref;
  attach(cref);
  if (num_open == 1) {
    // Effectively unit: imply the open literal; taint flows from the kept
    // tainted-false literals through the reason clause.
    if (!enqueue(kept[0], cref)) return false;
    ++stats_.propagations;
  }
  stats_.peak_db_bytes = std::max(stats_.peak_db_bytes, arena_.live_bytes());
  return true;
}

void CdclSolver::attach(ClauseRef cref) {
  assert(arena_.size(cref) >= 2);
  const Lit l0 = arena_.lit(cref, 0);
  const Lit l1 = arena_.lit(cref, 1);
  if (in_binary_store(cref)) {
    bin_watches_[l0.code()].push_back(BinWatcher{l1, cref});
    bin_watches_[l1.code()].push_back(BinWatcher{l0, cref});
    set_occupied(bin_occupied_, l0.code());
    set_occupied(bin_occupied_, l1.code());
    return;
  }
  watches_[l0.code()].push_back(Watcher{cref, l1});
  watches_[l1.code()].push_back(Watcher{cref, l0});
  set_occupied(watch_occupied_, l0.code());
  set_occupied(watch_occupied_, l1.code());
}

void CdclSolver::detach(ClauseRef cref) {
  if (in_binary_store(cref)) {
    for (const std::uint32_t i : {0u, 1u}) {
      auto& ws = bin_watches_[arena_.lit(cref, i).code()];
      const auto it =
          std::find_if(ws.begin(), ws.end(),
                       [cref](const BinWatcher& w) { return w.cref == cref; });
      assert(it != ws.end());
      *it = ws.back();
      ws.pop_back();
    }
    return;
  }
  for (const std::uint32_t i : {0u, 1u}) {
    auto& ws = watches_[arena_.lit(cref, i).code()];
    const auto it = std::find_if(ws.begin(), ws.end(), [cref](const Watcher& w) {
      return w.cref == cref;
    });
    assert(it != ws.end());
    *it = ws.back();
    ws.pop_back();
  }
}

bool CdclSolver::enqueue(Lit p, ClauseRef reason) {
  const LBool v = value(p);
  if (v == LBool::kFalse) return false;
  if (v == LBool::kTrue) return true;
  const Var var = p.var();
  assign_true(p);
  vars_[var].level = decision_level();
  vars_[var].reason = reason;
  if (decision_level() == 0) {
    bool t = false;
    if (reason != kDecisionReason && reason != kNoClause) {
      for (const Lit q : arena_.lits(reason)) {
        if (q.var() != var && vars_[q.var()].taint) {
          t = true;
          break;
        }
      }
    }
    vars_[var].taint = t ? 1 : 0;
  } else {
    vars_[var].taint = 0;
  }
  trail_.push_back(p);
  return true;
}

void CdclSolver::enqueue_implied(Lit p, ClauseRef reason, std::uint32_t dl) {
  // Fast-path enqueue: the caller has already established that p is
  // unassigned (propagate checks the value before implying), so the
  // kTrue/kFalse re-checks of enqueue() are skipped, and the decision
  // level is a cached operand instead of a trail_lim_ load per call.
  assert(value(p) == LBool::kUndef);
  const Var var = p.var();
  assign_true(p);
  vars_[var].level = dl;
  vars_[var].reason = reason;
  if (dl == 0) {
    bool t = false;
    if (reason != kDecisionReason && reason != kNoClause) {
      for (const Lit q : arena_.lits(reason)) {
        if (q.var() != var && vars_[q.var()].taint) {
          t = true;
          break;
        }
      }
    }
    vars_[var].taint = t ? 1 : 0;
  } else {
    vars_[var].taint = 0;
  }
  trail_.push_back(p);
}

ClauseRef CdclSolver::propagate_binary(Lit falsified, std::uint32_t dl) {
  // Binary fast path: one contiguous scan of 8-byte records that never
  // touches the arena — not even on implication. Binary reason clauses
  // are therefore NOT slot-0 normalized; analyze() and the locked-clause
  // checks resolve the direction by variable instead (minimize() and the
  // taint walks always did).
  auto& bws = bin_watches_[falsified.code()];
  const std::size_t n = bws.size();
  stats_.work += n;
  for (std::size_t i = 0; i < n; ++i) {
#if defined(__GNUC__) || defined(__clang__)
    // value() reads the table, but an implication writes the implied
    // variable's VarState; on instances whose vars_ outgrows L2 that
    // store misses, so fetch it from the look-ahead entry.
    if (i + 8 < n) {
      __builtin_prefetch(&vars_[bws[i + 8].implied.var()], 0, 1);
    }
#endif
    const BinWatcher bw = bws[i];
    const LBool v = value(bw.implied);
    if (v == LBool::kTrue) continue;
    if (v == LBool::kFalse) return bw.cref;  // both literals false
    enqueue_implied(bw.implied, bw.cref, dl);
    ++stats_.propagations;
    ++stats_.binary_propagations;
  }
  return kNoClause;
}

ClauseRef CdclSolver::propagate() {
  if (!config_.measure_propagation) return propagate_fast();
  const auto t0 = std::chrono::steady_clock::now();
  const ClauseRef confl = propagate_fast();
  stats_.propagation_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return confl;
}

ClauseRef CdclSolver::propagate_fast() {
  // Binary implications are drained to fixpoint before any long-clause
  // scan: cascades complete inside the dense store, and by the time an
  // arena clause is visited the assignment is fuller — more blocker hits,
  // fewer tail scans. bhead runs ahead of qhead_; everything below qhead_
  // is fully propagated, so restarting bhead there is sound.
  std::size_t bhead = qhead_;
  const std::uint32_t dl = decision_level();
  while (qhead_ < trail_.size()) {
    while (bhead < trail_.size()) {
      const Lit bfalsified = ~trail_[bhead++];
      // The bitmap check keeps cascade literals with no binary watchers
      // (common: implied literals of one polarity) from touching a cold
      // list header at all.
      if (!occupied(bin_occupied_, bfalsified.code())) continue;
#if defined(__GNUC__) || defined(__clang__)
      if (bhead < trail_.size()) {
        const std::uint32_t next = (~trail_[bhead]).code();
        if (occupied(bin_occupied_, next)) {
          __builtin_prefetch(&bin_watches_[next], 0, 1);
        }
      }
#endif
      const ClauseRef bin_confl = propagate_binary(bfalsified, dl);
      if (bin_confl != kNoClause) {
        qhead_ = trail_.size();
        return bin_confl;
      }
    }

    const Lit p = trail_[qhead_++];  // p just became true
    const Lit falsified = ~p;
    if (!occupied(watch_occupied_, falsified.code())) continue;

    auto& ws = watches_[falsified.code()];
    // Pointer-based compacting scan. Appends go only to *other* literals'
    // watch lists (a replacement watch is never the falsified literal),
    // so ws's buffer stays put and i/j stay valid.
    Watcher* const begin = ws.data();
    Watcher* const end = begin + ws.size();
    Watcher* i = begin;
    Watcher* j = begin;
    while (i != end) {
      ++stats_.work;
#if defined(__GNUC__) || defined(__clang__)
      // The blocker's value sits in the cache-resident table; the load
      // that misses is the clause itself, so fetch its header ahead.
      if (end - i > kClausePrefetchDistance) {
        __builtin_prefetch(
            arena_.header_address(i[kClausePrefetchDistance].cref));
      }
#endif
      const Watcher w = *i++;
      if (value(w.blocker) == LBool::kTrue) {
        *j++ = w;
        continue;
      }
      const ClauseRef cref = w.cref;
      const std::span<Lit> lits = arena_.lits_mut(cref);
      // Normalize: watched slot 1 holds the falsified literal.
      if (lits[0] == falsified) std::swap(lits[0], lits[1]);
      assert(lits[1] == falsified);
      const Lit first = lits[0];
      // Refresh the blocker on every skip: the satisfied first literal
      // shields this clause from re-scans until it is unassigned.
      if (first != w.blocker && value(first) == LBool::kTrue) {
        *j++ = Watcher{cref, first};
        continue;
      }
      // Look for a replacement watch among the tail literals.
      bool moved = false;
      for (std::size_t k = 2; k < lits.size(); ++k) {
        ++stats_.work;
        const Lit cand = lits[k];
        if (value(cand) != LBool::kFalse) {
          std::swap(lits[1], lits[k]);
          watches_[cand.code()].push_back(Watcher{cref, first});
          set_occupied(watch_occupied_, cand.code());
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Clause is unit or conflicting.
      *j++ = Watcher{cref, first};
      if (value(first) == LBool::kFalse) {
        // Conflict: restore the remaining watchers and report.
        while (i != end) *j++ = *i++;
        ws.resize(static_cast<std::size_t>(j - begin));
        qhead_ = trail_.size();
        return cref;
      }
      enqueue_implied(first, cref, dl);
      ++stats_.propagations;
    }
    ws.resize(static_cast<std::size_t>(j - begin));
  }
  return kNoClause;
}

void CdclSolver::bump_lit(Lit l) {
  const std::uint32_t code = l.code();
  activity_[code] += activity_inc_;
  if (activity_[code] > kActivityRescaleLimit) {
    for (double& a : activity_) a *= 1e-100;
    activity_inc_ *= 1e-100;
  }
  if (heap_pos_[code] >= 0) heap_sift_up(static_cast<std::size_t>(heap_pos_[code]));
}

void CdclSolver::bump_clause(ClauseRef c) {
  if (!arena_.learned(c)) return;
  float a = arena_.activity(c) + static_cast<float>(clause_activity_inc_);
  if (a > kClauseActivityRescaleLimit) {
    arena_.for_each([this](ClauseRef r) {
      if (arena_.learned(r)) {
        arena_.set_activity(r, arena_.activity(r) * 1e-20f);
      }
    });
    clause_activity_inc_ *= 1e-20;
    a = arena_.activity(c) + static_cast<float>(clause_activity_inc_);
  }
  arena_.set_activity(c, a);
}

void CdclSolver::decay_activities() {
  // Chaff divides all counters periodically; scaling the increment is the
  // equivalent constant-time formulation.
  activity_inc_ /= config_.var_activity_decay;
  if (activity_inc_ > kActivityRescaleLimit) {
    for (double& a : activity_) a *= 1e-100;
    activity_inc_ *= 1e-100;
  }
  clause_activity_inc_ /= config_.clause_activity_decay;
}

std::uint32_t CdclSolver::compute_lbd(const std::vector<Lit>& lits) {
  ++lbd_stamp_counter_;
  std::uint32_t lbd = 0;
  for (const Lit l : lits) {
    const std::uint32_t level = vars_[l.var()].level;
    if (lbd_stamp_[level] != lbd_stamp_counter_) {
      lbd_stamp_[level] = lbd_stamp_counter_;
      ++lbd;
    }
  }
  return lbd;
}

void CdclSolver::analyze(ClauseRef confl, std::vector<Lit>& learned,
                         std::uint32_t& backjump_level, Lit& uip,
                         std::uint32_t& lbd) {
  learned.clear();
  learned.push_back(kUndefLit);  // slot for the asserting literal
  analyze_clear_.clear();
  otf_jobs_.clear();

  std::uint32_t path_count = 0;
  Lit p = kUndefLit;
  std::size_t index = trail_.size();
  ClauseRef cl = confl;
  const std::uint32_t current_level = decision_level();

  do {
    assert(cl != kNoClause && cl != kDecisionReason);
    bump_clause(cl);
    if (arena_.import_pending(cl)) {
      // First time this imported clause shows up in conflict analysis:
      // the shared clause earned its wire bytes.
      arena_.clear_import_pending(cl);
      ++stats_.imported_used;
    }
    const auto lits = arena_.lits(cl);
    // Skip the resolved literal p. Long reason clauses keep it in slot 0
    // (the watcher machinery normalizes); binary reasons from the fast
    // path are unordered, so the skip is by variable, not by position.
    std::size_t jstart = (p == kUndefLit) ? 0 : 1;
    if (p != kUndefLit && lits.size() == 2 && lits[0].var() != p.var()) {
      jstart = 0;
    }
    // Untainted level-0 literals of this antecedent dropped from the
    // resolvent (tracked for the on-the-fly subsumption size check).
    std::uint32_t dropped = 0;
    for (std::size_t j = jstart; j < lits.size(); ++j) {
      ++stats_.work;
      const Lit q = lits[j];
      if (p != kUndefLit && q.var() == p.var()) continue;
      const Var v = q.var();
      if (seen_[v]) continue;
      if (vars_[v].level == 0) {
        // Level-0 literals are normally strengthened away; tainted ones
        // (split assumptions and their consequences) must stay so the
        // learned clause remains valid for the original formula (§3.2).
        if (vars_[v].taint) {
          seen_[v] = 1;
          analyze_clear_.push_back(q);
          learned.push_back(q);
        } else {
          ++dropped;
        }
        continue;
      }
      seen_[v] = 1;
      analyze_clear_.push_back(q);
      bump_lit(q);
      if (vars_[v].level >= current_level) {
        ++path_count;
      } else {
        learned.push_back(q);
      }
    }
    // On-the-fly subsumption (Han–Somenzi): the resolvent contains every
    // literal of this antecedent except the pivot (nothing was dropped),
    // so |resolvent| == |antecedent| - 1 means resolvent == antecedent
    // minus the pivot — the antecedent can be strengthened in place by
    // removing its implied literal. Deferred to after backtrack(), when
    // the pivot is unassigned (path_count >= 2 guarantees the conflict
    // level is above the backjump level AND that the strengthened clause
    // keeps >= 2 unassigned literals for its watches).
    if (config_.otf_subsume && p != kUndefLit && dropped == 0 &&
        path_count >= 2 && lits.size() >= 3 &&
        path_count + learned.size() - 1 == lits.size() - 1) {
      otf_jobs_.push_back(OtfJob{cl, p.var()});
    }
    // Walk the trail backwards to the next marked assignment.
    while (!seen_[trail_[index - 1].var()]) --index;
    --index;
    p = trail_[index];
    cl = vars_[p.var()].reason;
    seen_[p.var()] = 0;
    --path_count;
  } while (path_count > 0);

  uip = p;
  learned[0] = ~p;

  if (config_.minimize_learned) {
    minimize(learned);
    if (config_.minimize_bin) {
      strengthen_binary(learned);
    }
  }

  // LBD of the final clause (post-minimization), while every literal is
  // still assigned — backtracking clears the levels this counts.
  lbd = compute_lbd(learned);

  // Backjump level: highest level among the non-asserting literals; keep
  // that literal in slot 1 so it becomes the second watch.
  backjump_level = 0;
  if (learned.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learned.size(); ++i) {
      if (vars_[learned[i].var()].level > vars_[learned[max_i].var()].level) max_i = i;
    }
    std::swap(learned[1], learned[max_i]);
    backjump_level = vars_[learned[1].var()].level;
  }

  for (const Lit l : analyze_clear_) seen_[l.var()] = 0;
  analyze_clear_.clear();
}

void CdclSolver::minimize(std::vector<Lit>& learned) {
  const std::size_t before = learned.size();
  minimize_deep(learned);
  stats_.minimized_literals += before - learned.size();
}

void CdclSolver::minimize_deep(std::vector<Lit>& learned) {
  // Recursive minimization (MiniSat litRedundant / dawn otf=2): a literal
  // is redundant if the DFS over its reason antecedents bottoms out
  // entirely in other clause literals and untainted level-0 facts.
  // Removing every such literal at once is sound — support chains are
  // well-founded by trail order (Sörensson & Biere, "Minimizing Learned
  // Clauses"). Verdicts are memoized per variable under an epoch stamp:
  // kMinSupport survives across probes (clause literal or proven
  // redundant), kMinPoison memoizes intrinsic "required" leaves.
  ++min_epoch_;
  min_clear_.clear();
  std::uint64_t levels_mask = 0;
  for (const Lit l : learned) {
    const Var v = l.var();
    min_stamp_[v] = min_epoch_;
    min_mark_[v] = kMinSupport;
    levels_mask |= std::uint64_t{1} << (vars_[v].level & 63);
  }
  std::size_t keep = 1;
  for (std::size_t i = 1; i < learned.size(); ++i) {
    const Var v = learned[i].var();
    const ClauseRef r = vars_[v].reason;
    const bool droppable = r != kDecisionReason && r != kNoClause &&
                           vars_[v].level > 0 &&
                           lit_redundant(learned[i], levels_mask);
    if (!droppable) learned[keep++] = learned[i];
  }
  learned.resize(keep);
}

bool CdclSolver::lit_redundant(Lit root, std::uint64_t levels_mask) {
  min_stack_.clear();
  min_stack_.push_back(root);
  // Marks added by this probe; rolled back to kMinUnknown on failure so a
  // literal on a failing path can still prove redundant from a different
  // root (only intrinsic leaf failures are safe to memoize as poison).
  const std::size_t probe_top = min_clear_.size();
  while (!min_stack_.empty()) {
    const Var pivot = min_stack_.back().var();
    min_stack_.pop_back();
    const ClauseRef r = vars_[pivot].reason;
    assert(r != kNoClause && r != kDecisionReason);
    for (const Lit q : arena_.lits(r)) {
      ++stats_.work;
      const Var v = q.var();
      if (v == pivot) continue;
      if (vars_[v].level == 0 && !vars_[v].taint) continue;  // free fact
      const bool stamped = min_stamp_[v] == min_epoch_;
      if (stamped && min_mark_[v] == kMinSupport) continue;
      const ClauseRef vr = vars_[v].reason;
      // Intrinsic "required" leaves: already-poisoned, decision or
      // assumption, tainted level-0 (must stay in any derived clause),
      // or a decision level no clause literal lives at (the abstraction
      // filter — its support could never bottom out in the clause).
      if ((stamped && min_mark_[v] == kMinPoison) || vr == kDecisionReason ||
          vr == kNoClause || vars_[v].level == 0 ||
          ((std::uint64_t{1} << (vars_[v].level & 63)) & levels_mask) == 0) {
        min_stamp_[v] = min_epoch_;
        min_mark_[v] = kMinPoison;
        for (std::size_t j = probe_top; j < min_clear_.size(); ++j) {
          min_mark_[min_clear_[j]] = kMinUnknown;
        }
        min_clear_.resize(probe_top);
        return false;
      }
      // Unknown: mark as support optimistically (the probe either
      // completes, validating every mark, or rolls them back) and recurse
      // into its reason.
      min_stamp_[v] = min_epoch_;
      min_mark_[v] = kMinSupport;
      min_clear_.push_back(v);
      min_stack_.push_back(q);
    }
  }
  return true;
}

void CdclSolver::strengthen_binary(std::vector<Lit>& learned) {
  // Glucose's minimisationWithBinaryResolution: every binary clause
  // (learned[0] ∨ x) in the store resolves with the learned clause on x
  // to drop ¬x from it (the binary store is indexed by the clause's own
  // literals, so those binaries sit in learned[0]'s list). Unlike
  // minimization this is resolution against live DB clauses, so it may
  // soundly drop even tainted level-0 literals.
  if (learned.size() < 2) return;
  // Cost guard (Glucose gates the same way): long clauses rarely shrink
  // to something useful and the scan is per-conflict.
  constexpr std::size_t kMaxSize = 30;
  if (learned.size() > kMaxSize) return;
  const auto& bws = bin_watches_[learned[0].code()];
  if (bws.empty()) return;
  ++lit_stamp_counter_;
  for (std::size_t i = 1; i < learned.size(); ++i) {
    lit_stamp_[learned[i].code()] = lit_stamp_counter_;
  }
  std::size_t removed = 0;
  stats_.work += bws.size();
  for (const BinWatcher& bw : bws) {
    const std::uint32_t code = (~bw.implied).code();
    if (lit_stamp_[code] == lit_stamp_counter_) {
      lit_stamp_[code] = 0;  // un-stamp: the compaction below drops it
      ++removed;
    }
  }
  if (removed == 0) return;
  std::size_t keep = 1;
  for (std::size_t i = 1; i < learned.size(); ++i) {
    if (lit_stamp_[learned[i].code()] == lit_stamp_counter_) {
      learned[keep++] = learned[i];
    }
  }
  assert(keep + removed == learned.size());
  learned.resize(keep);
  stats_.bin_strengthened_literals += removed;
}

void CdclSolver::apply_otf_strengthening() {
  // Runs right after backtrack(backjump_level): each job's pivot was
  // assigned at the conflict level (above the backjump level), so it is
  // unassigned now and its clause is no longer anyone's reason (a clause
  // justifies at most its one implied literal). The strengthened clause
  // keeps >= 2 current-level literals (analyze() required path_count >= 2
  // when collecting the job), all unassigned after the backjump, so sane
  // watches always exist.
  for (const OtfJob& job : otf_jobs_) {
    const ClauseRef c = job.cref;
    assert(!arena_.deleted(c));
    const auto old_lits = arena_.lits(c);
    std::uint32_t pivot_idx = std::numeric_limits<std::uint32_t>::max();
    for (std::uint32_t k = 0; k < old_lits.size(); ++k) {
      if (old_lits[k].var() == job.pivot) {
        pivot_idx = k;
        break;
      }
    }
    assert(pivot_idx != std::numeric_limits<std::uint32_t>::max());
    assert(value(old_lits[pivot_idx]) == LBool::kUndef);
    cnf::Clause strengthened;
    strengthened.reserve(old_lits.size() - 1);
    for (std::uint32_t k = 0; k < old_lits.size(); ++k) {
      if (k != pivot_idx) strengthened.push_back(old_lits[k]);
    }
    if (proof_on()) {
      // DRAT add-then-delete: the strengthened clause is an intermediate
      // resolvent of the conflict analysis, hence RUP against the current
      // database; only after it is on record may the weaker original go.
      proof_add(strengthened);
      proof_delete(c);  // reads the pre-strengthening literals
    }
    detach(c);  // watcher slots are about to become stale
    arena_.remove_lit(c, pivot_idx);
    // Re-establish the watched pair: two non-false literals into slots
    // 0/1 (>= 2 exist, see above), then re-attach — possibly migrating a
    // now-binary clause into the binary store.
    const auto lits = arena_.lits_mut(c);
    std::uint32_t w = 0;
    for (std::uint32_t k = 0; k < lits.size() && w < 2; ++k) {
      if (value(lits[k]) != LBool::kFalse) std::swap(lits[w++], lits[k]);
    }
    assert(w == 2);
    if (arena_.size(c) < arena_.lbd(c)) arena_.set_lbd(c, arena_.size(c));
    attach(c);
    ++stats_.otf_strengthened;
    // Re-publish: peers (and the causal share-stream RUP contract) only
    // ever saw the weaker pre-strengthening clause, yet later local
    // derivations resolve on the stronger one.  Publication is content-
    // addressed downstream, so the new literal set re-fingerprints here.
    if (share_cb_) {
      ++stats_.exported_clauses;
      share_cb_(std::move(strengthened), arena_.lbd(c));
    }
  }
  otf_jobs_.clear();
}

void CdclSolver::backtrack(std::uint32_t target_level) {
  if (decision_level() <= target_level) return;
  const std::size_t bound = trail_lim_[target_level];
  for (std::size_t i = trail_.size(); i-- > bound;) {
    const Var v = trail_[i].var();
    phase_[v] = (value(v) == LBool::kTrue) ? 1 : 0;
    vals_[2 * v] = LBool::kUndef;
    vals_[2 * v + 1] = LBool::kUndef;
    vars_[v].reason = kNoClause;
    vars_[v].taint = 0;
    if (heap_pos_[2 * v] < 0) heap_insert(2 * v);
    if (heap_pos_[2 * v + 1] < 0) heap_insert(2 * v + 1);
  }
  trail_.resize(bound);
  trail_lim_.resize(target_level);
  qhead_ = trail_.size();
}

void CdclSolver::learn_and_attach(const std::vector<Lit>& learned,
                                  std::uint32_t lbd) {
  ++stats_.learned_clauses;
  stats_.learned_literals += learned.size();
  if (proof_on()) proof_add(cnf::Clause(learned.begin(), learned.end()));
  if (share_cb_) {
    ++stats_.exported_clauses;
    share_cb_(cnf::Clause(learned.begin(), learned.end()), lbd);
  }
  if (learned.size() == 1) {
    // A learned unit is a globally valid fact (all assumption
    // dependencies were kept in the clause, and there are none).
    assert(decision_level() == 0);
    const bool ok = enqueue_level0(learned[0], /*tainted=*/false);
    if (!ok) root_conflict_ = true;
    return;
  }
  const ClauseRef cref = arena_.alloc(learned, /*learned=*/true);
  arena_.set_activity(cref, static_cast<float>(clause_activity_inc_));
  arena_.set_lbd(cref, lbd);
  attach(cref);
  const bool ok = enqueue(learned[0], cref);
  assert(ok);
  (void)ok;
  ++stats_.propagations;
  stats_.peak_db_bytes = std::max(stats_.peak_db_bytes, arena_.live_bytes());
}

std::uint64_t CdclSolver::next_restart_interval() {
  const auto base = std::uint64_t{config_.restart_base};
  switch (config_.restart_policy) {
    case RestartPolicy::kLuby:
      return base * luby(restart_count_);
    case RestartPolicy::kGeometric: {
      const auto interval = static_cast<std::uint64_t>(geom_interval_);
      geom_interval_ *= kGeometricRestartGrowth;
      return std::max<std::uint64_t>(1, interval);
    }
    case RestartPolicy::kLinear:
      return base * (std::uint64_t{restart_count_} + 1);
  }
  return base;
}

std::optional<Lit> CdclSolver::pick_branch() {
  if (decision_hook_) {
    const Lit l = decision_hook_();
    if (l.valid() && value(l.var()) == LBool::kUndef) return l;
  }
  if (num_vars_ > 0 && config_.random_decision_freq > 0.0 &&
      rng_.chance(config_.random_decision_freq)) {
    // Random diversification: pick an unassigned variable uniformly. The
    // num_vars_ guard matters: range(1, 0) would yield variable 1, one
    // past the end of a variable-free instance's tables.
    for (int tries = 0; tries < 16; ++tries) {
      const Var v = static_cast<Var>(rng_.range(1, num_vars_));
      if (value(v) == LBool::kUndef) {
        return Lit(v, rng_.chance(0.5));
      }
    }
  }
  while (!heap_.empty()) {
    const std::uint32_t code = heap_pop();
    const Lit l = Lit::from_code(code);
    if (value(l.var()) != LBool::kUndef) continue;
    if (config_.phase_saving && phase_[l.var()] != 2) {
      return Lit(l.var(), phase_[l.var()] == 0);
    }
    switch (config_.polarity_init) {
      case PolarityInit::kActivity: break;  // the VSIDS literal's own sign
      case PolarityInit::kFalse: return Lit(l.var(), true);
      case PolarityInit::kTrue: return Lit(l.var(), false);
      case PolarityInit::kRandom: return Lit(l.var(), rng_.chance(0.5));
    }
    return l;
  }
  // Heap exhausted: variables absent from every clause may remain.
  for (Var v = 1; v <= num_vars_; ++v) {
    if (value(v) == LBool::kUndef) return Lit(v, true);  // default false
  }
  return std::nullopt;
}

void CdclSolver::proof_add(cnf::Clause clause) {
  if (proof_sink_) proof_sink_->proof_add(clause);
  proof_.add(std::move(clause));
}

void CdclSolver::proof_delete(ClauseRef cref) {
  if (!proof_on()) return;
  const auto lits = arena_.lits(cref);
  // Deletions stay local: in a distributed proof another worker may still
  // depend on its own copy of the clause (see solver/proof.hpp).
  proof_.remove(cnf::Clause(lits.begin(), lits.end()));
}

void CdclSolver::log_terminal() {
  if (!proof_on() || terminal_logged_) return;
  terminal_logged_ = true;
  cnf::Clause leaf;
  leaf.reserve(assumptions_.size());
  for (const Lit a : assumptions_) leaf.push_back(~a);
  proof_.add(std::move(leaf));
}

void CdclSolver::reduce_db() {
  ++stats_.db_reductions;
#ifndef NDEBUG
  // The locked check below reads only slot 0: it relies on the invariant
  // that a long reason clause keeps its implied literal there (the
  // watcher machinery preserves it; check_invariants() verifies the same
  // property). Binary-store reasons are unordered but size <= 2 clauses
  // are never candidates anyway.
  for (const Lit p : trail_) {
    const ClauseRef pr = vars_[p.var()].reason;
    if (pr != kNoClause && pr != kDecisionReason && !in_binary_store(pr)) {
      assert(arena_.lit(pr, 0) == p &&
             "reason clause must keep its implied literal in slot 0");
    }
  }
#endif
  std::vector<ClauseRef> candidates;
  candidates.reserve(arena_.num_learned());
  arena_.for_each([&](ClauseRef r) {
    if (!arena_.learned(r)) return;
    if (arena_.size(r) <= 2) return;  // binaries are cheap and precious
    if (arena_.lbd(r) <= kGlueLbd) return;  // glue: protected outright
    const Lit first = arena_.lit(r, 0);
    const bool locked =
        value(first) == LBool::kTrue && vars_[first.var()].reason == r;
    if (!locked) candidates.push_back(r);
  });
  // Tiered eviction: highest LBD goes first (the clauses least likely to
  // prune future search); activity breaks ties within an LBD band.
  std::sort(candidates.begin(), candidates.end(),
            [this](ClauseRef a, ClauseRef b) {
              const std::uint32_t la = arena_.lbd(a);
              const std::uint32_t lb = arena_.lbd(b);
              if (la != lb) return la > lb;
              return arena_.activity(a) < arena_.activity(b);
            });
  const std::size_t to_delete = candidates.size() / 2;
  for (std::size_t i = 0; i < to_delete; ++i) {
    proof_delete(candidates[i]);
    detach(candidates[i]);
    arena_.free(candidates[i]);
    ++stats_.deleted_clauses;
  }
  max_learned_ = static_cast<std::size_t>(
      static_cast<double>(max_learned_) * config_.reduce_growth);
  if (config_.arena_compact) {
    compact_ordered();
  } else {
    garbage_collect();
  }
  obs::trace_event(tracer_, trace_worker_, obs::EventKind::kDbReduce,
                   to_delete, arena_.num_learned());
}

void CdclSolver::drop_all_learned() {
  std::vector<ClauseRef> victims;
  victims.reserve(arena_.num_learned());
  arena_.for_each([&](ClauseRef r) {
    if (!arena_.learned(r)) return;
    // Binary fast-path reasons are unordered, so a binary clause can be
    // the reason of either of its literals; check both.
    const auto is_reason = [&](cnf::Lit l) {
      return value(l) == cnf::LBool::kTrue && vars_[l.var()].reason == r;
    };
    const bool locked =
        is_reason(arena_.lit(r, 0)) ||
        (arena_.binary(r) && is_reason(arena_.lit(r, 1)));
    if (!locked) victims.push_back(r);
  });
  for (const ClauseRef r : victims) {
    proof_delete(r);
    detach(r);
    arena_.free(r);
    ++stats_.deleted_clauses;
  }
  garbage_collect();
}

void CdclSolver::garbage_collect() {
  if (arena_.garbage_bytes() == 0) return;
  rewrite_refs(arena_.gc());
}

void CdclSolver::compact_ordered() {
  // The ordered rewrite builds a second buffer (transiently ~2x the live
  // bytes); under memory pressure fall back to the in-place gc so the
  // squeeze path never overshoots the limit it is trying to respect.
  if (arena_.live_bytes() > config_.memory_limit_bytes / 2) {
    garbage_collect();
    return;
  }
  std::vector<ClauseRef> order;
  order.reserve(arena_.num_problem() + arena_.num_learned());
  arena_.for_each([&](ClauseRef r) {
    if (!arena_.learned(r)) order.push_back(r);
  });
  const std::size_t learned_begin = order.size();
  arena_.for_each([&](ClauseRef r) {
    if (arena_.learned(r)) order.push_back(r);
  });
  // Glue-first within the learned tier; stable, so clauses of equal LBD
  // keep their (age-correlated) allocation order.
  std::stable_sort(order.begin() + static_cast<std::ptrdiff_t>(learned_begin),
                   order.end(), [this](ClauseRef a, ClauseRef b) {
                     return arena_.lbd(a) < arena_.lbd(b);
                   });
  rewrite_refs(arena_.gc_ordered(order));
  ++stats_.arena_compactions;
}

void CdclSolver::rewrite_refs(const ClauseArena::Remap& remap) {
  // Safe at any decision level: every live external ref is either in a
  // watch store or is the reason of a *trail* literal (backtrack() clears
  // the reason of every unassigned variable), and all three are rewritten
  // here.
  for (auto& ws : watches_) {
    for (auto& w : ws) {
      w.cref = remap(w.cref);
      assert(w.cref != kNoClause);
    }
  }
  for (auto& ws : bin_watches_) {
    for (auto& w : ws) {
      w.cref = remap(w.cref);
      assert(w.cref != kNoClause);
    }
  }
  for (const Lit p : trail_) {
    ClauseRef& r = vars_[p.var()].reason;
    if (r != kNoClause && r != kDecisionReason) {
      r = remap(r);
      assert(r != kNoClause);
    }
  }
}

bool CdclSolver::merge_imports() {
  assert(decision_level() == 0);
  if (import_queue_.empty()) return true;
  std::vector<cnf::Clause> batch;
  batch.swap(import_queue_);
  obs::trace_event(tracer_, trace_worker_, obs::EventKind::kClauseImport,
                   batch.size());
  for (const cnf::Clause& c : batch) {
    ++stats_.imported_clauses;
    // Local log only: the learner's own proof_add already placed this
    // clause in any shared sink, earlier in arrival order.
    if (proof_on()) proof_.add(c);
    const std::size_t clauses_before = arena_.num_learned();
    const std::size_t trail_before = trail_.size();
    ClauseRef imported_ref = kNoClause;
    if (!add_clause_at_level0(c, /*learned=*/true, &imported_ref)) {
      root_conflict_ = true;  // paper §3.2 case 3: all literals false
      return false;
    }
    if (imported_ref != kNoClause) arena_.mark_import(imported_ref);
    if (arena_.num_learned() == clauses_before && trail_.size() == trail_before) {
      ++stats_.imported_useless;  // case 4: satisfied/duplicate, discarded
    }
  }
  // Case 1 cascades: propagate the newly implied literals.
  if (propagate() != kNoClause) {
    root_conflict_ = true;
    return false;
  }
  return true;
}

bool CdclSolver::simplify_at_level0() {
  assert(decision_level() == 0);
  if (propagate() != kNoClause) {
    root_conflict_ = true;
    return false;
  }
  if (trail_.size() == last_simplify_trail_) return true;
  last_simplify_trail_ = trail_.size();
  if (proof_on()) {
    // Pruning may delete the clauses that derive the level-0 facts; log
    // those facts as unit additions first (each is RUP right now), so the
    // checker can still propagate them. Tainted literals are guiding-path
    // assumptions, not consequences — they are never logged and never
    // dropped from learned clauses either.
    const std::size_t level0_end =
        trail_lim_.empty() ? trail_.size() : trail_lim_[0];
    for (std::size_t i = proof_logged_units_; i < level0_end; ++i) {
      if (!vars_[trail_[i].var()].taint) {
        proof_add(cnf::Clause{trail_[i]});
      }
    }
    proof_logged_units_ = level0_end;
  }
  // Reasons of level-0 assignments are never resolved by analyze() and
  // taint bits are already computed, so reason clauses can be unlocked.
  for (const Lit p : trail_) vars_[p.var()].reason = kDecisionReason;
  std::vector<ClauseRef> satisfied;
  arena_.for_each([&](ClauseRef r) {
    for (const Lit l : arena_.lits(r)) {
      if (value(l) == LBool::kTrue && vars_[l.var()].level == 0) {
        satisfied.push_back(r);
        return;
      }
    }
  });
  for (const ClauseRef r : satisfied) {
    proof_delete(r);
    detach(r);
    arena_.free(r);
  }
  garbage_collect();
  return true;
}

SolveStatus CdclSolver::solve(std::uint64_t work_budget) {
  if (root_conflict_) {
    log_terminal();
    return status_ = SolveStatus::kUnsat;
  }
  if (status_ == SolveStatus::kSat) return status_;
  const std::uint64_t work_end =
      (work_budget >= std::numeric_limits<std::uint64_t>::max() - stats_.work)
          ? std::numeric_limits<std::uint64_t>::max()
          : stats_.work + work_budget;

  for (;;) {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      // Cooperative cancellation, checked ahead of every propagate-to-
      // fixpoint batch: a cancelled solver overshoots the stop by at most
      // one batch instead of the rest of its slice. Resumable — clearing
      // the flag and calling solve() again continues the search.
      return status_ = SolveStatus::kUnknown;
    }
    const ClauseRef confl = propagate();
    if (confl != kNoClause) {
      ++stats_.conflicts;
      ++stats_.work;
      if (decision_level() == 0) {
        root_conflict_ = true;
        log_terminal();
        return status_ = SolveStatus::kUnsat;
      }
      std::vector<Lit> learned;
      std::uint32_t backjump_level = 0;
      std::uint32_t lbd = 0;
      Lit uip = kUndefLit;
      analyze(confl, learned, backjump_level, uip, lbd);
      record_conflict(confl, learned, uip, backjump_level, lbd);
      obs::trace_event(tracer_, trace_worker_, obs::EventKind::kConflict, lbd,
                       decision_level());
      backtrack(backjump_level);
      if (!otf_jobs_.empty()) apply_otf_strengthening();
      learn_and_attach(learned, lbd);
      if (root_conflict_) {
        log_terminal();
        return status_ = SolveStatus::kUnsat;
      }
      if (stats_.conflicts % config_.decay_interval == 0) decay_activities();
      if (conflicts_until_restart_ > 0) --conflicts_until_restart_;
      if (arena_.num_learned() >= max_learned_) reduce_db();
      if (arena_.live_bytes() > config_.memory_limit_bytes) {
        if (!config_.allow_memory_squeeze) {
          return status_ = SolveStatus::kMemOut;
        }
        reduce_db();
        if (arena_.live_bytes() > config_.memory_limit_bytes) {
          // Escalate: drop every unlocked learned clause, binaries
          // included. Progress suffers, but a GridSAT client must stay
          // alive until its split request is granted.
          drop_all_learned();
        }
        // Out of memory when even that cannot reclaim below the limit
        // (problem + locked clauses alone overflow), or when the solver
        // is squeezing so often that learned clauses are discarded as
        // fast as they arrive — the paper's description of a sequential
        // solver that "cannot make any further progress" (§1, §4.2).
        ++memory_squeezes_;
        if (arena_.live_bytes() > config_.memory_limit_bytes ||
            (config_.max_memory_squeezes != 0 &&
             memory_squeezes_ > config_.max_memory_squeezes)) {
          return status_ = SolveStatus::kMemOut;
        }
      }
    } else {
      if (decision_level() == 0) {
        if (!merge_imports() || !simplify_at_level0()) {
          log_terminal();
          return status_ = SolveStatus::kUnsat;
        }
      }
      if (config_.restart_base != 0 && conflicts_until_restart_ == 0) {
        ++restart_count_;
        ++stats_.restarts;
        obs::trace_event(tracer_, trace_worker_, obs::EventKind::kRestart,
                         stats_.restarts);
        conflicts_until_restart_ = next_restart_interval();
        if (decision_level() > 0) {
          backtrack(0);
          continue;
        }
      }
      const auto decision = pick_branch();
      if (!decision.has_value()) {
        model_.assign(vars_.size(), LBool::kUndef);
        for (std::size_t v = 1; v < vars_.size(); ++v) {
          model_[v] = value(static_cast<Var>(v));
        }
        return status_ = SolveStatus::kSat;
      }
      ++stats_.decisions;
      ++stats_.work;
      if constexpr (obs::kTraceCompiledIn) {
        // Batched: one event per 4096 decisions keeps the ring usable on
        // million-decision runs and the cost off the decision path.
        if ((stats_.decisions & 4095u) == 0) {
          obs::trace_event(tracer_, trace_worker_, obs::EventKind::kDecisions,
                           stats_.decisions);
        }
      }
      trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
      stats_.max_decision_level =
          std::max<std::uint64_t>(stats_.max_decision_level, decision_level());
      const bool ok = enqueue(*decision, kDecisionReason);
      assert(ok);
      (void)ok;
    }
    if (stats_.work >= work_end) return status_ = SolveStatus::kUnknown;
  }
}

const cnf::Assignment& CdclSolver::model() const {
  assert(status_ == SolveStatus::kSat);
  return model_;
}

std::size_t CdclSolver::db_bytes() const noexcept {
  const std::size_t clause_count = arena_.num_learned() + arena_.num_problem();
  return arena_.live_bytes() + clause_count * 2 * sizeof(Watcher) +
         static_cast<std::size_t>(num_vars_ + 1) * 24;
}

bool CdclSolver::probe_assume(Lit p) {
  assert(!root_conflict_ && status_ != SolveStatus::kSat);
  if (value(p) != LBool::kUndef) return true;
  trail_lim_.push_back(trail_.size());
  enqueue(p, kDecisionReason);
  return propagate() == kNoClause;
}

void CdclSolver::probe_reset() { backtrack(0); }

bool CdclSolver::can_split() const noexcept {
  return !root_conflict_ && status_ != SolveStatus::kSat &&
         !trail_lim_.empty();
}

Subproblem CdclSolver::split() {
  assert(can_split());
  ++stats_.splits;
  const Lit d1 = trail_[trail_lim_[0]];

  // The complementary branch: level-0 prefix plus ~d1 as an assumption.
  Subproblem other = to_subproblem();
  other.units.push_back(SubproblemUnit{~d1, /*tainted=*/true});
  other.assumptions.push_back(~d1);
  other.path += (other.path.empty() ? "" : ".") + cnf::to_string(~d1);

  // Fold our first decision level into level 0 (Figure 2, left side).
  const std::size_t level1_end =
      trail_lim_.size() > 1 ? trail_lim_[1] : trail_.size();
  for (std::size_t i = trail_lim_[0]; i < level1_end; ++i) {
    const Var v = trail_[i].var();
    vars_[v].level = 0;
    if (i == trail_lim_[0]) {
      vars_[v].taint = 1;  // the decision becomes a split assumption
    } else {
      bool t = false;
      const ClauseRef r = vars_[v].reason;
      if (r != kNoClause && r != kDecisionReason) {
        for (const Lit q : arena_.lits(r)) {
          if (q.var() != v && vars_[q.var()].taint) {
            t = true;
            break;
          }
        }
      }
      vars_[v].taint = t ? 1 : 0;
    }
  }
  for (const Lit p : trail_) {
    if (vars_[p.var()].level >= 2) --vars_[p.var()].level;
  }
  trail_lim_.erase(trail_lim_.begin());
  last_simplify_trail_ = 0;  // the new level-0 facts enable fresh pruning
  assumptions_.push_back(d1);  // we keep the d1 branch
  return other;
}

Subproblem CdclSolver::to_subproblem() const {
  Subproblem sp;
  sp.num_vars = num_vars_;
  sp.assumptions = assumptions_;
  const std::size_t level0_end =
      trail_lim_.empty() ? trail_.size() : trail_lim_[0];
  sp.units.reserve(level0_end);
  for (std::size_t i = 0; i < level0_end; ++i) {
    const Var v = trail_[i].var();
    sp.units.push_back(SubproblemUnit{trail_[i], vars_[v].taint != 0});
    if (vars_[v].taint) {
      sp.path += (sp.path.empty() ? "" : ".") + cnf::to_string(trail_[i]);
    }
  }
  // Problem clauses first, then learned; skip clauses satisfied at level 0
  // (they would be pruned on arrival anyway — don't pay to ship them).
  auto satisfied_at_level0 = [&](ClauseRef r) {
    for (const Lit l : arena_.lits(r)) {
      if (value(l) == LBool::kTrue && vars_[l.var()].level == 0) return true;
    }
    return false;
  };
  std::vector<std::uint64_t> bits;
  sp.clauses.reserve(arena_.num_problem() + arena_.num_learned());
  arena_.for_each([&](ClauseRef r) {
    if (arena_.learned(r) || satisfied_at_level0(r)) return;
    sp.clauses.push_back(canonical_clause(arena_.lits(r), bits));
  });
  sp.num_problem_clauses = sp.clauses.size();
  arena_.for_each([&](ClauseRef r) {
    if (!arena_.learned(r) || satisfied_at_level0(r)) return;
    sp.clauses.push_back(canonical_clause(arena_.lits(r), bits));
  });
  return sp;
}

void CdclSolver::import_clauses(std::vector<cnf::Clause> clauses) {
  import_queue_.insert(import_queue_.end(),
                       std::make_move_iterator(clauses.begin()),
                       std::make_move_iterator(clauses.end()));
}

std::vector<SubproblemUnit> CdclSolver::level0_units() const {
  const std::size_t level0_end =
      trail_lim_.empty() ? trail_.size() : trail_lim_[0];
  std::vector<SubproblemUnit> units;
  units.reserve(level0_end);
  for (std::size_t i = 0; i < level0_end; ++i) {
    units.push_back(SubproblemUnit{trail_[i], vars_[trail_[i].var()].taint != 0});
  }
  return units;
}

std::vector<cnf::Clause> CdclSolver::learned_clauses(std::size_t max_len) const {
  std::vector<cnf::Clause> out;
  std::vector<std::uint64_t> bits;
  arena_.for_each([&](ClauseRef r) {
    if (!arena_.learned(r)) return;
    if (max_len != 0 && arena_.size(r) > max_len) return;
    out.push_back(canonical_clause(arena_.lits(r), bits));
  });
  return out;
}

void CdclSolver::record_conflict(ClauseRef confl,
                                 const std::vector<Lit>& learned, Lit uip,
                                 std::uint32_t backjump_level,
                                 std::uint32_t lbd) {
  if (!conflict_observer_) return;
  ConflictRecord rec;
  const auto lits = arena_.lits(confl);
  rec.conflicting_clause.assign(lits.begin(), lits.end());
  rec.learned_clause = learned;
  rec.uip = uip;
  rec.conflict_level = decision_level();
  rec.backjump_level = backjump_level;
  rec.lbd = lbd;
  conflict_observer_(rec);
}

void CdclSolver::heap_insert(std::uint32_t lit_code) {
  assert(heap_pos_[lit_code] < 0);
  heap_pos_[lit_code] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(lit_code);
  heap_sift_up(heap_.size() - 1);
}

void CdclSolver::heap_sift_up(std::size_t i) {
  const std::uint32_t x = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_less(heap_[parent], x)) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = x;
  heap_pos_[x] = static_cast<std::int32_t>(i);
}

void CdclSolver::heap_sift_down(std::size_t i) {
  const std::uint32_t x = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t left = 2 * i + 1;
    if (left >= n) break;
    const std::size_t right = left + 1;
    const std::size_t child =
        (right < n && heap_less(heap_[left], heap_[right])) ? right : left;
    if (!heap_less(x, heap_[child])) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = x;
  heap_pos_[x] = static_cast<std::int32_t>(i);
}

std::uint32_t CdclSolver::heap_pop() {
  const std::uint32_t top = heap_[0];
  heap_pos_[top] = -1;
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_pos_[last] = 0;
    heap_sift_down(0);
  }
  return top;
}

std::string CdclSolver::check_invariants() const {
  std::ostringstream err;
  // Trail shape.
  if (qhead_ > trail_.size()) return "qhead beyond trail";
  for (std::size_t i = 0; i < trail_lim_.size(); ++i) {
    if (trail_lim_[i] > trail_.size()) return "trail_lim beyond trail";
    if (i > 0 && trail_lim_[i] < trail_lim_[i - 1]) return "trail_lim not monotone";
  }
  // Value table: each variable's two entries are complements or both
  // undefined, and exactly the trail's literals are true (the trail loop
  // below checks each is true; the count rules out any other).
  std::size_t num_true = 0;
  for (std::size_t code = 0; code < vals_.size(); code += 2) {
    const LBool pos = vals_[code];
    const LBool neg = vals_[code + 1];
    if (pos != cnf::negate(neg)) {
      err << "value table entries of variable " << code / 2
          << " are neither complements nor both undefined";
      return err.str();
    }
    if (pos != LBool::kUndef) ++num_true;
  }
  if (num_true != trail_.size()) {
    err << num_true << " true literals in the value table, " << trail_.size()
        << " on the trail";
    return err.str();
  }
  for (std::size_t i = 0; i < trail_.size(); ++i) {
    const Lit p = trail_[i];
    if (value(p) != LBool::kTrue) {
      err << "trail literal " << cnf::to_string(p) << " not true";
      return err.str();
    }
    // Level bookkeeping: position i in the trail belongs to the level
    // whose window contains i.
    std::uint32_t expected_level = 0;
    for (std::size_t d = 0; d < trail_lim_.size(); ++d) {
      if (i >= trail_lim_[d]) expected_level = static_cast<std::uint32_t>(d + 1);
    }
    if (vars_[p.var()].level != expected_level) {
      err << "level mismatch for " << cnf::to_string(p) << ": stored "
          << vars_[p.var()].level << " expected " << expected_level;
      return err.str();
    }
    // Reason slot-0 invariant: a long reason clause keeps its implied
    // literal in slot 0 (the watcher machinery and learn_and_attach()
    // maintain this; reduce_db()'s locked check and the split/checkpoint
    // taint walks rely on it). Binary-store reasons are unordered — the
    // implied literal may sit in either slot.
    const ClauseRef reason = vars_[p.var()].reason;
    if (reason != kNoClause && reason != kDecisionReason) {
      if (in_binary_store(reason)) {
        if (arena_.lit(reason, 0) != p && arena_.lit(reason, 1) != p) {
          err << "binary reason of " << cnf::to_string(p)
              << " does not contain it";
          return err.str();
        }
      } else if (arena_.lit(reason, 0) != p) {
        err << "reason of " << cnf::to_string(p)
            << " does not keep it in slot 0";
        return err.str();
      }
    }
  }
  // Watcher integrity: every live clause of size >= 2 is watched exactly
  // on its first two literals — binary clauses in the binary-implication
  // store, everything else in the general watch lists, and never in both.
  std::string result;
  arena_.for_each([&](ClauseRef r) {
    if (!result.empty()) return;
    if (arena_.size(r) < 2) {
      result = "live clause of size < 2 in arena";
      return;
    }
    const bool binary_store = in_binary_store(r);
    for (const std::uint32_t slot : {0u, 1u}) {
      const Lit w = arena_.lit(r, slot);
      const Lit other = arena_.lit(r, 1 - slot);
      const auto& ws = watches_[w.code()];
      const bool in_long = std::any_of(
          ws.begin(), ws.end(), [r](const Watcher& x) { return x.cref == r; });
      const auto& bws = bin_watches_[w.code()];
      const bool in_bin =
          std::any_of(bws.begin(), bws.end(), [r, other](const BinWatcher& x) {
            return x.cref == r && x.implied == other;
          });
      if (binary_store ? !in_bin : !in_long) {
        result = binary_store
                     ? "binary clause not present in the binary store"
                     : "clause not present in watch list of its watched literal";
        return;
      }
      if (binary_store ? in_long : in_bin) {
        result = "clause watched by the wrong store";
        return;
      }
    }
  });
  if (!result.empty()) return result;
  // Occupancy bitmaps: a clear bit is a proof of emptiness that lets
  // propagation skip the list lookup, so a clear bit over a non-empty list
  // would silently drop propagations. (Stale set bits over empty lists
  // are fine — they only cost the lookup.)
  for (std::size_t code = 0; code < watches_.size(); ++code) {
    const auto c = static_cast<std::uint32_t>(code);
    if (!bin_watches_[code].empty() && !occupied(bin_occupied_, c)) {
      err << "binary watch list for code " << code
          << " non-empty but occupancy bit clear";
      return err.str();
    }
    if (!watches_[code].empty() && !occupied(watch_occupied_, c)) {
      err << "watch list for code " << code
          << " non-empty but occupancy bit clear";
      return err.str();
    }
  }
  // Watched-literal invariant (only meaningful in a fully propagated,
  // conflict-free state): both watches false implies some other literal
  // would have replaced them, so the clause must be satisfied elsewhere.
  // A terminal root conflict also leaves qhead_ == trail_.size() but is
  // not conflict-free — the final falsified clause is allowed to stand.
  if (qhead_ == trail_.size() && !root_conflict_ &&
      status_ != SolveStatus::kUnsat) {
    arena_.for_each([&](ClauseRef r) {
      if (!result.empty()) return;
      const Lit w0 = arena_.lit(r, 0);
      const Lit w1 = arena_.lit(r, 1);
      if (value(w0) == LBool::kFalse && value(w1) == LBool::kFalse) {
        bool sat = false;
        for (const Lit l : arena_.lits(r)) {
          if (value(l) == LBool::kTrue) sat = true;
        }
        if (!sat) result = "clause with both watches false and unsatisfied";
      }
    });
  }
  return result;
}

}  // namespace gridsat::solver
