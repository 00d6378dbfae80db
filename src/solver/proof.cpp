#include "solver/proof.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "solver/cdcl.hpp"

namespace gridsat::solver {

using cnf::LBool;
using cnf::Lit;

void ProofLog::write_drat(std::ostream& out) const {
  for (const ProofStep step : steps()) {
    if (step.deletion) out << "d ";
    for (const Lit l : step.clause) out << l.to_dimacs() << ' ';
    out << "0\n";
  }
}

namespace {

/// Naive unit propagation over an explicit clause list under a partial
/// assignment seeded with the negation of the candidate clause. Returns
/// true iff a conflict arises (the candidate is RUP).
bool propagate_to_conflict(const std::vector<cnf::Clause>& database,
                           cnf::Assignment& assignment) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const cnf::Clause& clause : database) {
      Lit unit = cnf::kUndefLit;
      int unknown = 0;
      bool satisfied = false;
      for (const Lit l : clause) {
        switch (l.value_under(assignment[l.var()])) {
          case LBool::kTrue:
            satisfied = true;
            break;
          case LBool::kUndef:
            ++unknown;
            unit = l;
            break;
          case LBool::kFalse:
            break;
        }
        if (satisfied) break;
      }
      if (satisfied) continue;
      if (unknown == 0) return true;  // conflict
      if (unknown == 1) {
        assignment[unit.var()] = unit.satisfying_value();
        changed = true;
      }
    }
  }
  return false;
}

bool is_tautology(std::span<const Lit> clause) {
  for (std::size_t i = 0; i < clause.size(); ++i) {
    for (std::size_t j = i + 1; j < clause.size(); ++j) {
      if (clause[i] == ~clause[j]) return true;
    }
  }
  return false;
}

}  // namespace

bool is_rup(const std::vector<cnf::Clause>& database, cnf::Var num_vars,
            const cnf::Clause& clause) {
  cnf::Assignment assignment(static_cast<std::size_t>(num_vars) + 1,
                             LBool::kUndef);
  // Assume the negation of every literal of the candidate clause. A
  // contradictory candidate (contains l and ~l) is a tautology: trivially
  // implied, and the assumption set below would be inconsistent, so
  // handle it first.
  if (is_tautology(clause)) return true;
  for (const Lit l : clause) {
    if (l.var() > num_vars) return false;
    assignment[l.var()] = (~l).satisfying_value();
  }
  return propagate_to_conflict(database, assignment);
}

ProofCheckResult check_unsat_proof(const cnf::CnfFormula& formula,
                                   const ProofLog& proof) {
  ProofCheckResult result;
  std::vector<cnf::Clause> database = formula.clauses();
  const cnf::Var num_vars = formula.num_vars();

  for (std::size_t i = 0; i < proof.size(); ++i) {
    const ProofStep step = proof.step(i);
    if (step.deletion) {
      // Erase one matching clause (order-insensitive comparison).
      cnf::Clause key(step.clause.begin(), step.clause.end());
      std::sort(key.begin(), key.end());
      const auto it = std::find_if(
          database.begin(), database.end(), [&key](const cnf::Clause& c) {
            if (c.size() != key.size()) return false;
            cnf::Clause sorted = c;
            std::sort(sorted.begin(), sorted.end());
            return sorted == key;
          });
      if (it != database.end()) database.erase(it);
      // Deleting a clause that is not present is harmless (the solver
      // may have simplified it away before logging); skip silently.
      ++result.steps_checked;
      continue;
    }
    cnf::Clause clause(step.clause.begin(), step.clause.end());
    if (!is_rup(database, num_vars, clause)) {
      std::ostringstream msg;
      msg << "step " << i << " is not RUP (clause of " << clause.size()
          << " literals)";
      result.failed_step = i;
      result.message = msg.str();
      return result;
    }
    ++result.steps_checked;
    if (clause.empty()) {
      result.valid = true;  // refutation complete
      return result;
    }
    database.push_back(std::move(clause));
  }
  result.message = "proof ended without deriving the empty clause";
  return result;
}

// ---------------------------------------------------------------------------
// ProofChecker — incremental watched-literal RUP
// ---------------------------------------------------------------------------

namespace {

/// The deletion index's key: a clause's literals in ascending order.
cnf::Clause sorted_key(std::span<const Lit> clause) {
  cnf::Clause key(clause.begin(), clause.end());
  std::sort(key.begin(), key.end());
  return key;
}

}  // namespace

ProofChecker::ProofChecker(const cnf::CnfFormula& formula)
    : num_vars_(formula.num_vars()) {
  assign_.assign(static_cast<std::size_t>(num_vars_) + 1, LBool::kUndef);
  watches_.resize((static_cast<std::size_t>(num_vars_) + 1) * 2);
  std::size_t num_lits = 0;
  for (const cnf::Clause& c : formula.clauses()) num_lits += c.size();
  lits_.reserve(num_lits);
  starts_.reserve(formula.clauses().size() + 1);
  dead_.reserve(formula.clauses().size());
  starts_.push_back(0);
  for (const cnf::Clause& c : formula.clauses()) add_clause(c);
}

void ProofChecker::enqueue(Lit l) {
  assign_[l.var()] = l.satisfying_value();
  trail_.push_back(l);
}

bool ProofChecker::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit falsified = ~trail_[qhead_++];
    // Compacting scan, as in CdclSolver::propagate_fast: replacement
    // watches go to other literals' lists (a replacement is never false),
    // so ws's buffer stays put while i/j walk it.
    std::vector<Watcher>& ws = watches_[falsified.code()];
    Watcher* const begin = ws.data();
    Watcher* const end = begin + ws.size();
    Watcher* i = begin;
    Watcher* j = begin;
    while (i != end) {
      const Watcher w = *i++;
      if (value(w.blocker) == LBool::kTrue) {
        *j++ = w;
        continue;
      }
      if (dead_[w.id] != 0) continue;  // lazily drop deleted clauses
      const std::span<Lit> c = lits(w.id);
      // Normalize: watched slot 1 holds the falsified literal.
      if (c[0] == falsified) std::swap(c[0], c[1]);
      const Lit first = c[0];
      // Refresh the blocker: a true first literal shields the clause
      // until the next rollback unassigns it.
      if (first != w.blocker && value(first) == LBool::kTrue) {
        *j++ = Watcher{w.id, first};
        continue;
      }
      bool moved = false;
      for (std::size_t k = 2; k < c.size(); ++k) {
        if (value(c[k]) != LBool::kFalse) {
          std::swap(c[1], c[k]);
          watches_[c[1].code()].push_back(Watcher{w.id, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      *j++ = Watcher{w.id, first};  // stays watched here
      if (value(first) == LBool::kFalse) {
        // Conflict. Preserve the unvisited tail of the list, then stop.
        while (i != end) *j++ = *i++;
        ws.resize(static_cast<std::size_t>(j - begin));
        qhead_ = trail_.size();
        return true;
      }
      enqueue(first);
    }
    ws.resize(static_cast<std::size_t>(j - begin));
  }
  return false;
}

void ProofChecker::rollback_to_root() {
  for (std::size_t i = trail_.size(); i > root_size_; --i) {
    assign_[trail_[i - 1].var()] = LBool::kUndef;
  }
  trail_.resize(root_size_);
  qhead_ = root_size_;
}

void ProofChecker::add_clause(std::span<const Lit> clause) {
  const auto id = static_cast<std::uint32_t>(dead_.size());
  lits_.insert(lits_.end(), clause.begin(), clause.end());
  assert(lits_.size() <= UINT32_MAX);
  starts_.push_back(static_cast<std::uint32_t>(lits_.size()));
  dead_.push_back(0);
  if (indexed_) index_[sorted_key(clause)].push_back(id);
  if (root_falsified_) return;

  // Bring up to two root-non-false literals to the front.
  const std::span<Lit> c = lits(id);
  std::size_t non_false = 0;
  for (std::size_t i = 0; i < c.size() && non_false < 2; ++i) {
    if (value(c[i]) != LBool::kFalse) {
      std::swap(c[non_false], c[i]);
      ++non_false;
    }
  }
  if (non_false == 0) {
    root_falsified_ = true;  // conflicts with the persistent root trail
    return;
  }
  if (non_false == 1) {
    // Unit (or effectively unit) under the root trail: assert and extend
    // the persistent root level. No watches needed — root literals are
    // never unassigned, so the clause stays satisfied forever.
    if (value(c[0]) == LBool::kUndef) {
      enqueue(c[0]);
      if (propagate()) root_falsified_ = true;
      root_size_ = trail_.size();
      qhead_ = root_size_;
    }
    return;
  }
  watches_[c[0].code()].push_back(Watcher{id, c[1]});
  watches_[c[1].code()].push_back(Watcher{id, c[0]});
}

void ProofChecker::delete_clause(std::span<const Lit> clause) {
  if (!indexed_) {
    // First deletion: index every clause stored so far (none is dead
    // yet); add_clause keeps the index current from here on.
    indexed_ = true;
    for (std::uint32_t id = 0; id < dead_.size(); ++id) {
      index_[sorted_key(lits(id))].push_back(id);
    }
  }
  const auto it = index_.find(sorted_key(clause));
  if (it == index_.end() || it->second.empty()) return;  // absent: harmless
  const std::uint32_t id = it->second.back();
  it->second.pop_back();
  if (it->second.empty()) index_.erase(it);
  dead_[id] = 1;  // watch lists skip-and-drop it lazily
}

bool ProofChecker::rup(std::span<const Lit> clause) {
  if (root_falsified_) return true;  // everything is implied already
  if (is_tautology(clause)) return true;
  for (const Lit l : clause) {
    if (l.var() > num_vars_) return false;
  }
  bool conflict = false;
  for (const Lit l : clause) {
    const LBool v = value(l);
    if (v == LBool::kTrue) {
      conflict = true;  // ~l contradicts the trail: immediate conflict
      break;
    }
    if (v == LBool::kUndef) enqueue(~l);
  }
  if (!conflict) conflict = propagate();
  rollback_to_root();
  return conflict;
}

ProofCheckResult ProofChecker::check(const ProofLog& proof) {
  // Reserve the store once for every clause the proof can add.
  std::size_t added = 0;
  std::size_t added_lits = 0;
  for (const ProofStep step : proof.steps()) {
    if (step.deletion) continue;
    ++added;
    added_lits += step.clause.size();
  }
  lits_.reserve(lits_.size() + added_lits);
  starts_.reserve(starts_.size() + added);
  dead_.reserve(dead_.size() + added);

  ProofCheckResult result;
  for (std::size_t i = 0; i < proof.size(); ++i) {
    const ProofStep step = proof.step(i);
    if (step.deletion) {
      delete_clause(step.clause);
      ++result.steps_checked;
      continue;
    }
    if (!rup(step.clause)) {
      std::ostringstream msg;
      msg << "step " << i << " is not RUP (clause of " << step.clause.size()
          << " literals)";
      result.failed_step = i;
      result.message = msg.str();
      return result;
    }
    ++result.steps_checked;
    if (step.clause.empty()) {
      result.valid = true;
      return result;
    }
    add_clause(step.clause);
  }
  result.message = "proof ended without deriving the empty clause";
  return result;
}

ProofCheckResult certify(const cnf::CnfFormula& formula,
                         const ProofLog& proof) {
  ProofChecker checker(formula);
  return checker.check(proof);
}

// ---------------------------------------------------------------------------
// DistributedProofBuilder — arrival-ordered global log + split-tree stitch
// ---------------------------------------------------------------------------

namespace {

/// Fallback for leaf sets that are not one split tree: a
/// checkpoint-recovered client re-solves its subtree under a fresh decision
/// order, so the surviving leaves may form overlapping trees whose union
/// covers the cube without ever containing an exact sibling pair. The
/// leaves still cover the whole assumption space iff their negated-path
/// clauses are jointly unsatisfiable over the split variables, so refute
/// that residual CNF with a solver that streams its derivation into the
/// global log through `sink`: every kept step is RUP against the leaf
/// clauses, all of which precede it. A model instead names the exact
/// guiding path no leaf refutes.
bool refute_residual_cover(const std::set<std::vector<std::uint32_t>>& sets,
                           ProofSink& sink, std::string& error) {
  cnf::Var max_var = 0;
  for (const std::vector<std::uint32_t>& s : sets) {
    for (const std::uint32_t code : s) {
      max_var = std::max(max_var, Lit::from_code(code).var());
    }
  }
  cnf::CnfFormula residual(max_var);
  for (const std::vector<std::uint32_t>& s : sets) {
    cnf::Clause clause;
    clause.reserve(s.size());
    for (const std::uint32_t code : s) {
      clause.push_back(~Lit::from_code(code));
    }
    residual.add_clause(std::move(clause));
  }

  SolverConfig config;
  config.log_proof = true;
  CdclSolver refuter(residual, config);
  refuter.set_proof_sink(&sink);
  if (refuter.solve() != SolveStatus::kUnsat) {
    // The model, restricted to the split variables, is a guiding path that
    // no recorded leaf refutes: a subproblem was dropped outright or a
    // stale checkpoint was recovered over fresher work.
    const cnf::Assignment& model = refuter.model();
    std::ostringstream msg;
    msg << "split-tree stitch incomplete: " << sets.size()
        << " leaf set(s) have no sibling cover and guiding path {";
    std::size_t listed = 0;
    for (cnf::Var v = 1; v <= max_var; ++v) {
      if (v >= model.size() || model[v] == LBool::kUndef) continue;
      if (listed > 0) msg << ' ';
      if (++listed > 16) {
        msg << "...";
        break;
      }
      msg << cnf::to_string(Lit(v, model[v] == LBool::kFalse));
    }
    msg << "} was never refuted";
    error = msg.str();
    return false;
  }
  if (!kProofCompiledIn) {
    // The verdict above is sound, but without compiled-in proof hooks the
    // refuter cannot supply the derivation the global log needs.
    error =
        "split-tree stitch of overlapping split trees needs GRIDSAT_PROOF "
        "compiled in";
    return false;
  }
  return true;
}

}  // namespace

void DistributedProofBuilder::proof_event(ProofEvent event,
                                          std::span<const Lit> clause) {
  if (event != ProofEvent::kAdd) return;
  const std::scoped_lock lock(mu_);
  log_.add(clause);
}

void DistributedProofBuilder::add_leaf(
    const std::vector<cnf::Lit>& assumptions) {
  const std::scoped_lock lock(mu_);
  cnf::Clause leaf;
  leaf.reserve(assumptions.size());
  LitSet set;
  set.reserve(assumptions.size());
  for (const Lit a : assumptions) {
    leaf.push_back(~a);
    set.push_back(a.code());
  }
  std::sort(set.begin(), set.end());
  log_.add(leaf);
  ++leaves_;
  insert_reduced(std::move(set));
}

std::size_t DistributedProofBuilder::leaf_count() const {
  const std::scoped_lock lock(mu_);
  return leaves_;
}

void DistributedProofBuilder::insert_reduced(LitSet s) {
  // Skip if an existing set subsumes s (its clause is at least as strong:
  // a checkpoint-recovered ancestor already covers this subtree).
  for (const LitSet& existing : sets_) {
    if (existing.size() <= s.size() &&
        std::includes(s.begin(), s.end(), existing.begin(), existing.end())) {
      return;
    }
  }
  // Drop existing sets that s subsumes.
  for (auto it = sets_.begin(); it != sets_.end();) {
    if (it->size() >= s.size() &&
        std::includes(it->begin(), it->end(), s.begin(), s.end())) {
      it = sets_.erase(it);
    } else {
      ++it;
    }
  }
  sets_.insert(std::move(s));
}

bool DistributedProofBuilder::stitch() {
  const std::scoped_lock lock(mu_);
  if (stitched_) return stitch_ok_;
  stitched_ = true;

  if (leaves_ == 0) {
    stitch_error_ = "no refuted leaves were recorded";
    return stitch_ok_ = false;
  }

  // Fast path: resolve the deepest set against its sibling until the empty
  // set falls out. For a subsumption-reduced cover of a SINGLE split tree
  // this greedy rule is complete: a maximal-depth node's sibling subtree
  // can only be covered by the sibling itself (any other coverer would be
  // an ancestor of both siblings and would have subsumed the node away).
  // Covers made of overlapping trees fall through to
  // refute_residual_cover() below.
  while (!sets_.empty()) {
    // std::set orders lexicographically, so the empty set sorts first.
    if (sets_.begin()->empty()) break;  // empty set derived
    // Find a deepest set.
    auto deepest = sets_.begin();
    for (auto it = sets_.begin(); it != sets_.end(); ++it) {
      if (it->size() > deepest->size()) deepest = it;
    }
    // Look for a sibling: the same set with exactly one literal flipped.
    bool resolved = false;
    for (std::size_t k = 0; k < deepest->size(); ++k) {
      LitSet sibling = *deepest;
      sibling[k] ^= 1u;  // Lit code negation
      std::sort(sibling.begin(), sibling.end());
      const auto sib_it = sets_.find(sibling);
      if (sib_it == sets_.end()) continue;
      LitSet parent = *deepest;
      parent.erase(parent.begin() + static_cast<std::ptrdiff_t>(k));
      sets_.erase(sib_it);
      sets_.erase(deepest);
      cnf::Clause resolvent;
      resolvent.reserve(parent.size());
      for (const std::uint32_t code : parent) {
        resolvent.push_back(~Lit::from_code(code));
      }
      log_.add(resolvent);
      insert_reduced(std::move(parent));
      resolved = true;
      break;  // `deepest` is gone; the loop condition must not read it
    }
    if (!resolved) {
      // No exact sibling pair left, yet the leaves may still cover the
      // cube as overlapping split trees (checkpoint recovery re-splits
      // under a fresh decision order). Hand the residual sets to the
      // complete refutation fallback.
      if (!refute_residual_cover(sets_, *this, stitch_error_)) {
        return stitch_ok_ = false;
      }
      if (!log_.ends_with_empty_clause()) log_.add_empty();
      return stitch_ok_ = true;
    }
  }

  if (sets_.empty() || !sets_.begin()->empty()) {
    stitch_error_ = "split-tree stitch did not derive the empty clause";
    return stitch_ok_ = false;
  }
  if (!log_.ends_with_empty_clause()) {
    // Reachable only when leaves kept arriving after a refuted root; the
    // checker stops at the first empty clause, so the tail is harmless.
    log_.add_empty();
  }
  return stitch_ok_ = true;
}

}  // namespace gridsat::solver
