// The master's coordinators (DESIGN.md §4j): the root, whose scope is
// every host, and one sub-master per covered site. Both tiers park split
// requests in one backlog type, grant through one loop, and admit and
// relay clause batches through one path; only each tier's own policies
// differ (root: migration, hybrid widening, brokering; sub-master: the
// starvation WORK_REQUEST, the inter-site digest and the site summary).
#include <algorithm>
#include <span>

#include "core/campaign.hpp"
#include "solver/sharing.hpp"

namespace gridsat::core {

using grid::HostState;

namespace {
/// A sub-master ships SITE_SUMMARY every this-many relay ticks (clause
/// digests go every tick; aggregated host state tolerates the staleness).
constexpr std::uint64_t kSummaryTickPeriod = 4;
}  // namespace

template <class Pick, class Deliver>
std::size_t Campaign::fan_out(Endpoint from, Msg kind, std::size_t bytes,
                              Pick pick, Deliver deliver) {
  sim::DeliveryBatch delivery(bus_, from.id, from.site, kind_id(kind), bytes);
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    const Client* target = clients_[i].get();
    if (target == nullptr || !target->alive() || !pick(i, *target)) continue;
    delivery.add(endpoints_[i].id, endpoints_[i].site, [this, i, deliver] {
      Client* receiver = client(i);
      if (receiver != nullptr) deliver(*receiver);
    });
  }
  const std::size_t recipients = delivery.size();
  delivery.flush();
  return recipients;
}

void Campaign::setup_coordinators() {
  coordinators_.emplace_back().endpoint = root_;
  if (config_.sub_masters == 0 ||
      config_.parallel_mode != solver::ParallelMode::kSplit) {
    // Racing modes keep the flat master (like migration): every racer
    // needs the global clause bus and the root's cohort bookkeeping.
    return;
  }
  // The first `sub_masters` distinct sites in host order get a sub-master;
  // hosts at uncovered sites (including late joiners at new sites) keep
  // paper-flat routing.
  for (std::size_t i = 0;
       i < hosts_.size() && num_sub_masters() < config_.sub_masters; ++i) {
    if (home_of(i) != kRoot) continue;
    const std::uint32_t site = endpoints_[i].site;
    Coordinator& sub = coordinators_.emplace_back();
    sub.endpoint = {names_.intern("submaster:" + hosts_[i]->site()), site};
    sub.scope = site;
    // 2^14 slots: a site's working set of recently shared clauses, not
    // the campaign-wide history (clear() on re-home starts a new epoch).
    sub.filter.emplace(14);
  }
}

std::size_t Campaign::home_of(std::size_t host_index) const {
  const std::uint32_t site = endpoints_[host_index].site;
  for (std::size_t c = kRoot + 1; c < coordinators_.size(); ++c) {
    if (coordinators_[c].scope == site) return c;
  }
  return kRoot;
}

void Campaign::try_dispatch() {
  if (done_) return;
  // Bounced requests that waited at the root move back once their site's
  // sub-master is re-homed; requests from uncovered sites (in the flat
  // topology, every request) stay root-homed.
  std::set<std::size_t>& root_backlog = coordinators_[kRoot].backlog;
  for (auto it = root_backlog.begin(); it != root_backlog.end();) {
    Coordinator& home = coordinators_[home_of(*it)];
    if (!home.is_root() && home.alive) {
      home.backlog.insert(*it);
      it = root_backlog.erase(it);
    } else {
      ++it;
    }
  }
  // Checkpoint restores take priority and go to the best idle host
  // anywhere: that part of the search space is covered by nobody, and its
  // carrier's site (and sub-master) may be gone.
  while (!pending_restores_.empty()) {
    const std::ptrdiff_t target =
        directory_.best_in_state(HostState::kIdle, config_.min_client_memory);
    if (target < 0) break;
    auto sp = pending_restores_.front();
    pending_restores_.pop_front();
    directory_.at(static_cast<std::size_t>(target)).state =
        HostState::kReserved;
    assign_subproblem(static_cast<std::size_t>(target), std::move(sp));
  }
  // Root-homed grants against the global idle pool, site-local grants
  // everywhere else, then cross-site brokering.
  for (std::size_t c = 0; c < coordinators_.size(); ++c) dispatch(c);
  root_broker();
  // Work waiting with nobody idle: restart a client on a free host (§3.3);
  // the dispatch resumes when it registers.
  const bool have_work =
      !pending_restores_.empty() ||
      std::any_of(coordinators_.begin(), coordinators_.end(),
                  [](const Coordinator& c) { return !c.backlog.empty(); });
  if (have_work &&
      directory_.best_in_state(HostState::kIdle, config_.min_client_memory) <
          0) {
    const std::ptrdiff_t free_host = directory_.best_in_state(
        HostState::kFree, config_.min_client_memory);
    if (free_host >= 0) launch_client(static_cast<std::size_t>(free_host));
  }
}

void Campaign::dispatch(std::size_t index) {
  Coordinator& c = coordinators_[index];
  if (done_ || !c.alive) return;
  // Stale entries are hosts that finished or died before a grant landed.
  // A sub-master drops them up front; the root only once it has a target
  // but no requester, so try_dispatch's relaunch check still sees them.
  const auto drop_stale = [this, &c] {
    std::erase_if(c.backlog, [this](std::size_t host) {
      return directory_.at(host).state != HostState::kBusy;
    });
  };
  if (!c.is_root()) drop_stale();
  while (!c.backlog.empty()) {
    const std::ptrdiff_t target = directory_.best_in_state(
        HostState::kIdle, config_.min_client_memory, c.scope);
    if (target < 0) break;
    const std::ptrdiff_t requester = oldest_requester(c.backlog);
    if (requester < 0) {
      drop_stale();
      break;
    }
    const auto to = static_cast<std::size_t>(target);
    const auto from = static_cast<std::size_t>(requester);
    // Migration opportunity (§3.4), flat split mode only: a markedly
    // better host with idle same-site company (the still-idle target
    // counts itself) takes the whole problem instead of half. Racing
    // modes never migrate — a moved tenancy would break the cohort's
    // one-child-many-racers bookkeeping for no search-space gain.
    const bool migrate =
        !hier_enabled() &&
        config_.parallel_mode == solver::ParallelMode::kSplit &&
        directory_.rank(to) >
            config_.migration_rank_factor * directory_.rank(from) &&
        directory_.count_in_state(HostState::kIdle, endpoints_[to].site) >=
            config_.migration_min_idle_at_site;
    std::vector<std::size_t> targets{to};
    if (config_.parallel_mode == solver::ParallelMode::kHybrid) {
      // Reserve up to race_width idle hosts: the split child is shipped
      // to all of them at once and they race it under diversified
      // configurations (first verdict wins). Racing keeps the flat
      // master, so only the root widens.
      directory_.at(to).state = HostState::kReserved;
      while (targets.size() < std::max<std::size_t>(1, config_.race_width)) {
        const std::ptrdiff_t extra = directory_.best_in_state(
            HostState::kIdle, config_.min_client_memory, c.scope);
        if (extra < 0) break;
        directory_.at(static_cast<std::size_t>(extra)).state =
            HostState::kReserved;
        targets.push_back(static_cast<std::size_t>(extra));
      }
    }
    grant(from, std::move(targets), c.endpoint, migrate);
  }
  if (c.is_root()) return;
  // Starving: idle capacity with nothing local to split. One outstanding
  // WORK_REQUEST at a time; the root brokers a split from the most
  // loaded site.
  if (problem_assigned_ && !c.work_requested &&
      oldest_requester(c.backlog) < 0 &&
      directory_.best_in_state(HostState::kIdle, config_.min_client_memory,
                               c.scope) >= 0) {
    c.work_requested = true;
    send(c.endpoint, root_, Msg::kWorkRequest, kControlMessageBytes,
         [this, index] {
           starving_sites_.insert(index);
           root_broker();
         });
  }
}

std::ptrdiff_t Campaign::oldest_requester(
    const std::set<std::size_t>& backlog) const {
  // §3.4: the client that has been running its subproblem the longest
  // splits first — the stubborn regions get the extra resources. A host
  // with an outstanding grant is mid-negotiation (e.g. a SUB_HELLO
  // re-send raced the original's bounce) and is never granted twice.
  std::ptrdiff_t requester = -1;
  double oldest = -1.0;
  for (const std::size_t host : backlog) {
    const grid::ResourceEntry& e = directory_.at(host);
    if (e.state != HostState::kBusy) continue;
    if (!records_[host].grant.empty()) continue;
    const double running = engine_.now() - e.busy_since;
    if (running > oldest) {
      oldest = running;
      requester = static_cast<std::ptrdiff_t>(host);
    }
  }
  return requester;
}

void Campaign::grant(std::size_t requester, std::vector<std::size_t> targets,
                     Endpoint via, bool migrate) {
  forget_backlog(requester);
  // A brokered peer arrives already held by the root; every other target
  // is an idle host reserved here.
  for (const std::size_t t : targets) {
    grid::ResourceEntry& entry = directory_.at(t);
    if (entry.state == HostState::kIdle) entry.state = HostState::kReserved;
  }
  records_[requester].grant = targets;
  sim::Callback deliver = [this, requester, migrate,
                           targets = std::move(targets)] {
    Client* c = client(requester);
    if (c == nullptr || !c->alive()) {
      on_split_failed(requester);
    } else if (migrate) {
      c->order_migration(targets.front());
    } else {
      c->grant_split(targets);
    }
  };
  send(via, endpoints_[requester],
       migrate ? Msg::kMigrateOrder : Msg::kSplitGrant, kControlMessageBytes,
       std::move(deliver));
}

void Campaign::enqueue_split_request(std::size_t host_index) {
  if (done_) return;
  const std::size_t home = home_of(host_index);
  if (home != kRoot && coordinators_[home].alive) {
    coordinators_[home].backlog.insert(host_index);
    dispatch(home);
    return;
  }
  coordinators_[kRoot].backlog.insert(host_index);
  try_dispatch();
}

void Campaign::forget_backlog(std::size_t host_index) {
  for (Coordinator& c : coordinators_) c.backlog.erase(host_index);
}

void Campaign::admit_and_relay(std::size_t index,
                               std::shared_ptr<const ClauseBatch> batch,
                               std::ptrdiff_t from) {
  if (done_) return;
  Coordinator& c = coordinators_[index];
  // A dead sub-master drops a remote digest — sharing is best-effort, and
  // the fresh incarnation's cleared filter re-admits these clauses later.
  // (A client's batch bounces to the root instead.)
  if (!c.alive) return;
  const bool from_client = from >= 0;
  if (from_client) {
    ++result_.clause_batches_shared;
    result_.clauses_shared += batch->clauses.size();
  }
  if (c.filter) {
    // The relay reads the incoming pool as is until the filter drops a
    // clause; only then does it copy the admitted clauses into a fresh one.
    std::shared_ptr<ClauseBatch> fresh;
    const std::size_t cap = config_.inter_site_lbd_cap;
    for (std::size_t i = 0; i < batch->clauses.size(); ++i) {
      const std::span<const cnf::Lit> clause = batch->clauses[i];
      if (!c.filter->insert(solver::clause_fingerprint(clause))) {
        // The site has already circulated this clause (a local re-learn
        // or an earlier remote digest): suppress both the relay and the
        // digest copy.
        ++result_.digest_clauses_deduped;
        if (!fresh) {
          fresh = std::make_shared<ClauseBatch>();
          fresh->clauses.append(batch->clauses, 0, i);
        }
        continue;
      }
      if (fresh) fresh->clauses.push_back(clause);
      const std::uint32_t lbd = i < batch->lbds.size() ? batch->lbds[i] : 0;
      if (from_client && cap > 0 && lbd <= cap) {
        c.digest.clauses.push_back(clause);
        c.digest.lbds.push_back(lbd);
      }
    }
    if (fresh) {
      if (fresh->clauses.empty()) return;
      batch = std::move(fresh);
    }
  }
  // Relay to every other busy client served (§3.2: GridSAT "shares
  // clauses globally as soon as they are generated"; the root serves
  // every site, covered ones included). The batch collector delivers all
  // recipients reached over the same link class behind one engine event
  // (DESIGN.md §4g), so a broadcast to N busy clients costs O(sites)
  // queue operations instead of O(N).
  const std::size_t recipients = fan_out(
      c.endpoint, Msg::kClauses, clause_batch_bytes(*batch),
      [this, &c, from](std::size_t i, const Client& target) {
        return static_cast<std::ptrdiff_t>(i) != from &&
               c.serves(endpoints_[i].site) && target.busy();
      },
      [batch](Client& target) { target.receive_clauses(batch); });
  if (!c.is_root() && recipients > 0) ++result_.site_relay_batches;
}

void Campaign::schedule_sub_master_failure(const std::string& site,
                                           double at) {
  engine_.schedule_at(at, [this, site] {
    if (done_) return;
    const std::uint32_t id = names_.intern(site);
    std::size_t index = kRoot + 1;
    while (index < coordinators_.size() && coordinators_[index].scope != id) {
      ++index;
    }
    if (index == coordinators_.size()) return;
    Coordinator& sub = coordinators_[index];
    if (!sub.alive) return;
    sub.alive = false;
    // Whatever the dead incarnation held dies with it: parked split
    // requests (clients re-send on SUB_HELLO), the unsent digest, and
    // the outstanding starvation claim.
    sub.backlog.clear();
    sub.digest = {};
    sub.work_requested = false;
    starving_sites_.erase(index);
    // The root's monitoring notices shortly afterwards, as with client
    // deaths (§3.3), and re-homes the site.
    engine_.schedule_in(kMasterMonitorDelay,
                        [this, index] { rehome_sub_master(index); });
  });
}

void Campaign::rehome_sub_master(std::size_t index) {
  if (done_) return;
  Coordinator& sub = coordinators_[index];
  if (sub.alive) return;
  ++result_.sub_master_rehomes;
  sub.alive = true;
  // Fresh suppression epoch: the re-homed sub-master must not silently
  // drop clauses only the dead one had seen.
  sub.filter->clear();
  sub.last_idle = sub.last_busy = sub.last_backlog = ~std::size_t{0};
  // Announce the fresh incarnation to the site: any client whose split
  // request the dead incarnation swallowed re-sends it, so no guiding
  // path is lost (the space itself was never at risk — subproblems
  // travel peer-to-peer, not through sub-masters).
  const std::uint32_t site = sub.scope;
  fan_out(
      root_, Msg::kSubHello, kControlMessageBytes,
      [this, site](std::size_t i, const Client&) {
        return endpoints_[i].site == site;
      },
      [](Client& c) { c.sub_hello(); });
  try_dispatch();
}

void Campaign::deliver_at_sub(Endpoint from, std::size_t index, Msg kind,
                              std::size_t bytes, sim::Callback at_sub,
                              sim::Callback at_root, std::uint64_t flow) {
  send(from, coordinators_[index].endpoint, kind, bytes,
       [this, index, kind, bytes, flow, at_sub = std::move(at_sub),
        at_root = std::move(at_root)]() mutable {
         const Coordinator& sub = coordinators_[index];
         if (sub.alive) {
           ++result_.sub_messages_handled;
           at_sub();
           return;
         }
         ++result_.sub_master_bounces;
         if (at_root) {
           // The message bounces to the root, charging the extra hop, and
           // the root-side fallback handles it there.
           send(sub.endpoint, root_, kind, bytes, std::move(at_root), flow);
         } else {
           // Root-sent traffic: the handler itself is alive-aware (a dead
           // sub-master drops a digest, fails a broker back to the root).
           at_sub();
         }
       },
       flow);
}

void Campaign::send_up(std::size_t from_host, Msg kind, std::size_t bytes,
                       sim::Callback handler, std::uint64_t flow,
                       bool forward_to_root) {
  const Endpoint from = endpoints_[from_host];
  const std::size_t home = home_of(from_host);
  if (home == kRoot) {
    send(from, root_, kind, bytes, std::move(handler), flow);
    return;
  }
  // The handler must be reachable from both the sub-master arm and the
  // dead-bounce arm; sim::Callback is move-only, so share it.
  auto shared = std::make_shared<sim::Callback>(std::move(handler));
  if (!forward_to_root) {
    // Shared-semantics report: it terminates at the sub-master, which
    // folds it into the next cadenced SITE_SUMMARY instead of forwarding
    // it — the root hears O(sites) summaries, not O(clients) reports.
    deliver_at_sub(from, home, kind, bytes, [shared] { (*shared)(); },
                   [shared] { (*shared)(); }, flow);
    return;
  }
  const Msg forwarded = kind == Msg::kRegister ? Msg::kSubRegister : kind;
  deliver_at_sub(
      from, home, kind, bytes,
      [this, home, forwarded, bytes, flow, shared] {
        send(coordinators_[home].endpoint, root_, forwarded, bytes,
             [shared] { (*shared)(); }, flow);
      },
      [shared] { (*shared)(); }, flow);
}

void Campaign::flush_digest(std::size_t index) {
  Coordinator& sub = coordinators_[index];
  if (sub.digest.clauses.empty()) return;
  auto batch = std::make_shared<const ClauseBatch>(std::move(sub.digest));
  sub.digest = {};
  ++result_.inter_site_digests;
  result_.digest_clauses_sent += batch->clauses.size();
  send(sub.endpoint, root_, Msg::kClauseDigest,
       clause_batch_bytes(*batch, /*lbd_tagged=*/true),
       [this, index, batch] { root_on_digest(index, batch); });
}

void Campaign::root_on_digest(std::size_t index,
                              std::shared_ptr<const ClauseBatch> batch) {
  if (done_) return;
  const std::size_t bytes = clause_batch_bytes(*batch, /*lbd_tagged=*/true);
  for (std::size_t c = kRoot + 1; c < coordinators_.size(); ++c) {
    if (c == index || !coordinators_[c].alive) continue;
    deliver_at_sub(root_, c, Msg::kClauseDigest, bytes,
                   [this, c, batch] { admit_and_relay(c, batch, -1); });
  }
}

void Campaign::sub_master_tick(std::size_t index) {
  if (done_) return;
  Coordinator& sub = coordinators_[index];
  if (sub.alive) {
    // Cadenced starvation check: grant anything grantable locally and
    // raise a WORK_REQUEST if the site has idle capacity but no work —
    // the trigger that doesn't depend on any client event arriving here.
    dispatch(index);
    flush_digest(index);
    // Site-state summary: decimated against the clause cadence (state
    // aggregation tolerates more staleness than clause relay — urgent
    // signals travel as WORK_REQUESTs), and only when something moved
    // since the last one (a quiescent site stays silent — this is what
    // keeps the endgame tail cheap at the root).
    if (++sub.ticks % kSummaryTickPeriod == 0) {
      const std::size_t idle =
          directory_.count_in_state(HostState::kIdle, sub.scope);
      const std::size_t busy =
          directory_.count_in_state(HostState::kBusy, sub.scope);
      if (idle != sub.last_idle || busy != sub.last_busy ||
          sub.backlog.size() != sub.last_backlog) {
        sub.last_idle = idle;
        sub.last_busy = busy;
        sub.last_backlog = sub.backlog.size();
        // The summary keeps the root's view of site load current; it
        // reacts by re-checking whether a starving site can now be
        // matched to a donor.
        send(sub.endpoint, root_, Msg::kSiteSummary, kControlMessageBytes,
             [this] { root_broker(); });
      }
    }
  }
  engine_.schedule_in(config_.site_relay_interval,
                      [this, index] { sub_master_tick(index); });
}

void Campaign::root_broker() {
  if (done_) return;
  for (auto it = starving_sites_.begin(); it != starving_sites_.end();) {
    const std::size_t s = *it;
    Coordinator& starving = coordinators_[s];
    const std::ptrdiff_t peer =
        starving.alive
            ? directory_.best_in_state(HostState::kIdle,
                                       config_.min_client_memory,
                                       starving.scope)
            : -1;
    if (peer < 0) {
      // Dead, or the site filled up on its own (local grants,
      // relaunches): the claim is spent.
      starving.work_requested = false;
      it = starving_sites_.erase(it);
      continue;
    }
    // Donor: the live site with the deepest grantable backlog.
    std::ptrdiff_t donor = -1;
    std::size_t best_load = 0;
    for (std::size_t d = kRoot + 1; d < coordinators_.size(); ++d) {
      if (d == s || !coordinators_[d].alive) continue;
      const auto load = static_cast<std::size_t>(std::count_if(
          coordinators_[d].backlog.begin(), coordinators_[d].backlog.end(),
          [this](std::size_t host) {
            return directory_.at(host).state == HostState::kBusy &&
                   records_[host].grant.empty();
          }));
      if (load > best_load) {
        best_load = load;
        donor = static_cast<std::ptrdiff_t>(d);
      }
    }
    if (donor < 0) {
      // Nothing to give anywhere: the site stays starving; the next
      // summary or work request retries.
      ++it;
      continue;
    }
    const auto peer_index = static_cast<std::size_t>(peer);
    directory_.at(peer_index).state = HostState::kReserved;
    starving.work_requested = false;
    it = starving_sites_.erase(it);
    const auto donor_index = static_cast<std::size_t>(donor);
    deliver_at_sub(root_, donor_index, Msg::kSplitBroker, kControlMessageBytes,
                   [this, donor_index, peer_index] {
                     sub_on_broker(donor_index, peer_index);
                   });
  }
}

void Campaign::sub_on_broker(std::size_t index, std::size_t peer_host) {
  if (done_) return;
  // The sub-master picks the donor client itself, from its own (current)
  // backlog — the root only chose the site.
  const Coordinator& sub = coordinators_[index];
  const std::ptrdiff_t requester =
      sub.alive ? oldest_requester(sub.backlog) : -1;
  if (requester < 0) {
    // Dead, or the backlog drained since the root looked: give the
    // reserved peer back.
    send(sub.endpoint, root_, Msg::kBrokerFailed, kControlMessageBytes,
         [this, peer_host] { root_on_broker_failed(peer_host); });
    return;
  }
  ++result_.brokered_splits;
  grant(static_cast<std::size_t>(requester), {peer_host}, sub.endpoint,
        /*migrate=*/false);
}

void Campaign::root_on_broker_failed(std::size_t peer_host) {
  if (done_) return;
  grid::ResourceEntry& entry = directory_.at(peer_host);
  if (entry.state == HostState::kReserved) entry.state = HostState::kIdle;
  try_dispatch();
  check_termination();
}

}  // namespace gridsat::core
