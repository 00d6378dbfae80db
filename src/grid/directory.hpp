// Resource directory — the Globus-MDS analog the master queries for "the
// list of available resources" (paper §3.3), fused with per-host NWS
// forecasters for ranking.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "grid/forecaster.hpp"
#include "sim/host.hpp"

namespace gridsat::grid {

enum class HostState : std::uint8_t {
  kFree,      ///< no client running; master may launch one
  kLaunching, ///< client start in flight
  kIdle,      ///< client registered, no subproblem
  kReserved,  ///< idle, but promised to an in-flight split/migration
  kBusy,      ///< client working on a subproblem
  kDead,      ///< host removed (failure injection / below memory floor)
};

const char* to_string(HostState s) noexcept;

/// Site filter of the directory queries that matches every host.
inline constexpr std::uint32_t kAnySite = ~std::uint32_t{0};

struct ResourceEntry {
  sim::HostSpec spec;
  /// The host's site under the owner's interned site ids (what the
  /// queries' site filter compares; 0 when the owner never assigns one).
  std::uint32_t site = 0;
  HostState state = HostState::kFree;
  Forecaster forecaster;
  /// Virtual time the current subproblem has been running (maintained by
  /// the master; used for backlog ordering: "splits clients which have
  /// been running the longest", §3.4).
  double busy_since = 0.0;
};

class ResourceDirectory {
 public:
  /// Register a host; returns its index (stable handle).
  std::size_t add(sim::HostSpec spec) {
    entries_.push_back(std::make_unique<ResourceEntry>());
    entries_.back()->spec = std::move(spec);
    return entries_.size() - 1;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] ResourceEntry& at(std::size_t i) { return *entries_.at(i); }
  [[nodiscard]] const ResourceEntry& at(std::size_t i) const {
    return *entries_.at(i);
  }

  /// Rank of a host for scheduling: forecast availability x dedicated
  /// speed, with memory as the tiebreaker (paper: "processing power and
  /// memory capacity"). Higher is better.
  [[nodiscard]] double rank(std::size_t i) const {
    const ResourceEntry& e = at(i);
    return e.forecaster.forecast() * e.spec.speed +
           1e-9 * static_cast<double>(e.spec.memory_bytes);
  }

  /// Highest-ranked host in the given state at `site` (kAnySite: any);
  /// -1 if none. Hosts with less memory than `min_memory` are skipped
  /// (the paper's 128-MByte floor). Among equal ranks the lowest index
  /// wins.
  [[nodiscard]] std::ptrdiff_t best_in_state(
      HostState state, std::size_t min_memory,
      std::uint32_t site = kAnySite) const {
    std::ptrdiff_t best = -1;
    double best_rank = -1.0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const ResourceEntry& e = at(i);
      if (e.state != state || !at_site(e, site)) continue;
      if (e.spec.memory_bytes < min_memory) continue;
      const double r = rank(i);
      if (r > best_rank) {
        best_rank = r;
        best = static_cast<std::ptrdiff_t>(i);
      }
    }
    return best;
  }

  /// Hosts in the given state at `site` (kAnySite: anywhere).
  [[nodiscard]] std::size_t count_in_state(
      HostState state, std::uint32_t site = kAnySite) const {
    std::size_t n = 0;
    for (const auto& e : entries_) {
      if (e->state == state && at_site(*e, site)) ++n;
    }
    return n;
  }

 private:
  static bool at_site(const ResourceEntry& e, std::uint32_t site) noexcept {
    return site == kAnySite || e.site == site;
  }

  // unique_ptr for pointer stability: the master holds references while
  // the Blue Horizon job appends hosts mid-run.
  std::vector<std::unique_ptr<ResourceEntry>> entries_;
};

}  // namespace gridsat::grid
