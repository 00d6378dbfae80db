// Summary arithmetic shared by the benchmark and its self-test: medians,
// quartiles (the same "exclusive" method as Python's
// statistics.quantiles(values, n=4)), and the failure ratio.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `v`; 0 for an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 != 0 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// First, second and third quartile by the "exclusive" method of
/// Python's statistics.quantiles(v, n=4). A single sample is its own
/// quartiles; an empty sample gives zeros.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0, 0.0};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() + 1;
  std::array<double, 3> q{};
  for (std::size_t i = 1; i <= 3; ++i) {
    // Clamp j to [1, n-1] as Python does for small samples.
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, v.size() - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return q;
}

/// Failed runs over runs attempted. Nothing attempted counts as total
/// failure, so a benchmark that silently skipped its work cannot pass.
inline double fail_ratio(std::uint64_t failed, std::uint64_t attempted) {
  if (attempted == 0) return 1.0;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace perfbench
