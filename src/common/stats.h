#pragma once

// Small numeric helpers shared across modules.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace acobe {

/// Arithmetic mean; 0 for an empty span.
inline double Mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

/// Population standard deviation (the paper does not specify the ddof;
/// population std matches NumPy's default used by the reference
/// tooling). 0 for an empty span; a single-element span also yields 0
/// (its deviation sum is exactly zero), so only the empty case needs a
/// guard against dividing by zero.
inline double StdDev(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double mu = Mean(xs);
  double acc = 0.0;
  for (double x : xs) {
    const double d = x - mu;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

/// Clamps x into [-bound, bound].
inline double ClampSymmetric(double x, double bound) {
  if (x > bound) return bound;
  if (x < -bound) return -bound;
  return x;
}

/// Linear rescale of x from [-bound, bound] to [0, 1].
inline double ToUnitInterval(double x, double bound) {
  return (x + bound) / (2.0 * bound);
}

/// Nearest-rank quantile (q in [0,1], clamped) over values already
/// sorted ascending: the value at 1-based rank ceil(q * N), at least 1.
/// 0 for empty input.
inline double NearestRankQuantileSorted(std::span<const double> sorted,
                                        double q) {
  if (sorted.empty()) return 0.0;
  const double clamped = std::min(1.0, std::max(0.0, q));
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

/// Same, over unsorted values (sorts its copy).
inline double NearestRankQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return NearestRankQuantileSorted(values, q);
}

}  // namespace acobe
