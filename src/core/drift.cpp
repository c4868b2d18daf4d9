#include "core/drift.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "common/stats.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace acobe {
namespace {

std::vector<double> AspectScores(const ScoreGrid& grid, int aspect) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(grid.users()) * grid.day_count());
  for (int u = 0; u < grid.users(); ++u) {
    for (int d = grid.day_begin(); d < grid.day_end(); ++d) {
      const float s = grid.At(aspect, u, d);
      if (std::isfinite(s)) out.push_back(s);
    }
  }
  return out;
}

int FindAspect(const ScoreGrid& grid, const std::string& name) {
  for (int a = 0; a < grid.aspects(); ++a) {
    if (grid.aspect_name(a) == name) return a;
  }
  return -1;
}

}  // namespace

std::string DriftGaugeName(const std::string& aspect, double q) {
  char buf[32];
  // Round to one decimal of a percent before the integrality test:
  // q=0.29 stored as 0.28999... must still print "q29", not "q29.0".
  const double pct = std::round(q * 1000.0) / 10.0;
  if (pct == std::floor(pct)) {
    std::snprintf(buf, sizeof(buf), "q%d", static_cast<int>(pct));
  } else {
    std::snprintf(buf, sizeof(buf), "q%.1f", pct);
  }
  return "drift." + aspect + "." + buf;
}

std::vector<AspectDrift> ComputeScoreDrift(const ScoreGrid& reference,
                                           const ScoreGrid& current,
                                           const DriftConfig& config) {
  std::vector<AspectDrift> out;
  if (!config.enabled || current.users() == 0 || reference.users() == 0) {
    return out;
  }
  ACOBE_SPAN("detector.drift");
  constexpr double kEps = 1e-12;

  for (int a = 0; a < current.aspects(); ++a) {
    const int ra = FindAspect(reference, current.aspect_name(a));
    if (ra < 0) continue;
    // One sort per aspect and window; every configured quantile reads
    // the same sorted vector (NearestRankQuantile used to copy + sort
    // per quantile).
    std::vector<double> ref_scores = AspectScores(reference, ra);
    std::vector<double> cur_scores = AspectScores(current, a);
    if (ref_scores.empty() || cur_scores.empty()) continue;
    std::sort(ref_scores.begin(), ref_scores.end());
    std::sort(cur_scores.begin(), cur_scores.end());

    AspectDrift drift;
    drift.aspect = a;
    drift.aspect_name = current.aspect_name(a);
    for (double q : config.quantiles) {
      QuantileShift shift;
      shift.q = q;
      shift.reference = NearestRankQuantileSorted(ref_scores, q);
      shift.current = NearestRankQuantileSorted(cur_scores, q);
      shift.rel_shift = (shift.current - shift.reference) /
                        std::max(std::abs(shift.reference), kEps);
      // Alerting needs both a relative shift and a material absolute
      // move: with a near-zero reference quantile the relative shift is
      // numerically unbounded, and without the floor every tiny wiggle
      // of a sparse aspect becomes an alert storm.
      shift.alert = std::abs(shift.rel_shift) >= config.alert_threshold &&
                    std::abs(shift.current - shift.reference) >=
                        config.min_abs_shift;
      drift.alert = drift.alert || shift.alert;
      if (telemetry::MetricsEnabled()) {
        telemetry::GetGauge(DriftGaugeName(drift.aspect_name, q))
            .Set(shift.rel_shift);
      }
      drift.shifts.push_back(shift);
    }
    if (drift.alert) {
      ACOBE_COUNT("drift.alerts", 1);
    }
    out.push_back(std::move(drift));
  }
  return out;
}

}  // namespace acobe
