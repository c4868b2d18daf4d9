#pragma once

// Score-distribution drift telemetry: compares the per-aspect
// distribution of raw reconstruction errors in the current (test)
// window against a reference window (normally the training window of
// the same run, scored by the same models). A sizeable shift of the
// upper quantiles means the deployed models no longer describe the
// population's behavior — retraining is due and the investigation
// list's ranking becomes suspect long before detection quality metrics
// (which need ground truth) could say so.
//
// Shift is measured per quantile as (current - reference) /
// max(|reference|, eps) — a scale-free relative change, so one alert
// threshold works across aspects whose absolute error magnitudes
// differ by orders of magnitude. Results are returned for the ledger
// and mirrored as telemetry gauges `drift.<aspect>.q<pct>` plus an
// aggregate `drift.alerts` counter.

#include <string>
#include <vector>

#include "core/score_grid.h"

namespace acobe {

struct DriftConfig {
  bool enabled = false;
  /// Quantiles compared between the two windows (nearest-rank, matching
  /// telemetry::Histogram). Median tracks bulk shift; the upper tail is
  /// where anomaly scores live.
  std::vector<double> quantiles = {0.5, 0.9, 0.99};
  /// |relative shift| at or above this raises the alert flag on the
  /// quantile (and the aspect, and the run).
  double alert_threshold = 0.25;
  /// Absolute-shift floor for the alert: |current - reference| must also
  /// reach this. A reference quantile near zero (common for the median
  /// of sparse aspects) makes the relative shift explode on any tiny
  /// move; a sub-floor absolute move is never worth an alert.
  double min_abs_shift = 1e-6;
};

struct QuantileShift {
  double q = 0.0;          // the quantile, in [0, 1]
  double reference = 0.0;  // reference-window value
  double current = 0.0;    // current-window value
  double rel_shift = 0.0;  // (current - reference) / max(|reference|, eps)
  bool alert = false;
};

struct AspectDrift {
  int aspect = 0;  // index into `current`'s aspect axis
  std::string aspect_name;
  std::vector<QuantileShift> shifts;  // one per DriftConfig quantile
  bool alert = false;                 // any quantile alerted
};

/// Gauge name for one (aspect, quantile): "drift.<aspect>.q<pct>" with
/// the percent compact ("q50", "q99.5" — never "q29.0"). Exposed for
/// golden tests.
std::string DriftGaugeName(const std::string& aspect, double q);

/// Compares every aspect of `current` against the same-named aspect of
/// `reference` (aspects missing from the reference are skipped). Sets
/// the drift gauges/counter as a side effect when metrics are enabled;
/// returns the full comparison for the run ledger. Returns empty when
/// disabled.
std::vector<AspectDrift> ComputeScoreDrift(const ScoreGrid& reference,
                                           const ScoreGrid& current,
                                           const DriftConfig& config);

}  // namespace acobe
