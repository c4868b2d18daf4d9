#pragma once

// Report generation: per-model quality summaries (the Figure 6
// comparison) and the run ledger's "quality" event.

#include <span>
#include <string>
#include <vector>

#include "common/ledger.h"
#include "eval/metrics.h"

namespace acobe::eval {

/// One row of a model-comparison table.
struct ModelSummary {
  std::string name;
  double auc = 0.0;
  double average_precision = 0.0;
  std::vector<int> fps_before_tp;
};

/// Builds a summary from a ranked list.
ModelSummary Summarize(const std::string& name,
                       const std::vector<RankedUser>& ranked);

/// Builds the run ledger's "quality" event from a ranked list with
/// ground truth: ROC AUC, average precision, and precision@k for each
/// requested cutoff (object key = the cutoff). `ranked` is re-sorted
/// worst-case internally; the caller's copy is untouched.
LedgerEvent MakeQualityEvent(const std::string& model,
                             std::vector<RankedUser> ranked,
                             std::span<const std::size_t> ks);

}  // namespace acobe::eval
