#include "eval/report.h"

#include <sstream>

#include "common/telemetry.h"

namespace acobe::eval {

ModelSummary Summarize(const std::string& name,
                       const std::vector<RankedUser>& ranked) {
  ModelSummary summary;
  summary.name = name;
  const auto flags = PositiveFlags(ranked);
  summary.auc = RocAuc(flags);
  summary.average_precision = AveragePrecision(flags);
  summary.fps_before_tp = FalsePositivesBeforeEachTp(flags);
  return summary;
}

LedgerEvent MakeQualityEvent(const std::string& model,
                             std::vector<RankedUser> ranked,
                             std::span<const std::size_t> ks) {
  SortWorstCase(ranked);
  const std::vector<bool> flags = PositiveFlags(ranked);
  std::size_t positives = 0;
  for (bool f : flags) positives += f ? 1 : 0;

  LedgerEvent event("quality");
  event.Str("model", model)
      .Int("list_size", static_cast<std::int64_t>(flags.size()))
      .Int("positives", static_cast<std::int64_t>(positives))
      .Num("auc", RocAuc(flags))
      .Num("average_precision", AveragePrecision(flags));
  std::ostringstream p_at;
  p_at << '{';
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (i) p_at << ',';
    p_at << '"' << ks[i] << "\":";
    telemetry::JsonNumber(p_at, PrecisionAtK(flags, ks[i]));
  }
  p_at << '}';
  event.Raw("precision_at", p_at.str());
  return event;
}

}  // namespace acobe::eval
