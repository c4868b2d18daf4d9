// Reproduces Figure 6 and the in-text detection numbers of Section V.C:
//   (a) ROC curves + AUC for ACOBE, Baseline, Base-FF, No-Group, 1-Day,
//       All-in-1 (paper: ACOBE 99.99%, Baseline 99.23%, Base-FF 99.54%),
//       plus the "k FPs listed before the i-th TP" counts
//       (paper: ACOBE 0,0,0,1 / Baseline 1,1,17,18 / Base-FF 1,1,10,10).
//   (b) Precision-recall curves (ACOBE >> Baseline/Base-FF).
//   (c) ACOBE with critic N = 1, 2, 3.
//
// Four scenarios (two per sub-dataset analog), one insider per
// department; per-scenario investigation lists are pooled exactly as in
// the paper, with worst-case tie ordering (FP before TP).
//
// --metrics-out also carries each Figure 6(a,b) model's AUC, AP and
// FPs-before-TP as gauges (fig6.seed<S>.<model>.auc /
// .average_precision / .fps_before_tp.<i>), with bench.hw_threads and
// bench.simd_avx2: the input of `tools/check_bench.py --quality`.

#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/version.h"
#include "eval/metrics.h"
#include "eval/report.h"

using namespace acobe;
using namespace acobe::bench;
using namespace acobe::baselines;

namespace {

std::vector<eval::RankedUser> PoolScenarios(
    const std::vector<std::vector<eval::RankedUser>>& per_scenario) {
  std::vector<eval::RankedUser> pooled;
  for (const auto& list : per_scenario) {
    pooled.insert(pooled.end(), list.begin(), list.end());
  }
  eval::SortWorstCase(pooled);
  return pooled;
}

void PrintCurves(const std::string& name,
                 const std::vector<eval::RankedUser>& pooled) {
  const auto flags = eval::PositiveFlags(pooled);
  const auto fps = eval::FalsePositivesBeforeEachTp(flags);
  std::printf("%-10s AUC=%7.4f%%  AP=%6.4f  FPs-before-TPs:", name.c_str(),
              100.0 * eval::RocAuc(flags), eval::AveragePrecision(flags));
  for (int fp : fps) std::printf(" %d", fp);
  std::printf("\n");
  std::printf("           ROC points (fpr,tpr):");
  const auto pr = eval::PrCurve(flags);
  int tp = 0, fp_count = 0, total_pos = 0, total_neg = 0;
  for (bool f : flags) f ? ++total_pos : ++total_neg;
  for (bool f : flags) {
    f ? ++tp : ++fp_count;
    if (f) {
      std::printf(" (%.4f,%.2f)", double(fp_count) / total_neg,
                  double(tp) / total_pos);
    }
  }
  std::printf("\n           PR points (recall,precision):");
  for (const auto& p : pr) std::printf(" (%.2f,%.3f)", p.recall, p.precision);
  std::printf("\n");
}

/// Publishes one model's quality as gauges keyed by dataset seed.
void PublishQuality(std::uint64_t seed, const eval::ModelSummary& m) {
  const std::string prefix =
      "fig6.seed" + std::to_string(seed) + "." + m.name + ".";
  telemetry::GetGauge(prefix + "auc").Set(m.auc);
  telemetry::GetGauge(prefix + "average_precision").Set(m.average_precision);
  for (std::size_t i = 0; i < m.fps_before_tp.size(); ++i) {
    telemetry::GetGauge(prefix + "fps_before_tp." + std::to_string(i + 1))
        .Set(m.fps_before_tp[i]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  const auto cfg = StandardCertConfig(args);
  const ScaleProfile scale = args.Scale();

  PrintHeader("Figure 6 - ROC / precision-recall comparison across models");
  const CertData data = BuildCertData(cfg);
  std::printf("%d users, %zu insiders, %zu departments\n",
              data.fine->cube().users(), data.scenarios.size(),
              data.department_users.size());

  const VariantKind kinds[] = {VariantKind::kAcobe,    VariantKind::kNoGroup,
                               VariantKind::kOneDay,   VariantKind::kAllInOne,
                               VariantKind::kBaseline, VariantKind::kBaseFF};

  // Keep ACOBE's raw grids for the Figure 6(c) critic-N sweep.
  std::vector<DetectionOutput> acobe_outputs;

  std::printf("\n[Figure 6(a,b)] pooled over %zu scenarios\n",
              data.scenarios.size());
  std::map<std::string, double> auc_by_name;
  for (VariantKind kind : kinds) {
    std::vector<std::vector<eval::RankedUser>> per_scenario;
    for (const sim::InsiderScenario& scenario : data.scenarios) {
      DetectionOutput out =
          RunVariantOnScenario(data, kind, scale, scenario,
                               cfg.train_gap_days, cfg.test_tail_days);
      per_scenario.push_back(MakeRankedUsers(out, data.truth));
      if (kind == VariantKind::kAcobe) {
        acobe_outputs.push_back(std::move(out));
      }
    }
    const auto pooled = PoolScenarios(per_scenario);
    PrintCurves(ToString(kind), pooled);
    PublishQuality(args.seed, eval::Summarize(ToString(kind), pooled));
    auc_by_name[ToString(kind)] =
        eval::RocAuc(eval::PositiveFlags(pooled));
  }

  std::printf("\n[Figure 6(c)] ACOBE critic with N = 1, 2, 3\n");
  const int top_k = MakeVariantSpec(VariantKind::kAcobe, scale).score_top_k_days;
  for (int n = 1; n <= 3; ++n) {
    std::vector<std::vector<eval::RankedUser>> per_scenario;
    for (std::size_t s = 0; s < acobe_outputs.size(); ++s) {
      DetectionOutput out;
      out.grid = acobe_outputs[s].grid;
      out.members = acobe_outputs[s].members;
      out.list = RankUsers(out.grid, n, top_k);
      per_scenario.push_back(MakeRankedUsers(out, data.truth));
    }
    PrintCurves("N=" + std::to_string(n), PoolScenarios(per_scenario));
  }

  PrintRule();
  std::printf("expected shape (paper): ACOBE tops every model (99.99%% AUC,\n"
              "FPs 0,0,0,1); Base-FF > Baseline; compound models (ACOBE,\n"
              "No-Group) beat single-day models by a large PR margin.\n");
  std::printf("measured: ACOBE %.2f%%, No-Group %.2f%%, Baseline %.2f%%, "
              "Base-FF %.2f%%\n",
              100 * auc_by_name["ACOBE"], 100 * auc_by_name["No-Group"],
              100 * auc_by_name["Baseline"], 100 * auc_by_name["Base-FF"]);
  // The machine the numbers come from. The NN kernels are bit-exact at
  // any thread count and SIMD level, so these only explain a mismatch.
  telemetry::GetGauge("bench.hw_threads")
      .Set(static_cast<double>(std::thread::hardware_concurrency()));
  telemetry::GetGauge("bench.simd_avx2")
      .Set(std::string(ActiveSimdName()) == "avx2" ? 1.0 : 0.0);
  args.FinishTelemetry();
  return 0;
}
