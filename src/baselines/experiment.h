#pragma once

// Experiment drivers: synthesize a dataset once, extract every cube the
// compared variants need, and run variants per scenario. Used by the
// figure-reproduction benches and the examples.

#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "baselines/variants.h"
#include "eval/metrics.h"
#include "features/cert_features.h"
#include "features/enterprise_features.h"
#include "simdata/cert_simulator.h"
#include "simdata/enterprise_simulator.h"

namespace acobe::baselines {

struct ScenarioPlan {
  sim::InsiderScenarioKind kind = sim::InsiderScenarioKind::kScenario1;
  int department = 0;
  Date anomaly_start;
  int span_days = 21;
};

struct CertExperimentConfig {
  sim::CertSimConfig sim;
  std::vector<ScenarioPlan> scenarios;
  /// Training ends roughly this many days before the labeled anomalies;
  /// testing runs until this many days after them (Section V.A.2).
  int train_gap_days = 30;
  int test_tail_days = 30;
  /// Which cubes to extract (hourly cubes are memory-heavy at paper
  /// scale; skip the ones the planned variants do not need).
  bool build_fine = true;
  bool build_fine_hourly = true;
  bool build_coarse = true;
};

/// Day-index windows of one scenario: train [begin,end), test [begin,end).
struct ScenarioWindows {
  int train_begin = 0, train_end = 0, test_begin = 0, test_end = 0;
};

struct CertData {
  LogStore store;  // entity tables and LDAP; events go to the extractors
  std::unique_ptr<CertAcobeExtractor> fine;         // T=2 work/off
  std::unique_ptr<CertAcobeExtractor> fine_hourly;  // T=24 (Base-FF)
  std::unique_ptr<CertCoarseExtractor> coarse;      // T=24 (Baseline)
  sim::GroundTruth truth;
  std::vector<sim::InsiderScenario> scenarios;
  std::vector<std::vector<UserId>> department_users;
  Date start;
  int days = 0;

  ScenarioWindows WindowsFor(const sim::InsiderScenario& scenario,
                             int train_gap_days, int test_tail_days) const;

  const MeasurementCube& CubeFor(CubeKind kind) const;
  const FeatureCatalog& CatalogFor(CubeKind kind) const;
};

/// Synthesizes the dataset and extracts all cubes in one streaming pass.
CertData BuildCertData(const CertExperimentConfig& config);

/// Runs one variant on one scenario's department and windows. `tweak`
/// (optional) may adjust the generated DetectorSpec before the run
/// (e.g. disabling per-user calibration for raw-score figures).
DetectionOutput RunVariantOnScenario(
    const CertData& data, VariantKind kind, const ScaleProfile& scale,
    const sim::InsiderScenario& scenario, int train_gap_days,
    int test_tail_days, std::ostream* log = nullptr,
    const std::function<void(DetectorSpec&)>& tweak = nullptr);

/// Converts a detection output into ranked users with ground-truth
/// labels, ready for metric computation (worst-case tie order applied).
std::vector<eval::RankedUser> MakeRankedUsers(const DetectionOutput& output,
                                              const sim::GroundTruth& truth);

// ---------------------------------------------------------------------------
// Enterprise case study (Section VI)

struct EnterpriseData {
  LogStore store;
  std::unique_ptr<EnterpriseExtractor> extractor;
  sim::GroundTruth truth;
  std::vector<sim::EnterpriseAttack> attacks;
  std::vector<UserId> employees;
  Date start;
  int days = 0;
};

struct EnterpriseExperimentConfig {
  sim::EnterpriseSimConfig sim;
  std::vector<std::pair<sim::AttackKind, Date>> attacks;  // victim auto-picked
  int victim_index = 17;
};

EnterpriseData BuildEnterpriseData(const EnterpriseExperimentConfig& config);

}  // namespace acobe::baselines
