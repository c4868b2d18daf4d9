#include "baselines/experiment.h"

#include <algorithm>
#include <stdexcept>

#include "logs/tee_sink.h"

namespace acobe::baselines {

ScenarioWindows CertData::WindowsFor(const sim::InsiderScenario& scenario,
                                     int train_gap_days,
                                     int test_tail_days) const {
  ScenarioWindows w;
  const int anomaly_begin =
      static_cast<int>(DaysBetween(start, scenario.anomaly_start));
  const int anomaly_end =
      static_cast<int>(DaysBetween(start, scenario.anomaly_end));
  w.train_begin = 0;
  w.train_end = std::max(1, anomaly_begin - train_gap_days);
  w.test_begin = w.train_end;
  w.test_end = std::min(days, anomaly_end + test_tail_days + 1);
  if (w.test_begin >= w.test_end) {
    throw std::invalid_argument("WindowsFor: empty test window");
  }
  return w;
}

namespace {

template <typename T>
const T& RequireCube(const std::unique_ptr<T>& extractor, const char* what) {
  if (!extractor) {
    throw std::logic_error(std::string("CertData: the ") + what +
                           " cube was not built (see build_* flags)");
  }
  return *extractor;
}

}  // namespace

const MeasurementCube& CertData::CubeFor(CubeKind kind) const {
  switch (kind) {
    case CubeKind::kFine: return RequireCube(fine, "fine").cube();
    case CubeKind::kFineHourly:
      return RequireCube(fine_hourly, "fine-hourly").cube();
    case CubeKind::kCoarse: return RequireCube(coarse, "coarse").cube();
  }
  throw std::logic_error("CubeFor: bad kind");
}

const FeatureCatalog& CertData::CatalogFor(CubeKind kind) const {
  switch (kind) {
    case CubeKind::kFine: return RequireCube(fine, "fine").catalog();
    case CubeKind::kFineHourly:
      return RequireCube(fine_hourly, "fine-hourly").catalog();
    case CubeKind::kCoarse: return RequireCube(coarse, "coarse").catalog();
  }
  throw std::logic_error("CatalogFor: bad kind");
}

CertData BuildCertData(const CertExperimentConfig& config) {
  CertData data;
  data.start = config.sim.start;
  data.days =
      static_cast<int>(DaysBetween(config.sim.start, config.sim.end)) + 1;

  sim::CertSimulator simulator(config.sim, data.store);
  for (const ScenarioPlan& plan : config.scenarios) {
    simulator.InjectScenario(plan.kind, plan.department, plan.anomaly_start,
                             plan.span_days);
  }

  std::vector<LogSink*> sinks;
  if (config.build_fine) {
    data.fine = std::make_unique<CertAcobeExtractor>(
        data.start, data.days, TimeFramePartition::WorkOff());
    sinks.push_back(data.fine.get());
  }
  if (config.build_fine_hourly) {
    data.fine_hourly = std::make_unique<CertAcobeExtractor>(
        data.start, data.days, TimeFramePartition::Hourly());
    sinks.push_back(data.fine_hourly.get());
  }
  if (config.build_coarse) {
    data.coarse = std::make_unique<CertCoarseExtractor>(
        data.start, data.days, TimeFramePartition::Hourly());
    sinks.push_back(data.coarse.get());
  }
  TeeSink tee(std::move(sinks));
  simulator.Run(tee);

  data.truth = simulator.truth();
  data.scenarios = simulator.scenarios();
  const auto& org = simulator.org();
  for (std::size_t d = 0; d < org.department_names().size(); ++d) {
    data.department_users.push_back(org.DepartmentMembers(static_cast<int>(d)));
  }
  // Register every user in every cube even if they produced no events of
  // a given type, so member maps are complete.
  for (const sim::OrgUser& user : org.org_users()) {
    if (data.fine) data.fine->cube().RegisterUser(user.id);
    if (data.fine_hourly) data.fine_hourly->cube().RegisterUser(user.id);
    if (data.coarse) data.coarse->cube().RegisterUser(user.id);
  }
  return data;
}

DetectionOutput RunVariantOnScenario(
    const CertData& data, VariantKind kind, const ScaleProfile& scale,
    const sim::InsiderScenario& scenario, int train_gap_days,
    int test_tail_days, std::ostream* log,
    const std::function<void(DetectorSpec&)>& tweak) {
  const ScenarioWindows w =
      data.WindowsFor(scenario, train_gap_days, test_tail_days);
  const CubeKind cube_kind = VariantCube(kind);
  DetectorSpec spec = MakeVariantSpec(kind, scale);
  if (tweak) tweak(spec);
  const Detector detector(std::move(spec));
  return detector.Run(data.CubeFor(cube_kind), data.CatalogFor(cube_kind),
                      data.department_users.at(scenario.department),
                      w.train_begin, w.train_end, w.test_begin, w.test_end,
                      log);
}

std::vector<eval::RankedUser> MakeRankedUsers(const DetectionOutput& output,
                                              const sim::GroundTruth& truth) {
  std::vector<eval::RankedUser> ranked;
  ranked.reserve(output.list.size());
  for (const InvestigationEntry& entry : output.list) {
    eval::RankedUser r;
    r.user = output.members.at(entry.user_idx);
    r.priority = entry.priority;
    r.positive = truth.IsAbnormalUser(r.user);
    ranked.push_back(r);
  }
  eval::SortWorstCase(ranked);
  return ranked;
}

EnterpriseData BuildEnterpriseData(const EnterpriseExperimentConfig& config) {
  EnterpriseData data;
  data.start = config.sim.start;
  data.days =
      static_cast<int>(DaysBetween(config.sim.start, config.sim.end)) + 1;

  sim::EnterpriseSimulator simulator(config.sim, data.store);
  int victim = config.victim_index;
  for (const auto& [kind, date] : config.attacks) {
    simulator.InjectAttack(kind, victim, date);
    ++victim;  // distinct victims for multiple attacks
  }

  data.extractor = std::make_unique<EnterpriseExtractor>(data.start, data.days);
  simulator.Run(*data.extractor);
  data.extractor->Finalize();

  data.truth = simulator.truth();
  data.attacks = simulator.attacks();
  data.employees = simulator.employees();
  for (UserId user : data.employees) {
    data.extractor->cube().RegisterUser(user);
  }
  return data;
}

}  // namespace acobe::baselines
