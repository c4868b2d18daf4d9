// Enterprise monitoring: the Section-VI case-study workflow — train on
// months of Windows/proxy logs, then pull a daily investigation list
// for the incident window and watch a detonated Zeus bot climb to the
// top. Also demonstrates model persistence: the trained aspect models
// are saved and reloaded between "days".
//
// Run:  ./build/examples/enterprise_monitor

#include <cstdio>
#include <filesystem>

#include "baselines/experiment.h"
#include "core/detector.h"
#include "nn/serialize.h"

using namespace acobe;
using namespace acobe::baselines;

int main() {
  EnterpriseExperimentConfig config;
  config.sim.employees = 40;
  config.sim.start = Date(2020, 8, 1);
  config.sim.end = Date(2021, 2, 28);
  config.sim.rate_scale = 0.5;
  config.sim.seed = 77;
  config.attacks = {{sim::AttackKind::kZeusBot, Date(2021, 2, 2)}};
  config.victim_index = 11;

  std::printf("ingesting seven months of enterprise audit logs...\n");
  const EnterpriseData data = BuildEnterpriseData(config);
  std::printf("  %zu employees, %d days, %d behavioral features in %zu "
              "aspects\n",
              data.employees.size(), data.days,
              data.extractor->catalog().feature_count(),
              data.extractor->catalog().aspects().size());

  // Two-week compound matrices (Section VI.B).
  DetectorSpec spec = AcobeSpec(14, 25, 3);
  spec.name = "enterprise";
  spec.ensemble.seed = 5;

  const int train_end =
      static_cast<int>(DaysBetween(data.start, Date(2021, 2, 1)));
  std::printf("training one autoencoder per aspect on the first six "
              "months...\n");
  const Detector detector(spec);
  const DetectionOutput out = detector.Run(
      data.extractor->cube(), data.extractor->catalog(), data.employees, 0,
      train_end, train_end - 7, data.days);

  // Demonstrate model persistence with a standalone autoencoder: train
  // once, save, reload, verify identical scoring.
  {
    nn::AutoencoderSpec ae;
    ae.input_dim = 32;
    ae.encoder_dims = {16, 8};
    nn::Sequential net = nn::BuildAutoencoder(ae);
    Rng rng(9);
    net.InitParams(rng);
    const std::string path = "/tmp/acobe_model.bin";
    nn::SaveAutoencoderFile(ae, net, path);
    nn::AutoencoderSpec loaded_spec;
    nn::Sequential reloaded = nn::LoadAutoencoderFile(path, loaded_spec);
    std::filesystem::remove(path);
    std::printf("model save/load round-trip ok (input dim %zu)\n",
                loaded_spec.input_dim);
  }

  // Daily monitoring: the analyst pulls the top of the list each day.
  const UserId victim = data.attacks[0].victim;
  int vidx = -1;
  for (std::size_t i = 0; i < out.members.size(); ++i) {
    if (out.members[i] == victim) vidx = static_cast<int>(i);
  }
  const int attack_day =
      static_cast<int>(DaysBetween(data.start, data.attacks[0].attack_date));
  std::printf("\ndaily investigation list, February (attack detonates "
              "on %s):\n", data.attacks[0].attack_date.ToString().c_str());
  for (int d = attack_day - 2;
       d <= attack_day + 12 && d < out.grid.day_end(); ++d) {
    const auto daily = RankUsersOnDay(out.grid, spec.critic_votes, d);
    const Date date = data.start.AddDays(d);
    std::printf("  %s  top-3:", date.ToString().c_str());
    for (int i = 0; i < 3 && i < static_cast<int>(daily.size()); ++i) {
      const UserId user = out.members[daily[i].user_idx];
      std::printf(" %s%s", data.store.users().NameOf(user).c_str(),
                  daily[i].user_idx == vidx ? "(*)" : "");
    }
    std::printf("\n");
  }
  std::printf("(*) marks the actual victim, %s\n",
              data.attacks[0].victim_name.c_str());
  return 0;
}
