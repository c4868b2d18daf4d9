#include "simdata/cert_simulator.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace acobe::sim {
namespace {

HttpFileType UploadType(ActivityKind kind) {
  switch (kind) {
    case ActivityKind::kHttpUploadDoc: return HttpFileType::kDoc;
    case ActivityKind::kHttpUploadExe: return HttpFileType::kExe;
    case ActivityKind::kHttpUploadJpg: return HttpFileType::kJpg;
    case ActivityKind::kHttpUploadPdf: return HttpFileType::kPdf;
    case ActivityKind::kHttpUploadTxt: return HttpFileType::kTxt;
    case ActivityKind::kHttpUploadZip: return HttpFileType::kZip;
    default: return HttpFileType::kNone;
  }
}

}  // namespace

CertSimulator::CertSimulator(const CertSimConfig& config, LogStore& store)
    : config_(config),
      store_(store),
      calendar_(OrgCalendar::WithDefaultHolidays(config.start.year(),
                                                 config.end.year())),
      master_rng_(config.seed) {
  if (config_.end < config_.start) {
    throw std::invalid_argument("CertSimulator: end before start");
  }
  org_ = std::make_unique<OrgModel>(config_.org, store_);

  for (int i = 0; i < config_.shared_domain_count; ++i) {
    shared_domains_.push_back(
        store_.domains().Intern("domain-" + std::to_string(i) + ".com"));
  }
  for (int i = 0; i < config_.shared_file_count; ++i) {
    shared_files_.push_back(
        store_.files().Intern("share/doc-" + std::to_string(i)));
  }
  wikileaks_ = store_.domains().Intern("wikileaks.org");
  env_domain_ = store_.domains().Intern("new-internal-service.corp");
  for (int i = 0; i < 6; ++i) {
    job_domains_.push_back(
        store_.domains().Intern("jobs-site-" + std::to_string(i) + ".com"));
  }

  const auto base_rates = DefaultWorkRates();
  const std::int64_t total_days = DaysBetween(config_.start, config_.end) + 1;
  profiles_.reserve(org_->org_users().size());
  for (const OrgUser& user : org_->org_users()) {
    Rng user_rng = master_rng_.Fork(user.id * 2654435761u + 17);
    profiles_.push_back(SampleProfile(config_.profiles, base_rates,
                                      shared_domains_, shared_files_,
                                      user.own_pc, user_rng));
    profile_index_[user.id] = profiles_.size() - 1;

    // Personal crunch episodes: a deadline week every few months. Mild
    // (well under the deviation clamp) — busy, not malicious.
    std::vector<CrunchEpisode> episodes;
    const int count = static_cast<int>(total_days / 150);
    for (int e = 0; e < count; ++e) {
      CrunchEpisode episode;
      episode.start_day = user_rng.NextInt(
          0, std::max(1, static_cast<int>(total_days) - 12));
      episode.duration = user_rng.NextInt(4, 9);
      episode.factor = user_rng.NextUniform(1.2, 1.5);
      episodes.push_back(episode);
    }
    crunches_.push_back(std::move(episodes));
  }

  env_changes_ = config_.env_changes;
  if (env_changes_.empty() && config_.default_env_changes) {
    // Environmental changes recur: a new service rolls out roughly
    // every quarter and outages happen in between, so models get to
    // *learn* what an org-wide correlated burst looks like.
    Rng env_rng = master_rng_.Fork(0xE41);
    for (std::int64_t day = 60; day < total_days - 10; day += 95) {
      EnvChange svc;
      svc.kind = EnvChangeKind::kNewService;
      svc.start = config_.start.AddDays(day + env_rng.NextInt(-10, 10));
      svc.duration_days = env_rng.NextInt(3, 5);
      svc.intensity = env_rng.NextUniform(1.8, 3.0);
      env_changes_.push_back(svc);
    }
    for (std::int64_t day = 130; day < total_days - 6; day += 150) {
      EnvChange outage;
      outage.kind = EnvChangeKind::kOutage;
      outage.start = config_.start.AddDays(day + env_rng.NextInt(-8, 8));
      outage.duration_days = env_rng.NextInt(1, 3);
      outage.intensity = env_rng.NextUniform(2.0, 3.5);
      env_changes_.push_back(outage);
    }
  }
}

const UserProfile& CertSimulator::profile(UserId user) const {
  auto it = profile_index_.find(user);
  if (it == profile_index_.end()) {
    throw std::out_of_range("CertSimulator::profile: unknown user");
  }
  return profiles_[it->second];
}

const InsiderScenario& CertSimulator::InjectScenario(InsiderScenarioKind kind,
                                                     int department,
                                                     Date anomaly_start,
                                                     int span_days) {
  if (anomaly_start < config_.start ||
      config_.end < anomaly_start.AddDays(span_days)) {
    throw std::invalid_argument(
        "InjectScenario: anomaly span outside simulated range");
  }
  // Pick a victim matching the scenario's precondition, skipping users
  // already carrying a scenario.
  const OrgUser* victim = nullptr;
  for (const OrgUser& user : org_->org_users()) {
    if (user.department != department) continue;
    if (scenario_by_user_.contains(user.id)) continue;
    const UserProfile& p = profiles_[profile_index_.at(user.id)];
    const bool wants_device_user = kind == InsiderScenarioKind::kScenario2;
    if (p.uses_devices == wants_device_user) {
      victim = &user;
      break;
    }
  }
  if (victim == nullptr) {
    throw std::runtime_error("InjectScenario: no eligible user in department");
  }

  InsiderScenario scenario;
  scenario.kind = kind;
  scenario.user = victim->id;
  scenario.user_name = victim->name;
  scenario.department = department;
  scenario.anomaly_start = anomaly_start;
  scenario.anomaly_end = anomaly_start.AddDays(span_days - 1);
  scenario.leave_date = scenario.anomaly_end.AddDays(
      kind == InsiderScenarioKind::kScenario1 ? 3 : 1);

  scenario_by_user_[victim->id] = scenario;
  scenarios_.push_back(scenario);
  truth_.AddAbnormalUser(victim->id, anomaly_start, scenario.anomaly_end);
  return scenarios_.back();
}

void CertSimulator::Run(LogSink& sink) {
  for (Date date = config_.start; date <= config_.end; date = date.AddDays(1)) {
    RunDay(date, sink);
  }
}

void CertSimulator::RunDay(const Date& date, LogSink& sink) {
  const double busy = calendar_.BusyFactor(date);
  const EnvChange* active_env = nullptr;
  for (const EnvChange& env : env_changes_) {
    if (env.start <= date && date < env.start.AddDays(env.duration_days)) {
      active_env = &env;
      break;
    }
  }
  for (const OrgUser& user : org_->org_users()) {
    auto sit = scenario_by_user_.find(user.id);
    if (sit != scenario_by_user_.end() && sit->second.leave_date < date) {
      continue;  // the insider has left the organization
    }
    Rng rng = master_rng_.Fork((static_cast<std::uint64_t>(user.id) << 20) ^
                               static_cast<std::uint64_t>(date.DayNumber()));
    SimulateUserDay(user, date, busy, active_env, rng, sink);
    if (sit != scenario_by_user_.end()) {
      EmitScenarioExtras(sit->second, user, date, rng, sink);
    }
  }
}

Timestamp CertSimulator::DrawTimestamp(const Date& date, int frame,
                                       Rng& rng) const {
  if (frame == 0) {
    // Working hours, biased towards mid-day.
    double hour = rng.NextGaussian(12.0, 2.6);
    hour = std::clamp(hour, 6.0, 17.99);
    return MakeTimestamp(date, 0) +
           static_cast<Timestamp>(hour * 3600.0) + rng.NextInt(0, 59);
  }
  // Off hours: 18:00-06:00 (wrapping); keep the event on `date` by using
  // 18:00-24:00 and 00:00-06:00 halves of the same civil day.
  const bool evening = rng.NextBernoulli(0.55);
  const double hour = evening ? rng.NextUniform(18.0, 23.99)
                              : rng.NextUniform(0.0, 5.99);
  return MakeTimestamp(date, 0) + static_cast<Timestamp>(hour * 3600.0) +
         rng.NextInt(0, 59);
}

DomainId CertSimulator::PickDomain(const UserProfile& profile, Rng& rng,
                                   bool bulk_day) {
  // Bulk work (project migrations, album uploads) targets entities the
  // user already knows; fresh entities stay rare on those days.
  const double new_prob =
      bulk_day ? profile.new_entity_prob * 0.1 : profile.new_entity_prob;
  if (!profile.domains.empty() && !rng.NextBernoulli(new_prob)) {
    return profile.domains[rng.NextBounded(profile.domains.size())];
  }
  return store_.domains().Intern("fresh-domain-" +
                                 std::to_string(fresh_entity_counter_++) +
                                 ".net");
}

FileId CertSimulator::PickFile(const UserProfile& profile, Rng& rng,
                               bool bulk_day) {
  const double new_prob =
      bulk_day ? profile.new_entity_prob * 0.1 : profile.new_entity_prob;
  if (!profile.files.empty() && !rng.NextBernoulli(new_prob)) {
    return profile.files[rng.NextBounded(profile.files.size())];
  }
  return store_.files().Intern("fresh/file-" +
                               std::to_string(fresh_entity_counter_++));
}

void CertSimulator::SimulateUserDay(const OrgUser& user, const Date& date,
                                    double busy_factor,
                                    const EnvChange* active_env, Rng& rng,
                                    LogSink& sink) {
  const std::size_t pidx = profile_index_.at(user.id);
  const UserProfile& profile = profiles_[pidx];
  const bool workday = calendar_.IsWorkday(date);

  // Personal crunch episodes multiply human-initiated activity.
  double crunch = 1.0;
  const int day_index =
      static_cast<int>(DaysBetween(config_.start, date));
  for (const CrunchEpisode& episode : crunches_[pidx]) {
    if (day_index >= episode.start_day &&
        day_index < episode.start_day + episode.duration) {
      crunch = episode.factor;
      break;
    }
  }

  // Legitimate bulk day: large one-day batches of copies/writes/uploads
  // against habitual entities.
  const bool bulk_day =
      workday && rng.NextBernoulli(profile.bulk_day_prob);
  auto bulk_boost = [&](ActivityKind kind) {
    if (!bulk_day) return 1.0;
    switch (kind) {
      case ActivityKind::kFileCopyLocalToRemote:
      case ActivityKind::kFileCopyRemoteToLocal:
      case ActivityKind::kFileWriteLocal:
      case ActivityKind::kFileWriteRemote:
        return profile.bulk_factor;
      case ActivityKind::kHttpUploadDoc:
      case ActivityKind::kHttpUploadJpg:
      case ActivityKind::kHttpUploadPdf:
      case ActivityKind::kHttpUploadZip:
        return profile.bulk_factor * 0.7;
      default:
        return 1.0;
    }
  };

  for (std::size_t k = 0; k < kActivityKindCount; ++k) {
    const auto kind = static_cast<ActivityKind>(k);
    for (int frame = 0; frame < 2; ++frame) {
      double rate = profile.rates[k][frame];
      if (rate <= 0.0) continue;
      if (IsHumanInitiated(kind)) {
        rate *= (workday ? busy_factor : profile.weekend_human_factor) *
                crunch * bulk_boost(kind);
      } else if (!workday) {
        rate *= profile.weekend_machine_factor;
      }
      const int count = rng.NextPoisson(rate);
      if (count > 0) {
        EmitActivity(kind, user, date, frame, count, bulk_day, rng, sink);
      }
    }
  }

  // Org-wide environmental change: correlated HTTP burst, with
  // per-user response intensity (early adopters vs stragglers).
  if (active_env != nullptr) {
    const double burst =
        active_env->intensity * profile.env_response *
        std::max(1.0, profile.rates[Index(ActivityKind::kHttpVisit)][0] * 0.3);
    const int count = rng.NextPoisson(burst);
    for (int i = 0; i < count; ++i) {
      HttpEvent e;
      e.ts = DrawTimestamp(date, 0, rng);
      e.user = user.id;
      e.pc = user.own_pc;
      e.activity = HttpActivity::kVisit;
      // A new service is a domain nobody saw before its launch; an
      // outage causes retries against habitual domains.
      e.domain = active_env->kind == EnvChangeKind::kNewService
                     ? env_domain_
                     : (profile.domains.empty()
                            ? env_domain_
                            : profile.domains[rng.NextBounded(
                                  profile.domains.size())]);
      e.filetype = HttpFileType::kNone;
      sink.Consume(e);
    }
    // A new service also receives content: every user onboards by
    // uploading documents to the previously-unseen domain. This is the
    // benign *common* burst (visible in the upload features) that
    // single-user models wrongly flag and the group block absorbs.
    if (active_env->kind == EnvChangeKind::kNewService) {
      const int uploads = rng.NextPoisson(0.5 * active_env->intensity *
                                          profile.env_response);
      for (int i = 0; i < uploads; ++i) {
        HttpEvent e;
        e.ts = DrawTimestamp(date, 0, rng);
        e.user = user.id;
        e.pc = user.own_pc;
        e.activity = HttpActivity::kUpload;
        e.domain = env_domain_;
        e.filetype = rng.NextBernoulli(0.6) ? HttpFileType::kDoc
                                            : HttpFileType::kPdf;
        sink.Consume(e);
      }
    }
  }
}

void CertSimulator::EmitActivity(ActivityKind kind, const OrgUser& user,
                                 const Date& date, int frame, int count,
                                 bool bulk_day, Rng& rng, LogSink& sink) {
  const UserProfile& profile = profiles_[profile_index_.at(user.id)];
  for (int i = 0; i < count; ++i) {
    const Timestamp ts = DrawTimestamp(date, frame, rng);
    switch (kind) {
      case ActivityKind::kLogon: {
        LogonEvent e{ts, user.id, user.own_pc, LogonActivity::kLogon};
        sink.Consume(e);
        LogonEvent off{ts + rng.NextInt(1800, 8 * 3600), user.id, user.own_pc,
                       LogonActivity::kLogoff};
        sink.Consume(off);
        break;
      }
      case ActivityKind::kDeviceConnect: {
        // Occasionally a different host than the user's own PC; feature
        // f2 (new-host-connection) picks up first-time hosts.
        PcId pc = user.own_pc;
        if (rng.NextBernoulli(0.06)) {
          pc = store_.pcs().Intern("PC-shared-" +
                                   std::to_string(rng.NextInt(0, 9)));
        }
        DeviceEvent e{ts, user.id, pc, DeviceActivity::kConnect};
        sink.Consume(e);
        DeviceEvent off{ts + rng.NextInt(300, 2 * 3600), user.id, pc,
                        DeviceActivity::kDisconnect};
        sink.Consume(off);
        break;
      }
      case ActivityKind::kFileOpenLocal:
      case ActivityKind::kFileOpenRemote: {
        FileEvent e;
        e.ts = ts;
        e.user = user.id;
        e.pc = user.own_pc;
        e.activity = FileActivity::kOpen;
        e.file = PickFile(profile, rng, bulk_day);
        e.from = kind == ActivityKind::kFileOpenLocal ? FileLocation::kLocal
                                                      : FileLocation::kRemote;
        e.to = e.from;
        sink.Consume(e);
        break;
      }
      case ActivityKind::kFileWriteLocal:
      case ActivityKind::kFileWriteRemote: {
        FileEvent e;
        e.ts = ts;
        e.user = user.id;
        e.pc = user.own_pc;
        e.activity = FileActivity::kWrite;
        e.file = PickFile(profile, rng, bulk_day);
        e.to = kind == ActivityKind::kFileWriteLocal ? FileLocation::kLocal
                                                     : FileLocation::kRemote;
        e.from = e.to;
        sink.Consume(e);
        break;
      }
      case ActivityKind::kFileCopyLocalToRemote:
      case ActivityKind::kFileCopyRemoteToLocal: {
        FileEvent e;
        e.ts = ts;
        e.user = user.id;
        e.pc = user.own_pc;
        e.activity = FileActivity::kCopy;
        e.file = PickFile(profile, rng, bulk_day);
        if (kind == ActivityKind::kFileCopyLocalToRemote) {
          e.from = FileLocation::kLocal;
          e.to = FileLocation::kRemote;
        } else {
          e.from = FileLocation::kRemote;
          e.to = FileLocation::kLocal;
        }
        sink.Consume(e);
        break;
      }
      case ActivityKind::kFileDelete: {
        FileEvent e;
        e.ts = ts;
        e.user = user.id;
        e.pc = user.own_pc;
        e.activity = FileActivity::kDelete;
        e.file = PickFile(profile, rng, bulk_day);
        sink.Consume(e);
        break;
      }
      case ActivityKind::kHttpVisit:
      case ActivityKind::kHttpDownload: {
        HttpEvent e;
        e.ts = ts;
        e.user = user.id;
        e.pc = user.own_pc;
        e.activity = kind == ActivityKind::kHttpVisit ? HttpActivity::kVisit
                                                      : HttpActivity::kDownload;
        e.domain = PickDomain(profile, rng, bulk_day);
        e.filetype = kind == ActivityKind::kHttpDownload
                         ? (rng.NextBernoulli(0.2) ? HttpFileType::kExe
                                                   : HttpFileType::kPdf)
                         : HttpFileType::kNone;
        sink.Consume(e);
        break;
      }
      case ActivityKind::kHttpUploadDoc:
      case ActivityKind::kHttpUploadExe:
      case ActivityKind::kHttpUploadJpg:
      case ActivityKind::kHttpUploadPdf:
      case ActivityKind::kHttpUploadTxt:
      case ActivityKind::kHttpUploadZip: {
        HttpEvent e;
        e.ts = ts;
        e.user = user.id;
        e.pc = user.own_pc;
        e.activity = HttpActivity::kUpload;
        e.domain = PickDomain(profile, rng, bulk_day);
        e.filetype = UploadType(kind);
        sink.Consume(e);
        break;
      }
      case ActivityKind::kEmail: {
        EmailEvent e;
        e.ts = ts;
        e.user = user.id;
        e.recipient_count = static_cast<std::uint16_t>(rng.NextInt(1, 5));
        e.attachment_count = static_cast<std::uint16_t>(
            rng.NextBernoulli(0.3) ? rng.NextInt(1, 3) : 0);
        e.size_bytes = static_cast<std::uint32_t>(rng.NextInt(500, 200000));
        e.external = rng.NextBernoulli(0.25);
        sink.Consume(e);
        break;
      }
      case ActivityKind::kCount:
        break;
    }
  }
}

void CertSimulator::EmitScenarioExtras(const InsiderScenario& scenario,
                                       const OrgUser& user, const Date& date,
                                       Rng& rng, LogSink& sink) {
  if (date < scenario.anomaly_start || scenario.anomaly_end < date) return;
  const UserProfile& profile = profiles_[profile_index_.at(user.id)];

  if (scenario.kind == InsiderScenarioKind::kScenario1) {
    // Off-hour logons on a user who never worked off-hours.
    for (int i = rng.NextPoisson(1.5); i > 0; --i) {
      const Timestamp ts = DrawTimestamp(date, 1, rng);
      sink.Consume(LogonEvent{ts, user.id, user.own_pc, LogonActivity::kLogon});
      sink.Consume(LogonEvent{ts + rng.NextInt(1800, 4 * 3600), user.id,
                              user.own_pc, LogonActivity::kLogoff});
    }
    // Thumb-drive use on a user who never used one. The daily count is
    // unremarkable org-wide — only this user's own history exposes it.
    for (int i = rng.NextPoisson(2.0); i > 0; --i) {
      const Timestamp ts = DrawTimestamp(date, 1, rng);
      sink.Consume(
          DeviceEvent{ts, user.id, user.own_pc, DeviceActivity::kConnect});
      sink.Consume(DeviceEvent{ts + rng.NextInt(600, 7200), user.id,
                               user.own_pc, DeviceActivity::kDisconnect});
    }
    // Uploads to wikileaks.org during off hours, piece by piece.
    for (int i = rng.NextPoisson(2.0); i > 0; --i) {
      HttpEvent e;
      e.ts = DrawTimestamp(date, 1, rng);
      e.user = user.id;
      e.pc = user.own_pc;
      e.activity = HttpActivity::kUpload;
      e.domain = wikileaks_;
      e.filetype = rng.NextBernoulli(0.5) ? HttpFileType::kDoc
                                          : HttpFileType::kZip;
      sink.Consume(e);
    }
    // Staging data onto the drive: local->remote copies of files the
    // user never touched before.
    for (int i = rng.NextPoisson(3.0); i > 0; --i) {
      FileEvent e;
      e.ts = DrawTimestamp(date, 1, rng);
      e.user = user.id;
      e.pc = user.own_pc;
      e.activity = FileActivity::kCopy;
      e.file = store_.files().Intern(
          "secret/stash-" + std::to_string(fresh_entity_counter_++));
      e.from = FileLocation::kLocal;
      e.to = FileLocation::kRemote;
      sink.Consume(e);
    }
    return;
  }

  // Scenario 2: a long job-hunting phase followed by a short
  // thumb-drive exfiltration phase.
  const std::int64_t span =
      DaysBetween(scenario.anomaly_start, scenario.anomaly_end) + 1;
  const std::int64_t day_index = DaysBetween(scenario.anomaly_start, date);
  const bool exfil_phase = day_index >= span * 7 / 10;

  if (!exfil_phase) {
    // Surfing job websites and uploading resume.doc to several of them.
    for (int i = rng.NextPoisson(6.0); i > 0; --i) {
      HttpEvent e;
      e.ts = DrawTimestamp(date, 0, rng);
      e.user = user.id;
      e.pc = user.own_pc;
      e.activity = HttpActivity::kVisit;
      e.domain = job_domains_[rng.NextBounded(job_domains_.size())];
      e.filetype = HttpFileType::kNone;
      sink.Consume(e);
    }
    for (int i = rng.NextPoisson(2.5); i > 0; --i) {
      HttpEvent e;
      e.ts = DrawTimestamp(date, 0, rng);
      e.user = user.id;
      e.pc = user.own_pc;
      e.activity = HttpActivity::kUpload;
      e.domain = job_domains_[rng.NextBounded(job_domains_.size())];
      e.filetype = HttpFileType::kDoc;  // resume.doc
      sink.Consume(e);
    }
  } else {
    // Thumb drive at markedly higher rates than previous activity —
    // but still a plausible daily count for a heavy device user.
    const double base =
        std::max(0.3, profile.rates[Index(ActivityKind::kDeviceConnect)][0]);
    for (int i = rng.NextPoisson(base * 4.0 + 1.0); i > 0; --i) {
      const Timestamp ts = DrawTimestamp(date, 0, rng);
      sink.Consume(
          DeviceEvent{ts, user.id, user.own_pc, DeviceActivity::kConnect});
      sink.Consume(DeviceEvent{ts + rng.NextInt(600, 3600), user.id,
                               user.own_pc, DeviceActivity::kDisconnect});
    }
    // Data theft "at markedly higher rates than their previous
    // activity" (Section V.A.1): sustained bulk copies of files the
    // user never touched before.
    for (int i = rng.NextPoisson(9.0); i > 0; --i) {
      FileEvent e;
      e.ts = DrawTimestamp(date, rng.NextBernoulli(0.3) ? 1 : 0, rng);
      e.user = user.id;
      e.pc = user.own_pc;
      e.activity = FileActivity::kCopy;
      e.file = store_.files().Intern(
          "secret/exfil-" + std::to_string(fresh_entity_counter_++));
      e.from = FileLocation::kLocal;
      e.to = FileLocation::kRemote;
      sink.Consume(e);
    }
  }
}

}  // namespace acobe::sim
