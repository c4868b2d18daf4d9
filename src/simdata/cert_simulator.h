#pragma once

// CERT-style organizational log synthesizer.
//
// Generates device/file/HTTP/logon/email logs for an organization over
// a date range, reproducing the statistical structure ACOBE exploits in
// the real CERT dataset:
//   - per-user habitual rates per activity and day-half,
//   - weekday/weekend/holiday seasonality and busy Mondays/make-up days,
//   - org-wide environmental changes (new service, outage) that cause
//     group-correlated bursts,
//   - natural "new entity" noise (users occasionally touch new
//     domains/files/hosts),
//   - injected insider-threat scenarios 1 and 2 with ground truth.
//
// Events are emitted day by day (chronologically at day granularity),
// which is what the first-seen ("new-op before day d") feature
// semantics require.

#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "logs/log_sink.h"
#include "logs/log_store.h"
#include "simdata/calendar.h"
#include "simdata/org_model.h"
#include "simdata/scenarios.h"
#include "simdata/user_profile.h"

namespace acobe::sim {

struct CertSimConfig {
  OrgConfig org;
  Date start{2010, 1, 2};
  Date end{2011, 5, 31};
  ProfileSamplerConfig profiles;
  /// Org-wide environmental changes; empty means "two defaults placed at
  /// 40% and 75% of the simulated range".
  std::vector<EnvChange> env_changes;
  bool default_env_changes = true;
  std::uint64_t seed = 7;
  int shared_domain_count = 200;
  int shared_file_count = 400;
};

class CertSimulator {
 public:
  /// Builds the organization and profiles; interned entities live in
  /// `store`'s tables (the store need not be the Run sink).
  CertSimulator(const CertSimConfig& config, LogStore& store);

  /// Plants an insider scenario in `department`, with the labeled
  /// anomaly span starting at `anomaly_start` and lasting `span_days`.
  /// Scenario 1 picks a user who never uses devices; scenario 2 picks a
  /// habitual (low-rate) device user. Must be called before Run.
  const InsiderScenario& InjectScenario(InsiderScenarioKind kind,
                                        int department, Date anomaly_start,
                                        int span_days);

  /// Generates all events into `sink`: RunDay over every simulated day,
  /// in order.
  void Run(LogSink& sink);

  /// Generates one day's events for the whole org into `sink`, user by
  /// user. Every event is stamped at or after `date`'s midnight; an
  /// event may run past the next midnight (a late logoff).
  void RunDay(const Date& date, LogSink& sink);

  const OrgModel& org() const { return *org_; }
  const GroundTruth& truth() const { return truth_; }
  const std::vector<InsiderScenario>& scenarios() const { return scenarios_; }
  const UserProfile& profile(UserId user) const;

 private:
  void SimulateUserDay(const OrgUser& user, const Date& date,
                       double busy_factor, const EnvChange* active_env,
                       Rng& rng, LogSink& sink);
  void EmitActivity(ActivityKind kind, const OrgUser& user, const Date& date,
                    int frame, int count, bool bulk_day, Rng& rng,
                    LogSink& sink);
  void EmitScenarioExtras(const InsiderScenario& scenario, const OrgUser& user,
                          const Date& date, Rng& rng, LogSink& sink);

  Timestamp DrawTimestamp(const Date& date, int frame, Rng& rng) const;
  DomainId PickDomain(const UserProfile& profile, Rng& rng,
                      bool bulk_day = false);
  FileId PickFile(const UserProfile& profile, Rng& rng,
                  bool bulk_day = false);

  /// A personal busy episode ("crunch week": new project, deadline) —
  /// normal behavior that deviates from the user's own habit. These
  /// exist so that self-deviation alone is NOT proof of compromise,
  /// which is exactly the false-positive pressure the paper discusses.
  struct CrunchEpisode {
    int start_day = 0;
    int duration = 5;
    double factor = 1.8;
  };

  CertSimConfig config_;
  LogStore& store_;
  std::unique_ptr<OrgModel> org_;
  OrgCalendar calendar_;
  std::vector<UserProfile> profiles_;  // indexed by position in org users
  std::vector<std::vector<CrunchEpisode>> crunches_;  // same indexing
  std::map<UserId, std::size_t> profile_index_;
  std::vector<DomainId> shared_domains_;
  std::vector<FileId> shared_files_;
  std::vector<EnvChange> env_changes_;
  std::map<UserId, InsiderScenario> scenario_by_user_;
  std::vector<InsiderScenario> scenarios_;
  GroundTruth truth_;
  Rng master_rng_;
  // Scenario-2 job-site domains, shared by all planted scenario-2 users.
  std::vector<DomainId> job_domains_;
  DomainId wikileaks_ = kInvalidId;
  DomainId env_domain_ = kInvalidId;
  std::uint32_t fresh_entity_counter_ = 0;
};

}  // namespace acobe::sim
