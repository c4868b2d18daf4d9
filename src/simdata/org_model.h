#pragma once

// Organizational structure for the CERT-style dataset: departments
// (the paper's third-tier organizational unit, used as groups) and the
// users inside them, registered into a LogStore's entity tables + LDAP.

#include <string>
#include <vector>

#include "common/rng.h"
#include "logs/log_store.h"

namespace acobe::sim {

struct OrgConfig {
  int departments = 4;
  int users_per_department = 232;  // 4 x 232 = 928 + 1 below ~ paper's 929
  /// Extra users appended to the first department to hit odd totals.
  int extra_users = 1;
  std::uint64_t seed = 0xACBE;
};

struct OrgUser {
  UserId id = kInvalidId;
  std::string name;       // CERT-style, e.g. "JPH1910"
  int department = 0;     // department index
  PcId own_pc = kInvalidId;
};

class OrgModel {
 public:
  /// Builds the org, interning users/PCs and filling LDAP in `store`.
  OrgModel(const OrgConfig& config, LogStore& store);

  const std::vector<OrgUser>& org_users() const { return users_; }
  const std::vector<std::string>& department_names() const {
    return departments_;
  }

  /// Users belonging to department index `dept`.
  std::vector<UserId> DepartmentMembers(int dept) const;

  int user_count() const { return static_cast<int>(users_.size()); }

 private:
  std::vector<OrgUser> users_;
  std::vector<std::string> departments_;
};

/// Generates a CERT-style user name: three uppercase letters + the
/// ordinal zero-padded to at least four digits, unique for the given
/// ordinal (the digits widen past 9999 instead of wrapping, so a
/// 100k-user org cannot mint colliding names).
std::string MakeUserName(Rng& rng, int ordinal);

}  // namespace acobe::sim
