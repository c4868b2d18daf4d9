#include "simdata/org_model.h"

#include <cstdio>
#include <stdexcept>

namespace acobe::sim {

std::string MakeUserName(Rng& rng, int ordinal) {
  char buf[20];
  const char a = static_cast<char>('A' + rng.NextInt(0, 25));
  const char b = static_cast<char>('A' + rng.NextInt(0, 25));
  const char c = static_cast<char>('A' + rng.NextInt(0, 25));
  // The full ordinal in the digits guarantees uniqueness regardless of
  // the random letters. It must not be taken modulo anything: wrapping
  // at 10000 merged distinct users into one name at 100k scale, which
  // silently fused their event streams.
  std::snprintf(buf, sizeof(buf), "%c%c%c%04d", a, b, c, ordinal);
  return buf;
}

OrgModel::OrgModel(const OrgConfig& config, LogStore& store) {
  if (config.departments <= 0 || config.users_per_department <= 0) {
    throw std::invalid_argument("OrgModel: non-positive org size");
  }
  Rng rng(config.seed);
  for (int d = 0; d < config.departments; ++d) {
    departments_.push_back("Department-" + std::to_string(d + 1));
  }
  int ordinal = 0;
  for (int d = 0; d < config.departments; ++d) {
    const int count =
        config.users_per_department + (d == 0 ? config.extra_users : 0);
    for (int i = 0; i < count; ++i, ++ordinal) {
      OrgUser user;
      user.name = MakeUserName(rng, ordinal);
      user.id = store.users().Intern(user.name);
      user.department = d;
      user.own_pc = store.pcs().Intern("PC-" + std::to_string(ordinal));
      users_.push_back(user);

      LdapRecord ldap;
      ldap.user = user.id;
      ldap.user_name = user.name;
      ldap.department = departments_[d];
      ldap.team = departments_[d] + "/Team-" + std::to_string(i % 8 + 1);
      ldap.role = (i % 23 == 0) ? "Manager" : "Employee";
      store.AddLdap(std::move(ldap));
    }
  }
}

std::vector<UserId> OrgModel::DepartmentMembers(int dept) const {
  std::vector<UserId> out;
  for (const OrgUser& u : users_) {
    if (u.department == dept) out.push_back(u.id);
  }
  return out;
}

}  // namespace acobe::sim
