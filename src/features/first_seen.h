#pragma once

// First-seen tracking for "new-op" features: the number of operations
// in terms of (feature, entity) pairs that the user never conducted
// before day d. Requires events to be fed in day order (the simulators
// and log stores guarantee day-granularity chronological order).

#include <cstdint>
#include <unordered_map>

namespace acobe {

class FirstSeenTracker {
 public:
  /// Packs a (user, kind, entity) triple into a tracking key.
  /// `kind` distinguishes op types; entity ids up to 2^26, users up to
  /// 2^32, kinds up to 2^6.
  static std::uint64_t Key(std::uint32_t user, std::uint32_t kind,
                           std::uint32_t entity) {
    return (static_cast<std::uint64_t>(user) << 32) ^
           (static_cast<std::uint64_t>(kind) << 26) ^ entity;
  }

  /// Records an occurrence of `key` on `day` and reports whether the
  /// key is new as of that day — i.e. it was never seen on any earlier
  /// day. Multiple occurrences on the first day all count as new
  /// ("never had conducted *before* day d").
  bool SeenNewOnDay(std::uint64_t key, std::int32_t day) {
    // try_emplace looks up before it allocates a node (emplace builds one
    // first), so the common repeat key costs no malloc.
    auto [it, inserted] = first_day_.try_emplace(key, day);
    return inserted || it->second == day;
  }

  /// Records an occurrence and reports whether this is the very first
  /// occurrence of `key` (repeats — even same-day — return false). Used
  /// for per-day uniqueness counting with the day baked into the key.
  bool FirstOccurrence(std::uint64_t key, std::int32_t day) {
    return first_day_.try_emplace(key, day).second;
  }

  /// True if `key` was seen on a day strictly before `day`.
  bool SeenBefore(std::uint64_t key, std::int32_t day) const {
    auto it = first_day_.find(key);
    return it != first_day_.end() && it->second < day;
  }

  std::size_t size() const { return first_day_.size(); }

 private:
  std::unordered_map<std::uint64_t, std::int32_t> first_day_;
};

}  // namespace acobe
