#include "core/monitor.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/faults.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace acobe {
namespace {

// "acobe.monitor.v1" artifact framing.
constexpr std::uint32_t kMonitorMagic = 0x41434d53;  // "ACMS"
constexpr std::uint32_t kMonitorVersion = 1;
// Sanity cap on the serialized payload: even a million tracked users
// with long aspect names stays far under this.
constexpr std::uint32_t kMaxPayload = 1u << 30;

void PutI32(std::string& buf, std::int32_t v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU32(std::string& buf, std::uint32_t v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutF32(std::string& buf, float v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutStr(std::string& buf, const std::string& s) {
  PutU32(buf, static_cast<std::uint32_t>(s.size()));
  buf.append(s);
}

class PayloadReader {
 public:
  /// Reads from `payload`, which must outlive the reader.
  explicit PayloadReader(std::string_view payload) : payload_(payload) {}

  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  std::uint32_t U32() {
    std::uint32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  float F32() {
    float v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  std::string Str() {
    const std::uint32_t n = U32();
    if (n > payload_.size() - pos_) Fail();
    std::string s(payload_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  bool AtEnd() const { return pos_ == payload_.size(); }

 private:
  void Raw(void* dst, std::size_t n) {
    if (n > payload_.size() - pos_) Fail();
    std::memcpy(dst, payload_.data() + pos_, n);
    pos_ += n;
  }
  [[noreturn]] static void Fail() {
    throw std::runtime_error("MonitorState: truncated payload");
  }

  std::string_view payload_;
  std::size_t pos_ = 0;
};

}  // namespace

MonitorState::MonitorState(MonitorConfig config) : config_(config) {}

void MonitorState::AdvanceDay(int day, const std::vector<bool>& fired,
                              const std::vector<DayPeak>* peaks,
                              std::vector<Alert>* closed) {
  if (last_day_ != kNoDay && day <= last_day_) {
    throw std::logic_error("MonitorState::AdvanceDay: days must increase");
  }
  // A day gap means those days were scored nowhere: nobody fired, so
  // streaks break and cooloffs advance exactly as if the days had been
  // fed explicitly. This keeps the tracker a pure function of the
  // observation sequence however it was chunked into cycles.
  if (last_day_ != kNoDay) {
    const std::vector<bool> nobody(tracking_.size(), false);
    for (int d = last_day_ + 1; d < day; ++d) {
      Step(d, nobody, nullptr, closed);
    }
  }
  Step(day, fired, peaks, closed);
  last_day_ = day;
}

void MonitorState::AdvanceGrid(const ScoreGrid& grid, int day_offset,
                               std::vector<Alert>* closed) {
  for (int d = grid.day_begin(); d < grid.day_end(); ++d) {
    const auto daily = RankUsersOnDay(grid, config_.n_votes, d);
    std::vector<bool> fired(grid.users(), false);
    const int top = std::min<int>(config_.top_positions,
                                  static_cast<int>(daily.size()));
    for (int i = 0; i < top; ++i) fired[daily[i].user_idx] = true;
    std::vector<DayPeak> peaks(grid.users());
    for (int u = 0; u < grid.users(); ++u) {
      for (int a = 0; a < grid.aspects(); ++a) {
        const float s = grid.At(a, u, d);
        if (s > peaks[u].score) peaks[u] = {s, grid.aspect_name(a)};
      }
    }
    AdvanceDay(d + day_offset, fired, &peaks, closed);
  }
}

void MonitorState::Step(int day, const std::vector<bool>& fired,
                        const std::vector<DayPeak>* peaks,
                        std::vector<Alert>* closed) {
  if (fired.size() > tracking_.size()) tracking_.resize(fired.size());
  for (std::size_t u = 0; u < tracking_.size(); ++u) {
    Tracking& t = tracking_[u];
    const bool hit = u < fired.size() && fired[u];
    const DayPeak* peak =
        peaks && u < peaks->size() && (*peaks)[u].score >= 0.0f
            ? &(*peaks)[u]
            : nullptr;
    if (hit) {
      t.quiet = 0;
      ++t.streak;
      if (peak && !t.open && peak->score > t.streak_peak.score) {
        t.streak_peak = {peak->score, day, peak->aspect};
      }
      if (!t.open && t.streak >= config_.persistence_days) {
        t.open = true;
        ACOBE_COUNT("monitor.alerts_opened", 1);
        t.alert = Alert{};
        t.alert.user_idx = static_cast<int>(u);
        t.alert.first_day = day - t.streak + 1;
        t.alert.last_day = day;
        t.alert.firing_days = t.streak;
        if (t.streak_peak.score >= 0.0f) {
          t.alert.peak_score = t.streak_peak.score;
          t.alert.peak_day = t.streak_peak.day;
          t.alert.peak_aspect = -1;  // name is authoritative when incremental
          t.alert.peak_aspect_name = t.streak_peak.aspect;
        }
      } else if (t.open) {
        t.alert.last_day = day;
        ++t.alert.firing_days;
        // Quiet days between this firing and the previous one are now
        // inside the alert's span; their best observation counts.
        if (t.pending_peak.score > t.alert.peak_score) {
          t.alert.peak_score = t.pending_peak.score;
          t.alert.peak_day = t.pending_peak.day;
          t.alert.peak_aspect = -1;
          t.alert.peak_aspect_name = t.pending_peak.aspect;
        }
        t.pending_peak = PeakTrack{};
        if (peak && peak->score > t.alert.peak_score) {
          t.alert.peak_score = peak->score;
          t.alert.peak_day = day;
          t.alert.peak_aspect = -1;
          t.alert.peak_aspect_name = peak->aspect;
        }
      }
    } else {
      t.streak = 0;
      t.streak_peak = PeakTrack{};
      if (t.open) {
        // A quiet day may still end up inside the span if the user
        // fires again before cooloff; buffer its peak until then.
        if (peak && peak->score > t.pending_peak.score) {
          t.pending_peak = {peak->score, day, peak->aspect};
        }
        if (++t.quiet >= config_.cooloff_days) {
          if (closed) closed->push_back(t.alert);
          t = Tracking{};
        }
      }
    }
  }
}

std::vector<Alert> MonitorState::OpenAlerts() const {
  std::vector<Alert> open;
  for (const Tracking& t : tracking_) {
    if (t.open) open.push_back(t.alert);
  }
  return open;
}

void MonitorState::Save(std::ostream& out) const {
  std::string payload;
  PutI32(payload, config_.n_votes);
  PutI32(payload, config_.top_positions);
  PutI32(payload, config_.persistence_days);
  PutI32(payload, config_.cooloff_days);
  PutI32(payload, last_day_ == kNoDay ? -1 : 0);
  PutI32(payload, last_day_ == kNoDay ? 0 : last_day_);
  PutU32(payload, static_cast<std::uint32_t>(tracking_.size()));
  auto put_peak = [&](const PeakTrack& p) {
    PutF32(payload, p.score);
    PutI32(payload, p.day);
    PutStr(payload, p.aspect);
  };
  for (const Tracking& t : tracking_) {
    PutI32(payload, t.streak);
    PutI32(payload, t.quiet);
    PutU32(payload, t.open ? 1 : 0);
    PutI32(payload, t.alert.user_idx);
    PutI32(payload, t.alert.first_day);
    PutI32(payload, t.alert.last_day);
    PutI32(payload, t.alert.firing_days);
    PutI32(payload, t.alert.peak_day);
    PutI32(payload, t.alert.peak_aspect);
    PutF32(payload, t.alert.peak_score);
    PutStr(payload, t.alert.peak_aspect_name);
    put_peak(t.streak_peak);
    put_peak(t.pending_peak);
  }

  std::string header;
  PutU32(header, kMonitorMagic);
  PutU32(header, kMonitorVersion);
  PutU32(header, static_cast<std::uint32_t>(payload.size()));
  const std::uint32_t crc = Crc32(payload);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  if (!out) throw std::runtime_error("MonitorState: write failed");
}

MonitorState MonitorState::Load(std::istream& in) {
  std::uint32_t header[3] = {};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in || header[0] != kMonitorMagic) {
    throw std::runtime_error("MonitorState: bad magic (not a monitor state)");
  }
  if (header[1] != kMonitorVersion) {
    throw std::runtime_error("MonitorState: unsupported version " +
                             std::to_string(header[1]));
  }
  if (header[2] > kMaxPayload) {
    throw std::runtime_error("MonitorState: implausible payload size");
  }
  std::string payload(header[2], '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  std::uint32_t crc = 0;
  in.read(reinterpret_cast<char*>(&crc), sizeof(crc));
  if (!in) throw std::runtime_error("MonitorState: truncated artifact");
  if (Crc32(payload) != crc) {
    throw std::runtime_error("MonitorState: CRC mismatch (corrupt artifact)");
  }

  PayloadReader r(payload);
  MonitorConfig config;
  config.n_votes = r.I32();
  config.top_positions = r.I32();
  config.persistence_days = r.I32();
  config.cooloff_days = r.I32();
  MonitorState state(config);
  const bool no_day = r.I32() == -1;
  const int last_day = r.I32();
  state.last_day_ = no_day ? kNoDay : last_day;
  const std::uint32_t users = r.U32();
  if (users > kMaxPayload / 8) {
    throw std::runtime_error("MonitorState: implausible user count");
  }
  state.tracking_.resize(users);
  auto get_peak = [&](PeakTrack& p) {
    p.score = r.F32();
    p.day = r.I32();
    p.aspect = r.Str();
  };
  for (Tracking& t : state.tracking_) {
    t.streak = r.I32();
    t.quiet = r.I32();
    t.open = r.U32() != 0;
    t.alert.user_idx = r.I32();
    t.alert.first_day = r.I32();
    t.alert.last_day = r.I32();
    t.alert.firing_days = r.I32();
    t.alert.peak_day = r.I32();
    t.alert.peak_aspect = r.I32();
    t.alert.peak_score = r.F32();
    t.alert.peak_aspect_name = r.Str();
    get_peak(t.streak_peak);
    get_peak(t.pending_peak);
  }
  if (!r.AtEnd()) {
    throw std::runtime_error("MonitorState: trailing bytes in payload");
  }
  return state;
}

std::vector<Alert> FindPersistentAlerts(const ScoreGrid& grid,
                                        const MonitorConfig& config) {
  ACOBE_SPAN("monitor.find_alerts");
  MonitorState state(config);
  std::vector<Alert> alerts;

  state.AdvanceGrid(grid, 0, &alerts);
  for (const Alert& open : state.OpenAlerts()) alerts.push_back(open);
  std::sort(alerts.begin(), alerts.end(),
            [](const Alert& a, const Alert& b) {
              return a.first_day < b.first_day;
            });
  // Peak provenance over each alert's span; ties resolve to the
  // earliest day then lowest aspect index, deterministically.
  for (Alert& alert : alerts) {
    alert.peak_day = alert.first_day;
    alert.peak_score = -1.0f;
    for (int a = 0; a < grid.aspects(); ++a) {
      for (int d = alert.first_day; d <= alert.last_day; ++d) {
        const float s = grid.At(a, alert.user_idx, d);
        if (s > alert.peak_score) {
          alert.peak_score = s;
          alert.peak_day = d;
          alert.peak_aspect = a;
        }
      }
    }
    alert.peak_aspect_name = grid.aspect_name(alert.peak_aspect);
  }
  ACOBE_COUNT("monitor.daily_lists", grid.day_end() - grid.day_begin());
  ACOBE_COUNT("monitor.alerts_emitted", alerts.size());
  return alerts;
}

}  // namespace acobe
