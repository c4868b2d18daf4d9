#include "logs/spool.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/telemetry.h"
#include "common/trace.h"

namespace acobe {
namespace {

/// Most events one shard's replay cursors read at once, together
/// (1.5 MiB). Replay runs beside other shards' detection
/// (DetectDepartments), so its read buffers add to peak memory, and a
/// shard spilled under a small budget has many runs.
constexpr std::size_t kReplayReadEvents = std::size_t{1} << 16;

/// Read cursor over one day-sorted run, with a bounded refill buffer.
/// Each head's day must stay within the days the run was spilled with
/// and never go backwards; a cursor that sees otherwise throws
/// std::runtime_error, so a damaged timestamp cannot replay an event
/// out of day order.
class RunCursor {
 public:
  RunCursor(std::ifstream& in, std::uint64_t offset, std::uint64_t count,
            std::int64_t first_day, std::int64_t last_day,
            std::size_t buffer_events)
      : in_(in),
        next_offset_(offset),
        remaining_(count),
        buffer_events_(std::max<std::size_t>(buffer_events, 256)),
        head_day_(first_day),
        last_day_(last_day) {
    Refill();
    CheckHead();
  }

  bool empty() const { return pos_ >= buffer_.size() && remaining_ == 0; }
  const PackedEvent& head() const { return buffer_[pos_]; }
  std::int64_t head_day() const { return head_day_; }

  void Advance() {
    if (++pos_ >= buffer_.size()) Refill();
    CheckHead();
  }

 private:
  void CheckHead() {
    if (empty()) return;
    const std::int64_t day = DayOf(buffer_[pos_].ts);
    if (day < head_day_ || day > last_day_) {
      throw std::runtime_error(
          "spool: event out of its run's day order (corrupt spool file?)");
    }
    head_day_ = day;
  }

  void Refill() {
    pos_ = 0;
    buffer_.clear();
    if (remaining_ == 0) return;
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(remaining_, buffer_events_));
    buffer_.resize(n);
    in_.seekg(static_cast<std::streamoff>(next_offset_));
    in_.read(reinterpret_cast<char*>(buffer_.data()),
             static_cast<std::streamsize>(n * sizeof(PackedEvent)));
    if (!in_) {
      throw std::runtime_error("spool: short read (truncated spool file?)");
    }
    next_offset_ += n * sizeof(PackedEvent);
    remaining_ -= n;
  }

  std::ifstream& in_;
  std::uint64_t next_offset_;
  std::uint64_t remaining_;
  std::size_t buffer_events_;
  std::vector<PackedEvent> buffer_;
  std::size_t pos_ = 0;
  std::int64_t head_day_;  // the run's first day until the first head
  std::int64_t last_day_;
};

}  // namespace

ShardSpooler::ShardSpooler(std::string dir, int shards,
                           std::size_t buffer_bytes)
    : dir_(std::move(dir)),
      ts_lo_(std::numeric_limits<Timestamp>::max()),
      ts_hi_(std::numeric_limits<Timestamp>::min()) {
  if (shards <= 0) {
    throw std::invalid_argument("ShardSpooler: shards must be positive");
  }
  std::filesystem::create_directories(dir_);
  files_.resize(static_cast<std::size_t>(shards));
  buffer_events_per_shard_ = std::max<std::size_t>(
      buffer_bytes / sizeof(PackedEvent) / static_cast<std::size_t>(shards),
      1024);
  for (int s = 0; s < shards; ++s) {
    Shard& shard = files_[static_cast<std::size_t>(s)];
    shard.path = dir_ + "/shard-" + std::to_string(s) + ".spool";
    shard.out.open(shard.path, std::ios::binary | std::ios::trunc);
    if (!shard.out) {
      Remove();  // no destructor runs for a half-built spooler
      throw std::runtime_error("ShardSpooler: cannot create " + shard.path);
    }
    // reserve() only maps address space: a buffer's pages become
    // resident as it fills, so the budget bounds RSS, not the
    // reservation.
    shard.buffer.reserve(buffer_events_per_shard_);
  }
}

ShardSpooler::~ShardSpooler() { Remove(); }

void ShardSpooler::AssignUser(UserId user, int shard) {
  if (shard < 0 || shard >= shards()) {
    throw std::out_of_range("ShardSpooler::AssignUser: bad shard");
  }
  if (user >= user_shard_.size()) {
    user_shard_.resize(static_cast<std::size_t>(user) + 1, -1);
  }
  user_shard_[user] = shard;
}

void ShardSpooler::Offer(const PackedEvent& p) {
  ts_lo_ = std::min(ts_lo_, p.ts);
  ts_hi_ = std::max(ts_hi_, p.ts);
  const int shard =
      p.user < user_shard_.size() ? user_shard_[p.user] : -1;
  if (shard < 0) {
    ++events_dropped_;
    return;
  }
  Shard& dst = files_[static_cast<std::size_t>(shard)];
  dst.buffer.push_back(p);
  ++events_spooled_;
  if (dst.buffer.size() >= buffer_events_per_shard_) Spill(dst);
}

void ShardSpooler::Spill(Shard& shard) {
  if (!shard.out.is_open()) {
    throw std::logic_error("ShardSpooler: spool already finished or removed");
  }
  ACOBE_SPAN("spool.spill");
  SortByDay(shard.buffer);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(shard.buffer.size()) * sizeof(PackedEvent);
  shard.out.write(reinterpret_cast<const char*>(shard.buffer.data()),
                  static_cast<std::streamsize>(bytes));
  if (!shard.out) {
    throw std::runtime_error("ShardSpooler: write failed on " + shard.path);
  }
  shard.runs.push_back(SpoolRun{
      shard.bytes_written, static_cast<std::uint64_t>(shard.buffer.size()),
      DayOf(shard.buffer.front().ts), DayOf(shard.buffer.back().ts)});
  shard.bytes_written += bytes;
  shard.buffer.clear();  // keeps the capacity for the next run
  ACOBE_COUNT("spool.runs", 1);
}

void ShardSpooler::Finish() {
  if (finished_) return;
  for (Shard& shard : files_) {
    if (!shard.buffer.empty()) Spill(shard);
    // clear() keeps the capacity; swap frees it, so the write buffers
    // are not resident through detection.
    std::vector<PackedEvent>().swap(shard.buffer);
    shard.out.close();
    if (shard.out.fail()) {
      throw std::runtime_error("ShardSpooler: write failed on " + shard.path);
    }
  }
  finished_ = true;
  ACOBE_GAUGE_SET("spool.events", events_spooled_);
  ACOBE_GAUGE_SET("spool.bytes", bytes_spooled());
}

void ShardSpooler::Remove() {
  for (Shard& shard : files_) {
    if (shard.out.is_open()) shard.out.close();
    std::error_code ec;
    std::filesystem::remove(shard.path, ec);
  }
  // remove() deletes a directory only when empty, which is the right
  // call here: take the spool dir with us if we created the only
  // contents, leave a user-provided dir with other files alone.
  std::error_code ec;
  std::filesystem::remove(dir_, ec);
}

void ShardSpooler::Replay(int shard_idx, LogSink& sink) const {
  if (!finished_) {
    throw std::logic_error("ShardSpooler::Replay: call Finish() first");
  }
  if (shard_idx < 0 || shard_idx >= shards()) {
    throw std::out_of_range("ShardSpooler::Replay: bad shard");
  }
  const Shard& shard = files_[static_cast<std::size_t>(shard_idx)];
  if (shard.runs.empty()) return;
  ACOBE_SPAN("spool.replay");

  std::ifstream in(shard.path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("ShardSpooler::Replay: cannot open " +
                             shard.path);
  }
  // Split one read budget across the runs so replay memory stays
  // bounded no matter how many runs spilled.
  const std::size_t per_run =
      std::min(buffer_events_per_shard_, kReplayReadEvents) /
      shard.runs.size();
  std::vector<RunCursor> cursors;
  cursors.reserve(shard.runs.size());
  for (const SpoolRun& run : shard.runs) {
    cursors.emplace_back(in, run.offset, run.count, run.first_day,
                         run.last_day, per_run);
  }

  // K-way merge keyed (day, run index): day order is what correctness
  // needs; the run-index tiebreak makes replay deterministic. Runs are
  // day-sorted, so each day is emitted run by run: no per-event heap.
  std::size_t replayed = 0;
  for (;;) {
    bool more = false;
    std::int64_t day = std::numeric_limits<std::int64_t>::max();
    for (const RunCursor& cur : cursors) {
      if (cur.empty()) continue;
      more = true;
      day = std::min(day, cur.head_day());
    }
    if (!more) break;
    for (RunCursor& cur : cursors) {
      for (; !cur.empty() && cur.head_day() == day; cur.Advance()) {
        sink.ConsumePacked(cur.head());
        ++replayed;
      }
    }
  }
  ACOBE_COUNT("spool.events_replayed", replayed);
}

void ShardSpooler::Consume(const LogonEvent& e) { Offer(PackEvent(e)); }
void ShardSpooler::Consume(const DeviceEvent& e) { Offer(PackEvent(e)); }
void ShardSpooler::Consume(const FileEvent& e) { Offer(PackEvent(e)); }
void ShardSpooler::Consume(const HttpEvent& e) { Offer(PackEvent(e)); }
void ShardSpooler::Consume(const EmailEvent& e) { Offer(PackEvent(e)); }
void ShardSpooler::Consume(const EnterpriseEvent& e) { Offer(PackEvent(e)); }
void ShardSpooler::Consume(const ProxyEvent& e) { Offer(PackEvent(e)); }
void ShardSpooler::ConsumePacked(const PackedEvent& p) { Offer(p); }

void LogSink::ConsumePacked(const PackedEvent& p) { DeliverPacked(p, *this); }

PackedEvent PackEvent(const LogonEvent& e) {
  PackedEvent p;
  p.ts = e.ts;
  p.user = e.user;
  p.e1 = e.pc;
  p.type = kPackedLogon;
  p.f1 = static_cast<std::uint8_t>(e.activity);
  return p;
}

PackedEvent PackEvent(const DeviceEvent& e) {
  PackedEvent p;
  p.ts = e.ts;
  p.user = e.user;
  p.e1 = e.pc;
  p.type = kPackedDevice;
  p.f1 = static_cast<std::uint8_t>(e.activity);
  return p;
}

PackedEvent PackEvent(const FileEvent& e) {
  PackedEvent p;
  p.ts = e.ts;
  p.user = e.user;
  p.e1 = e.pc;
  p.e2 = e.file;
  p.type = kPackedFile;
  p.f1 = static_cast<std::uint8_t>(e.activity);
  p.f2 = static_cast<std::uint16_t>(static_cast<int>(e.from) |
                                    (static_cast<int>(e.to) << 1));
  return p;
}

PackedEvent PackEvent(const HttpEvent& e) {
  PackedEvent p;
  p.ts = e.ts;
  p.user = e.user;
  p.e1 = e.pc;
  p.e2 = e.domain;
  p.type = kPackedHttp;
  p.f1 = static_cast<std::uint8_t>(e.activity);
  p.f2 = static_cast<std::uint16_t>(e.filetype);
  return p;
}

PackedEvent PackEvent(const EmailEvent& e) {
  PackedEvent p;
  p.ts = e.ts;
  p.user = e.user;
  p.e1 = e.size_bytes;
  p.e2 = (static_cast<std::uint32_t>(e.recipient_count) << 16) |
         e.attachment_count;
  p.type = kPackedEmail;
  p.f1 = e.external ? 1 : 0;
  return p;
}

PackedEvent PackEvent(const EnterpriseEvent& e) {
  PackedEvent p;
  p.ts = e.ts;
  p.user = e.user;
  p.e1 = e.object;
  p.type = kPackedEnterprise;
  p.f1 = static_cast<std::uint8_t>(e.aspect);
  p.f2 = e.event_id;
  return p;
}

PackedEvent PackEvent(const ProxyEvent& e) {
  PackedEvent p;
  p.ts = e.ts;
  p.user = e.user;
  p.e1 = e.domain;
  p.e2 = e.bytes;
  p.f1 = e.success ? 1 : 0;
  p.type = kPackedProxy;
  return p;
}

void DeliverPacked(const PackedEvent& p, LogSink& sink) {
  switch (p.type) {
    case kPackedLogon: {
      LogonEvent e;
      e.ts = p.ts;
      e.user = p.user;
      e.pc = p.e1;
      e.activity = static_cast<LogonActivity>(p.f1);
      sink.Consume(e);
      break;
    }
    case kPackedDevice: {
      DeviceEvent e;
      e.ts = p.ts;
      e.user = p.user;
      e.pc = p.e1;
      e.activity = static_cast<DeviceActivity>(p.f1);
      sink.Consume(e);
      break;
    }
    case kPackedFile: {
      FileEvent e;
      e.ts = p.ts;
      e.user = p.user;
      e.pc = p.e1;
      e.file = p.e2;
      e.activity = static_cast<FileActivity>(p.f1);
      e.from = static_cast<FileLocation>(p.f2 & 1);
      e.to = static_cast<FileLocation>((p.f2 >> 1) & 1);
      sink.Consume(e);
      break;
    }
    case kPackedHttp: {
      HttpEvent e;
      e.ts = p.ts;
      e.user = p.user;
      e.pc = p.e1;
      e.domain = p.e2;
      e.activity = static_cast<HttpActivity>(p.f1);
      e.filetype = static_cast<HttpFileType>(p.f2);
      sink.Consume(e);
      break;
    }
    case kPackedEmail: {
      EmailEvent e;
      e.ts = p.ts;
      e.user = p.user;
      e.size_bytes = p.e1;
      e.recipient_count = static_cast<std::uint16_t>(p.e2 >> 16);
      e.attachment_count = static_cast<std::uint16_t>(p.e2 & 0xffff);
      e.external = p.f1 != 0;
      sink.Consume(e);
      break;
    }
    case kPackedEnterprise: {
      EnterpriseEvent e;
      e.ts = p.ts;
      e.user = p.user;
      e.object = p.e1;
      e.aspect = static_cast<EnterpriseAspect>(p.f1);
      e.event_id = p.f2;
      sink.Consume(e);
      break;
    }
    case kPackedProxy: {
      ProxyEvent e;
      e.ts = p.ts;
      e.user = p.user;
      e.domain = p.e1;
      e.bytes = p.e2;
      e.success = p.f1 != 0;
      sink.Consume(e);
      break;
    }
    default:
      throw std::runtime_error("spool: unknown record type (corrupt spool?)");
  }
}

void SortByDay(std::vector<PackedEvent>& events) {
  // A run or window usually covers a few days, so a counting sort
  // builds the day-order permutation in one pass and applies it in
  // place, with 4 bytes of index per event instead of a second event
  // buffer; a buffer whose day span exceeds its event count takes
  // std::stable_sort.
  const std::size_t n = events.size();
  if (n < 2) return;
  auto by_day = [](const PackedEvent& a, const PackedEvent& b) {
    return DayOf(a.ts) < DayOf(b.ts);
  };
  const auto [lo, hi] =
      std::minmax_element(events.begin(), events.end(), by_day);
  const std::int64_t first = DayOf(lo->ts);
  const std::uint64_t span =
      static_cast<std::uint64_t>(DayOf(hi->ts) - first) + 1;
  if (span > n || n > std::numeric_limits<std::uint32_t>::max()) {
    ACOBE_COUNT("spool.sort_fallbacks", 1);
    std::stable_sort(events.begin(), events.end(), by_day);
    return;
  }
  // next[d]: where the next event of day `first + d` goes.
  std::vector<std::uint32_t> next(static_cast<std::size_t>(span), 0);
  for (const PackedEvent& e : events) ++next[DayOf(e.ts) - first];
  std::uint32_t at = 0;
  for (std::uint32_t& slot : next) at += std::exchange(slot, at);
  // order[k]: the arrival index of the k-th event in day order.
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[next[DayOf(events[i].ts) - first]++] = static_cast<std::uint32_t>(i);
  }
  // Apply the permutation cycle by cycle; a placed slot points at
  // itself.
  for (std::size_t k = 0; k < n; ++k) {
    if (order[k] == k) continue;
    const PackedEvent held = events[k];
    std::size_t dst = k;
    for (;;) {
      const std::size_t src = order[dst];
      order[dst] = static_cast<std::uint32_t>(dst);
      if (src == k) break;
      events[dst] = events[src];
      dst = src;
    }
    events[dst] = held;
  }
}

}  // namespace acobe
