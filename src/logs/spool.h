#pragma once

// Out-of-core event spool: the disk-backed half of the streaming data
// plane.
//
// ShardSpooler is a LogSink that routes events to per-shard spool files
// by user (users map to departments, departments map to shards), so a
// later pass can process one shard's departments at a time with bounded
// memory. Events are packed into fixed 24-byte records and written as
// day-sorted runs: whenever a shard's in-memory buffer fills, it is
// stable-sorted by day and appended to the shard file as one run.
// Replay() k-way-merges a shard's runs back into nondecreasing day
// order — the only ordering the feature extractors require (first-seen
// "new-op" semantics are defined per day, and measurements are exact
// per-event float adds, so within-day order cannot change a cube bit;
// see features/cert_features.h).
//
// The spooler also tracks the min/max timestamp over every event it is
// offered — including events it then drops for lack of a shard
// assignment — because the in-memory pipeline derives the cube's day
// range from all parsed events, and the streaming pipeline must land on
// the identical range.

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/timeframe.h"
#include "logs/log_sink.h"
#include "logs/records.h"

namespace acobe {

/// One fixed-size spooled event. 24 bytes; field meaning depends on
/// `type` (see spool.cpp pack/unpack).
struct PackedEvent {
  std::int64_t ts = 0;
  std::uint32_t user = 0;
  std::uint32_t e1 = 0;
  std::uint32_t e2 = 0;
  std::uint8_t type = 0;
  std::uint8_t f1 = 0;
  std::uint16_t f2 = 0;
};
static_assert(sizeof(PackedEvent) == 24, "spool record layout");

/// Packs one typed event into the spool wire format. The service
/// admission queues (src/service/queue.h) carry the same records the
/// spool files do, so both planes share one encoder.
PackedEvent PackEvent(const LogonEvent& e);
PackedEvent PackEvent(const DeviceEvent& e);
PackedEvent PackEvent(const FileEvent& e);
PackedEvent PackEvent(const HttpEvent& e);
PackedEvent PackEvent(const EmailEvent& e);
PackedEvent PackEvent(const EnterpriseEvent& e);
PackedEvent PackEvent(const ProxyEvent& e);

/// Decodes `p` and delivers the typed event to `sink`. Throws
/// std::runtime_error on an unknown record type (corrupt spool).
void DeliverPacked(const PackedEvent& p, LogSink& sink);

class ShardSpooler : public LogSink {
 public:
  /// Spools under `dir` (created if missing) into `shards` files,
  /// buffering at most `buffer_bytes` of packed events in total before
  /// spilling a sorted run.
  ShardSpooler(std::string dir, int shards, std::size_t buffer_bytes);
  ~ShardSpooler() override;

  /// Routes `user`'s events to `shard`. Events from unassigned users
  /// are dropped (after widening the timestamp range).
  void AssignUser(UserId user, int shard);

  void Consume(const LogonEvent& e) override;
  void Consume(const DeviceEvent& e) override;
  void Consume(const FileEvent& e) override;
  void Consume(const HttpEvent& e) override;
  void Consume(const EmailEvent& e) override;
  void Consume(const EnterpriseEvent& e) override;
  void Consume(const ProxyEvent& e) override;

  /// Flushes every shard's remaining buffer and frees it. Call once,
  /// before Replay.
  void Finish();

  /// Decodes one shard back into typed events, delivered to `sink` in
  /// nondecreasing day order. Requires Finish().
  void Replay(int shard, LogSink& sink) const;

  /// Deletes the spool files (best-effort). Called by the destructor.
  void Remove();

  int shards() const { return static_cast<int>(files_.size()); }
  bool has_events() const { return ts_lo_ <= ts_hi_; }
  Timestamp ts_lo() const { return ts_lo_; }
  Timestamp ts_hi() const { return ts_hi_; }
  std::size_t events_spooled() const { return events_spooled_; }
  std::size_t events_dropped() const { return events_dropped_; }
  /// Total bytes written across all shard files.
  std::uint64_t bytes_spooled() const { return events_spooled_ * sizeof(PackedEvent); }

 private:
  struct SpoolRun {
    std::uint64_t offset = 0;  // bytes into the shard file
    std::uint64_t count = 0;   // records
  };
  struct Shard {
    std::string path;
    std::ofstream out;
    std::vector<PackedEvent> buffer;
    std::vector<SpoolRun> runs;
    std::uint64_t bytes_written = 0;
  };

  /// Records the timestamp, then buffers the packed event (or drops it
  /// when its user has no shard).
  void Offer(const PackedEvent& p);
  void Spill(Shard& shard);

  std::string dir_;
  std::vector<Shard> files_;
  std::vector<int> user_shard_;  // UserId -> shard, -1 unassigned
  std::size_t buffer_events_per_shard_ = 0;
  bool finished_ = false;
  Timestamp ts_lo_;
  Timestamp ts_hi_;
  std::size_t events_spooled_ = 0;
  std::size_t events_dropped_ = 0;
};

}  // namespace acobe
