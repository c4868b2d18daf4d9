#pragma once

// Out-of-core event spool: the disk-backed half of the streaming data
// plane.
//
// ShardSpooler is a LogSink that routes events to per-shard spool files
// by user (users map to departments, departments map to shards), so a
// later pass can process one shard's departments at a time with bounded
// memory. Events are packed into fixed 24-byte records and written as
// day-sorted runs. Each shard fills its own buffer (the budget split
// evenly across shards); when a buffer fills, the Consume call that
// filled it sorts it by day (SortByDay), appends it to the shard file
// as one run and clears it, so resident packed events never exceed the
// budget. Replay() k-way-merges a shard's runs back into nondecreasing
// day order — the only ordering the feature extractors require
// (first-seen "new-op" semantics are defined per day, and measurements
// are exact per-event float adds, so within-day order cannot change a
// cube bit; see features/cert_features.h).
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

/// PackedEvent::type tags.
enum PackedType : std::uint8_t {
  kPackedLogon = 0,
  kPackedDevice = 1,
  kPackedFile = 2,
  kPackedHttp = 3,
  kPackedEmail = 4,
  kPackedEnterprise = 5,
  kPackedProxy = 6,
};

/// Packs one typed event into the spool wire format. The service's
/// shard windows (src/service/supervisor.cpp) hold the same records the
/// spool files do, so both planes share one encoder.
PackedEvent PackEvent(const LogonEvent& e);
PackedEvent PackEvent(const DeviceEvent& e);
PackedEvent PackEvent(const FileEvent& e);
PackedEvent PackEvent(const HttpEvent& e);
PackedEvent PackEvent(const EmailEvent& e);
PackedEvent PackEvent(const EnterpriseEvent& e);
PackedEvent PackEvent(const ProxyEvent& e);

/// Decodes `p` and delivers the typed event to `sink` (the default
/// LogSink::ConsumePacked). Throws std::runtime_error on an unknown
/// record type (corrupt spool).
void DeliverPacked(const PackedEvent& p, LogSink& sink);

/// Sorts `events` by day (DayOf(ts)), stably: same-day events keep
/// their order. The spool's runs and the service's shard windows are
/// both put in day order by this one sort.
void SortByDay(std::vector<PackedEvent>& events);

class ShardSpooler : public LogSink {
 public:
  /// Spools under `dir` (created if missing) into `shards` files,
  /// buffering at most `buffer_bytes` of packed events in total (at
  /// least 1024 events per shard).
  ShardSpooler(std::string dir, int shards, std::size_t buffer_bytes);
  ~ShardSpooler() override;
  // Owns its spool files, which Remove() deletes.
  ShardSpooler(const ShardSpooler&) = delete;
  ShardSpooler& operator=(const ShardSpooler&) = delete;

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
  void ConsumePacked(const PackedEvent& p) override;

  /// Writes every shard's remaining buffer as a run, frees the buffers
  /// and closes the files. Call once, before Replay. Throws
  /// std::runtime_error when a run could not be written; a failed spill
  /// also throws from the Consume call whose event filled the buffer.
  void Finish();

  /// Decodes one shard back into typed events, delivered to `sink` in
  /// nondecreasing day order. Requires Finish(). Throws
  /// std::runtime_error on a short read, an unknown record type, or a
  /// record whose day is out of its run's order or day range.
  void Replay(int shard, LogSink& sink) const;

  /// Closes and deletes the spool files (best-effort). Idempotent;
  /// called by the destructor.
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
    // DayOf its first and last record; Replay checks every record
    // against them.
    std::int64_t first_day = 0;
    std::int64_t last_day = 0;
  };
  struct Shard {
    std::string path;
    std::vector<PackedEvent> buffer;
    std::ofstream out;           // open until Finish() or Remove()
    std::vector<SpoolRun> runs;  // in file order
    std::uint64_t bytes_written = 0;
  };

  /// Records the timestamp, then buffers the packed event (or drops it
  /// when its user has no shard), spilling the buffer once it is full.
  void Offer(const PackedEvent& p);
  /// Sorts `shard`'s buffer by day, appends it to the file as one run
  /// and clears it. Throws std::logic_error once the file is closed.
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
