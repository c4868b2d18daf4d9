#pragma once

// Out-of-core event spool: the disk-backed half of the streaming data
// plane.
//
// ShardSpooler is a LogSink that routes events to per-shard spool files
// by user (users map to departments, departments map to shards), so a
// later pass can process one shard's departments at a time with bounded
// memory. Events are packed into fixed 24-byte records and written as
// day-sorted runs. Each shard fills its own buffer (the budget split
// evenly across shards); a full buffer is handed to one writer thread,
// which orders it by day and appends it to the shard file as one run
// while the caller keeps ingesting. The caller continues into a spare
// buffer that the writer returns once the run is written, so resident
// packed events never exceed the budget plus that one spare, and no
// spill allocates after the first few. Replay() k-way-merges a shard's
// runs back into nondecreasing day order — the only ordering the
// feature extractors require (first-seen "new-op" semantics are
// defined per day, and measurements are exact per-event float adds, so
// within-day order cannot change a cube bit; see
// features/cert_features.h).
//
// The spooler also tracks the min/max timestamp over every event it is
// offered — including events it then drops for lack of a shard
// assignment — because the in-memory pipeline derives the cube's day
// range from all parsed events, and the streaming pipeline must land on
// the identical range.

#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
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

/// Decodes `p` and delivers the typed event to `sink` (the default
/// LogSink::ConsumePacked). Throws std::runtime_error on an unknown
/// record type (corrupt spool).
void DeliverPacked(const PackedEvent& p, LogSink& sink);

class ShardSpooler : public LogSink {
 public:
  /// Spools under `dir` (created if missing) into `shards` files,
  /// buffering at most `buffer_bytes` of packed events in total (at
  /// least 1024 events per shard), plus the writer's one spare buffer.
  ShardSpooler(std::string dir, int shards, std::size_t buffer_bytes);
  ~ShardSpooler() override;
  // The writer thread holds `this`.
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

  /// Writes every shard's remaining buffer, stops the writer and frees
  /// the buffers. Call once, before Replay. Throws std::runtime_error
  /// when a run could not be written; a failed spill also throws from
  /// the Consume call that hands over the next full buffer.
  void Finish();

  /// Decodes one shard back into typed events, delivered to `sink` in
  /// nondecreasing day order. Requires Finish().
  void Replay(int shard, LogSink& sink) const;

  /// Stops the writer (letting a run in flight finish), then deletes
  /// the spool files (best-effort). Called by the destructor.
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
    std::vector<PackedEvent> buffer;  // the caller's
    // The writer's from construction until Finish() stops it.
    std::ofstream out;
    std::vector<SpoolRun> runs;  // in submission order
    std::uint64_t bytes_written = 0;
  };

  /// Records the timestamp, then buffers the packed event (or drops it
  /// when its user has no shard).
  void Offer(const PackedEvent& p);
  /// Waits for the writer to return the spare, then swaps it for
  /// `shard`'s full buffer and queues that as the next run. Throws the
  /// writer's first error.
  void HandOff(std::size_t shard);
  /// The writer thread: one queued run at a time, until StopWriter().
  void WriterLoop();
  /// Sets the stop flag and joins the writer once it has written the
  /// run it holds. Idempotent.
  void StopWriter();

  std::string dir_;
  std::vector<Shard> files_;
  std::vector<int> user_shard_;  // UserId -> shard, -1 unassigned
  std::size_t buffer_events_per_shard_ = 0;
  bool finished_ = false;
  Timestamp ts_lo_;
  Timestamp ts_hi_;
  std::size_t events_spooled_ = 0;
  std::size_t events_dropped_ = 0;

  // Caller <-> writer hand-off, guarded by mu_. While `queued_` is
  // false, `run_` is the empty spare; while true, it is the run the
  // writer owns (and touches outside the lock) until it clears the flag.
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<PackedEvent> run_;
  std::size_t run_shard_ = 0;
  bool queued_ = false;
  bool stop_ = false;
  std::string error_;  // the first failed write, empty while none
  std::thread writer_;
};

}  // namespace acobe
