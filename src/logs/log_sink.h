#pragma once

// Consumer interface for generated log records. Simulators write to a
// LogSink; LogStore is the buffering implementation, and streaming
// aggregators can implement it directly to avoid materializing
// multi-million-event datasets.

#include <cstdint>

#include "logs/records.h"

namespace acobe {

/// One event in the packed wire format of the spool files and the
/// service admission queues: 24 bytes, field meaning depends on `type`
/// (PackEvent/DeliverPacked in logs/spool.h).
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

class LogSink {
 public:
  virtual ~LogSink() = default;

  virtual void Consume(const LogonEvent& e) = 0;
  virtual void Consume(const DeviceEvent& e) = 0;
  virtual void Consume(const FileEvent& e) = 0;
  virtual void Consume(const HttpEvent& e) = 0;
  virtual void Consume(const EmailEvent& e) = 0;
  virtual void Consume(const EnterpriseEvent& e) = 0;
  virtual void Consume(const ProxyEvent& e) = 0;

  /// One event already in packed form. The default decodes it and calls
  /// the typed Consume (throwing std::runtime_error on an unknown record
  /// type); sinks that store packed events override it to skip the
  /// decode/re-encode round trip.
  virtual void ConsumePacked(const PackedEvent& p);
};

}  // namespace acobe
