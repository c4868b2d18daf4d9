#pragma once

// The CERT dataset's on-disk layout: one CSV per event type
// (device.csv, file.csv, http.csv, logon.csv) plus the ldap.csv roster.
// It is the only file format the tools read or write.
//
// Writing: CsvEventSink renders the four event streams, whether they
// come straight from a simulator or from a buffered LogStore
// (ConsumeStore); WriteLdapCsv renders the roster.
//
// Reading is policy-driven (common/faults.h): strict mode throws on the
// first malformed row (with file:line context), permissive mode skips
// bad rows under a bounded error budget, quarantine mode additionally
// copies every rejected raw row to a sink. Telemetry:
// logs.rows_read / rows_rejected / rows_quarantined / rows_deduped.
// The catalog/sink readers are the ones the tools use; the LogStore
// overloads buffer into a store for the trace driver and the tests.
//
// Every reader runs one chunked loop: the calling thread cuts the body
// into ~1 MiB newline-aligned chunks, IngestOptions::threads pool
// workers parse them against chunk-local entity tables, and the caller
// merges finished chunks in file order — interning names, delivering
// events (still packed: LogSink::ConsumePacked) and applying the policy
// exactly as one serial pass would. Input shorter than one chunk (or
// threads == 1) parses on the caller. Each worker also CRCs its chunk,
// and the caller folds the CRCs in file order into
// IngestStats::bytes_crc, so a caller can digest its input without
// reading it twice.

#include <cstddef>
#include <iosfwd>
#include <ostream>
#include <string>

#include "common/faults.h"
#include "logs/log_store.h"

namespace acobe {

/// Reads one CERT event stream, interning names into `tables` and
/// handing each parsed event to `sink`, under `options`' recovery
/// policy. `source` labels the stream in diagnostics ("file:line:
/// reason"). Fully-empty rows (e.g. a trailing blank line) are skipped
/// in every policy. Throws IngestError (a std::invalid_argument) on a
/// malformed row in strict mode, or in any mode once rejected rows
/// exceed the error budget.
IngestStats ReadDeviceCsv(std::istream& in, EntityCatalog& tables,
                          LogSink& sink, const IngestOptions& options,
                          const std::string& source = "device.csv");
IngestStats ReadFileCsv(std::istream& in, EntityCatalog& tables, LogSink& sink,
                        const IngestOptions& options,
                        const std::string& source = "file.csv");
IngestStats ReadHttpCsv(std::istream& in, EntityCatalog& tables, LogSink& sink,
                        const IngestOptions& options,
                        const std::string& source = "http.csv");
IngestStats ReadLogonCsv(std::istream& in, EntityCatalog& tables,
                         LogSink& sink, const IngestOptions& options,
                         const std::string& source = "logon.csv");
/// LDAP rows populate only the catalog (roster + directory), no sink.
IngestStats ReadLdapCsv(std::istream& in, EntityCatalog& tables,
                        const IngestOptions& options,
                        const std::string& source = "ldap.csv");

/// The readers above with `store` as both catalog and sink. They stay
/// while perfbench/driver/trace_driver.cpp (its in-memory path) calls
/// them; they go when that driver is retired.
IngestStats ReadDeviceCsv(std::istream& in, LogStore& store,
                          const IngestOptions& options,
                          const std::string& source = "device.csv");
IngestStats ReadFileCsv(std::istream& in, LogStore& store,
                        const IngestOptions& options,
                        const std::string& source = "file.csv");
IngestStats ReadHttpCsv(std::istream& in, LogStore& store,
                        const IngestOptions& options,
                        const std::string& source = "http.csv");
IngestStats ReadLogonCsv(std::istream& in, LogStore& store,
                         const IngestOptions& options,
                         const std::string& source = "logon.csv");
IngestStats ReadLdapCsv(std::istream& in, LogStore& store,
                        const IngestOptions& options,
                        const std::string& source = "ldap.csv");

/// A catalog/sink reader of one CERT event file.
using CertEventReader = IngestStats (*)(std::istream&, EntityCatalog&,
                                        LogSink&, const IngestOptions&,
                                        const std::string&);

struct CertEventCsv {
  const char* name;
  CertEventReader read;
};

/// The CERT event files, in parse order. The order is part of the
/// determinism contract: it fixes entity-interning order, the
/// within-day event order the extractors see, and the order in which
/// per-file CRCs fold into dataset and batch digests.
inline constexpr CertEventCsv kCertEventCsvs[] = {
    {"device.csv", ReadDeviceCsv},
    {"file.csv", ReadFileCsv},
    {"http.csv", ReadHttpCsv},
    {"logon.csv", ReadLogonCsv},
};

namespace detail {

/// Bytes per chunk of the reader loop.
constexpr std::size_t kIngestChunkBytes = std::size_t{1} << 20;

/// Test seam: sets the chunk size of every reader, process-wide, while
/// in scope, so small inputs cross chunk boundaries.
class ScopedIngestChunkBytes {
 public:
  explicit ScopedIngestChunkBytes(std::size_t bytes);
  ~ScopedIngestChunkBytes();
  ScopedIngestChunkBytes(const ScopedIngestChunkBytes&) = delete;
  ScopedIngestChunkBytes& operator=(const ScopedIngestChunkBytes&) = delete;

 private:
  std::size_t previous_;
};

}  // namespace detail

/// Writes the LDAP roster ("user,department,team,role"), preceded by
/// its header when `write_header` is true.
void WriteLdapCsv(const EntityCatalog& tables, std::ostream& out,
                  bool write_header = true);

/// The one event-CSV writer: a LogSink that renders events as
/// CERT-layout rows the moment they are consumed, resolving ids through
/// `tables`. A generator can emit arbitrarily large logs through it
/// without buffering them: rows land in consumption order (day order
/// for a day-by-day simulator), and every reader re-groups by day, so
/// file order need not be globally timestamp-sorted. Pass nullptr for
/// streams you do not want. Email, enterprise and proxy events are
/// dropped (no CERT-layout file).
class CsvEventSink : public LogSink {
 public:
  /// With `write_headers`, each non-null stream gets its header line
  /// here, before any row, so a stream that never sees an event still
  /// holds a valid (header-only) CSV. Without, rows are appended to
  /// streams that already carry one (sharded generation: shard 0 writes
  /// the headers, the rest append).
  CsvEventSink(const EntityCatalog& tables, std::ostream* logon,
               std::ostream* device, std::ostream* file, std::ostream* http,
               bool write_headers = true);

  void Consume(const LogonEvent& e) override;
  void Consume(const DeviceEvent& e) override;
  void Consume(const FileEvent& e) override;
  void Consume(const HttpEvent& e) override;
  void Consume(const EmailEvent&) override {}
  void Consume(const EnterpriseEvent&) override {}
  void Consume(const ProxyEvent&) override {}

  /// Renders the store's four CERT streams, each in stored order.
  void ConsumeStore(const LogStore& store);

  /// Events written so far, over all streams.
  std::size_t rows_written() const { return rows_written_; }

 private:
  const EntityCatalog& tables_;
  std::ostream* logon_;
  std::ostream* device_;
  std::ostream* file_;
  std::ostream* http_;
  std::size_t rows_written_ = 0;
};

}  // namespace acobe
