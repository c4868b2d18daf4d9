#pragma once

// CSV round-trips for log streams, mirroring the CERT dataset's
// one-file-per-log-type layout (device.csv, file.csv, http.csv, ...).
//
// Reading is policy-driven (common/faults.h): strict mode throws on the
// first malformed row (with file:line context), permissive mode skips
// bad rows under a bounded error budget, quarantine mode additionally
// copies every rejected raw row to a sink. Telemetry:
// logs.rows_read / rows_rejected / rows_quarantined / rows_deduped.
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

#include "common/csv.h"
#include "common/faults.h"
#include "logs/log_store.h"

namespace acobe {

/// Writes one stream as CSV with a header row. Ids are resolved to names
/// through the store's entity tables.
void WriteDeviceCsv(const LogStore& store, std::ostream& out);
void WriteFileCsv(const LogStore& store, std::ostream& out);
void WriteHttpCsv(const LogStore& store, std::ostream& out);
void WriteLogonCsv(const LogStore& store, std::ostream& out);
void WriteLdapCsv(const LogStore& store, std::ostream& out);

/// Enterprise case-study streams (Windows/Sysmon events, proxy logs).
void WriteEnterpriseCsv(const LogStore& store, std::ostream& out);
void WriteProxyCsv(const LogStore& store, std::ostream& out);

/// Reads a stream previously written by the corresponding writer,
/// interning names into `store`'s tables, under `options`' recovery
/// policy. `source` labels the stream in diagnostics ("file:line:
/// reason"). Fully-empty rows (e.g. a trailing blank line) are skipped
/// in every policy. Throws IngestError (a std::invalid_argument) on a
/// malformed row in strict mode, or in any mode once rejected rows
/// exceed the error budget.
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
IngestStats ReadEnterpriseCsv(std::istream& in, LogStore& store,
                              const IngestOptions& options,
                              const std::string& source = "enterprise.csv");
IngestStats ReadProxyCsv(std::istream& in, LogStore& store,
                         const IngestOptions& options,
                         const std::string& source = "proxy.csv");

/// Strict-mode conveniences (legacy signatures). Throw
/// std::invalid_argument on the first malformed row.
void ReadDeviceCsv(std::istream& in, LogStore& store);
void ReadFileCsv(std::istream& in, LogStore& store);
void ReadHttpCsv(std::istream& in, LogStore& store);
void ReadLogonCsv(std::istream& in, LogStore& store);
void ReadLdapCsv(std::istream& in, LogStore& store);
void ReadEnterpriseCsv(std::istream& in, LogStore& store);
void ReadProxyCsv(std::istream& in, LogStore& store);

// --- streaming (out-of-core) ingestion --------------------------------------
//
// The same readers, decoupled from LogStore: names intern into `tables`
// and each parsed event goes straight to `sink` instead of a buffering
// vector. The LogStore overloads above delegate here with the store as
// both catalog and sink — parsing, recovery policy and interning order
// are byte-for-byte shared between the buffered and streaming paths,
// which is what makes the two pipelines bit-identical.
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
IngestStats ReadEnterpriseCsv(std::istream& in, EntityCatalog& tables,
                              LogSink& sink, const IngestOptions& options,
                              const std::string& source = "enterprise.csv");
IngestStats ReadProxyCsv(std::istream& in, EntityCatalog& tables,
                         LogSink& sink, const IngestOptions& options,
                         const std::string& source = "proxy.csv");
/// LDAP rows populate only the catalog (roster + directory), no sink.
IngestStats ReadLdapCsv(std::istream& in, EntityCatalog& tables,
                        const IngestOptions& options,
                        const std::string& source = "ldap.csv");

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

/// A LogSink that renders events as CERT-layout CSV rows the moment
/// they are consumed — the write-side dual of the streaming readers.
/// Lets a generator emit arbitrarily large logs without buffering them:
/// rows land in file order (day order for a day-by-day simulator), and
/// both detection paths re-group by day on read, so file order need not
/// be globally timestamp-sorted. Pass nullptr for streams you do not
/// want; headers are written on first use of each stream. Email,
/// enterprise and proxy events are dropped (no CERT-layout file).
class CsvEventSink : public LogSink {
 public:
  /// `write_headers` false appends rows to streams whose header was
  /// already emitted (sharded generation: shard 0 writes headers, the
  /// rest append).
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

  /// Events written so far, by stream.
  std::size_t rows_written() const { return rows_written_; }

 private:
  struct Stream {
    std::ostream* out = nullptr;
    bool header_written = false;
  };
  /// Emits the header once, then the row. No-op for absent streams.
  void WriteRow(Stream& s, const std::vector<std::string>& header,
                const std::vector<std::string>& row);

  const EntityCatalog& tables_;
  Stream logon_, device_, file_, http_;
  std::size_t rows_written_ = 0;
};

}  // namespace acobe
