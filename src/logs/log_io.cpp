#include "logs/log_io.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <deque>
#include <future>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "logs/spool.h"

namespace acobe {
namespace {

/// Strict integer parse: the whole field must be a decimal integer
/// (optional leading minus), no whitespace, no trailing junk —
/// std::stoll's tolerance for both is how garbage timestamps slip in.
std::int64_t ParseI64(const std::string& s, const char* what) {
  std::int64_t v = 0;
  const char* begin = s.data();
  const char* end = begin + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end || s.empty()) {
    throw std::invalid_argument(std::string(what) + ": bad integer '" + s +
                                "'");
  }
  return v;
}

Timestamp ParseTs(const std::string& s, const IngestOptions& opts) {
  const std::int64_t ts = ParseI64(s, "ts");
  if (ts < opts.ts_min || ts > opts.ts_max) {
    throw std::invalid_argument("ts: timestamp " + s +
                                " outside plausibility window");
  }
  return ts;
}

/// Discards every event: the sink of readers that fill only the catalog.
class DiscardSink : public LogSink {
 public:
  void Consume(const LogonEvent&) override {}
  void Consume(const DeviceEvent&) override {}
  void Consume(const FileEvent&) override {}
  void Consume(const HttpEvent&) override {}
  void Consume(const EmailEvent&) override {}
  void Consume(const EnterpriseEvent&) override {}
  void Consume(const ProxyEvent&) override {}
};

/// A chunk worker's sink: packs events, in order, with chunk-local ids.
class PackingSink : public LogSink {
 public:
  explicit PackingSink(std::vector<PackedEvent>& out) : out_(out) {}
  void Consume(const LogonEvent& e) override { out_.push_back(PackEvent(e)); }
  void Consume(const DeviceEvent& e) override { out_.push_back(PackEvent(e)); }
  void Consume(const FileEvent& e) override { out_.push_back(PackEvent(e)); }
  void Consume(const HttpEvent& e) override { out_.push_back(PackEvent(e)); }
  void Consume(const EmailEvent& e) override { out_.push_back(PackEvent(e)); }
  void Consume(const EnterpriseEvent& e) override {
    out_.push_back(PackEvent(e));
  }
  void Consume(const ProxyEvent& e) override { out_.push_back(PackEvent(e)); }

 private:
  std::vector<PackedEvent>& out_;
};

/// Chunk-local id -> caller id. Local ids number names in the order the
/// chunk first saw them, so interning them in local-id order, as events
/// come due, reproduces the serial pass's first-seen ids exactly.
class IdMap {
 public:
  IdMap(const EntityTable& local, EntityTable& global)
      : local_(local), global_(global) {}
  std::uint32_t operator()(std::uint32_t id) {
    while (ids_.size() <= id) {
      ids_.push_back(global_.Intern(
          local_.NameOf(static_cast<std::uint32_t>(ids_.size()))));
    }
    return ids_[id];
  }

 private:
  const EntityTable& local_;
  EntityTable& global_;
  std::vector<std::uint32_t> ids_;
};

/// Rewrites one chunk's packed events from its local ids to the
/// caller's catalog (interning names as they come due) and hands them
/// to the caller's sink still packed.
class PackedRemap {
 public:
  PackedRemap(const EntityCatalog& local, EntityCatalog& global, LogSink& out)
      : users_(local.users(), global.users()),
        pcs_(local.pcs(), global.pcs()),
        files_(local.files(), global.files()),
        domains_(local.domains(), global.domains()),
        objects_(local.objects(), global.objects()),
        out_(out) {}

  UserId User(UserId id) { return users_(id); }

  /// Remaps the id fields of each record type, as PackEvent lays them
  /// out.
  void Forward(PackedEvent p) {
    p.user = users_(p.user);
    switch (p.type) {
      case kPackedLogon:
      case kPackedDevice:
        p.e1 = pcs_(p.e1);
        break;
      case kPackedFile:
        p.e1 = pcs_(p.e1);
        p.e2 = files_(p.e2);
        break;
      case kPackedHttp:
        p.e1 = pcs_(p.e1);
        p.e2 = domains_(p.e2);
        break;
      case kPackedEnterprise:
        p.e1 = objects_(p.e1);
        break;
      case kPackedProxy:
        p.e1 = domains_(p.e1);
        break;
      default:  // email carries no entity ids
        break;
    }
    out_.ConsumePacked(p);
  }

 private:
  IdMap users_, pcs_, files_, domains_, objects_;
  LogSink& out_;
};

std::atomic<std::size_t> g_chunk_bytes{detail::kIngestChunkBytes};

/// Cuts a stream into blocks of about `bytes`, each ending at a '\n'
/// (only the last may lack one), so no line spans two chunks. A line
/// longer than a block extends its chunk to the line's end.
class ChunkReader {
 public:
  ChunkReader(std::istream& in, std::size_t bytes)
      : in_(in), bytes_(std::max<std::size_t>(bytes, 1)) {}

  /// The next chunk into `out`; false once the stream is exhausted.
  bool Next(std::string& out) {
    out.swap(carry_);
    carry_.clear();
    while (in_) {
      const std::size_t old = out.size();
      out.resize(old + bytes_);
      in_.read(&out[old], static_cast<std::streamsize>(bytes_));
      out.resize(old + static_cast<std::size_t>(in_.gcount()));
      if (!in_) break;  // end of input: the rest is the last chunk
      // `out` held no '\n' before this read (it would have been cut).
      const std::size_t nl = std::string_view(out).substr(old).rfind('\n');
      if (nl != std::string_view::npos) {
        carry_.assign(out, old + nl + 1);
        out.resize(old + nl + 1);
        return true;
      }
    }
    return !out.empty();
  }

  /// True when nothing follows the chunk Next just returned.
  bool exhausted() const { return !in_ && carry_.empty(); }

 private:
  std::istream& in_;
  std::size_t bytes_;
  std::string carry_;
};

/// The per-row rules over every line of `text`: skip blank lines, drop a
/// row identical to the last accepted one (`prev_raw`, updated in
/// place), check structure and field count, then `parse`. Rows advance
/// `counts.rows_read`/`rows_deduped`; `reject(line, raw, reason)` gets
/// each malformed row with its 1-based line within `text`, and
/// `accept(raw)` each parsed one. Returns the number of lines.
template <typename Parse, typename Reject, typename Accept>
std::size_t ScanRows(std::string_view text, std::size_t n_fields, bool dedup,
                     IngestStats& counts, std::string& prev_raw,
                     Parse&& parse, Reject&& reject, Accept&& accept) {
  std::vector<std::string> row;
  std::string raw;
  std::size_t line = 0;
  while (!text.empty()) {
    const std::size_t nl = std::min(text.find('\n'), text.size());
    raw.assign(text.data(), nl);
    text.remove_prefix(std::min(nl + 1, text.size()));
    ++line;
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    if (raw.empty()) continue;  // trailing/blank line
    ++counts.rows_read;
    // Duplicate suppression compares against the last *accepted* row,
    // not the last row seen: a redelivered pair may be separated by the
    // garbled first transmission, and a rejected row must not shield
    // the retransmission that follows it from dedup.
    if (dedup && !prev_raw.empty() && raw == prev_raw) {
      ++counts.rows_deduped;
      continue;
    }
    // Line mode: CERT-layout logs are one record per physical line, so
    // a corrupted byte that happens to be a quote damages one row
    // instead of slurping the rest of the file into it.
    if (SplitCsvLineChecked(raw, row) != CsvRowStatus::kOk) {
      reject(line, raw, "unterminated quoted field (truncated row?)");
      continue;
    }
    if (row.size() != n_fields) {
      reject(line, raw,
             "expected " + std::to_string(n_fields) + " fields, got " +
                 std::to_string(row.size()));
      continue;
    }
    try {
      parse(row);
    } catch (const std::exception& e) {
      reject(line, raw, e.what());
      continue;
    }
    prev_raw = raw;
    accept(raw);
  }
  return line;
}

/// One chunk as a pool worker leaves it: what the serial pass would have
/// done to shared state, recorded in file order for the merge.
struct ParsedChunk {
  struct Reject {
    std::size_t line;       // within the chunk
    std::size_t rows_read;  // chunk rows read up to and including this one
    std::size_t accepted;   // rows accepted before this one
    std::string raw, reason;
  };
  std::string text;  // whole lines; released once parsed
  std::size_t bytes = 0;   // text.size() before the release
  std::uint32_t crc = 0;   // Crc32(text)
  EntityCatalog tables;  // chunk-local ids; LDAP rows land in its directory
  std::vector<PackedEvent> events;  // one per accepted row (not LDAP)
  std::vector<Reject> rejects;
  IngestStats counts;  // rows_read, rows_deduped
  std::size_t lines = 0;
  std::size_t accepted = 0;
  std::string first_accepted, last_accepted;
};

/// Chunks handed to the pool, oldest first. Destruction waits for every
/// task still running: each writes into its chunk and reads the caller's
/// row parser, so the caller must not unwind past them.
struct InFlight {
  std::deque<std::pair<std::future<void>, std::unique_ptr<ParsedChunk>>> q;
  ~InFlight() {
    for (auto& task : q) {
      if (task.first.valid()) task.first.wait();
    }
  }
};

/// The policy-driven reader loop shared by every Read*Csv: header,
/// chunking, per-row parse with recovery, duplicate dropping,
/// quarantine and the bounded error budget, plus the CRC of every byte
/// read. `parse(row, tables, sink)` consumes one well-formed row.
template <typename ParseRow>
IngestStats IngestCsv(std::istream& in, const std::string& source,
                      std::size_t n_fields, const IngestOptions& opts,
                      EntityCatalog& tables, LogSink& sink,
                      ParseRow&& parse) {
  IngestStats stats;
  std::string prev_raw;       // last accepted row: the dedup reference
  std::size_t line_base = 1;  // physical lines before the current chunk
  std::size_t counted_read = 0, counted_deduped = 0;  // in the counters
  auto flush_counters = [&] {
    ACOBE_COUNT("logs.rows_read", stats.rows_read - counted_read);
    ACOBE_COUNT("logs.rows_deduped", stats.rows_deduped - counted_deduped);
    counted_read = stats.rows_read;
    counted_deduped = stats.rows_deduped;
  };
  auto reject = [&](std::size_t line, const std::string& raw,
                    const std::string& reason) {
    flush_counters();
    ++stats.rows_rejected;
    ACOBE_COUNT("logs.rows_rejected", 1);
    ACOBE_COUNT("logs.parse_errors", 1);
    if (stats.first_error.empty()) {
      stats.first_error =
          source + ":" + std::to_string(line) + ": " + reason;
    }
    if (opts.policy == IngestPolicy::kStrict) {
      throw IngestError(source, line, reason);
    }
    if (opts.policy == IngestPolicy::kQuarantine && opts.quarantine) {
      (*opts.quarantine) << raw << '\n';
      ++stats.rows_quarantined;
      ACOBE_COUNT("logs.rows_quarantined", 1);
    }
    if (stats.rows_read >= opts.budget_min_rows &&
        static_cast<double>(stats.rows_rejected) >
            opts.error_budget * static_cast<double>(stats.rows_read)) {
      throw IngestError(
          source, line,
          "error budget exceeded: " + std::to_string(stats.rows_rejected) +
              " of " + std::to_string(stats.rows_read) +
              " rows rejected (budget " + std::to_string(opts.error_budget) +
              ")");
    }
  };

  auto checksum = [&stats](std::string_view bytes) {
    stats.bytes_crc = Crc32(bytes.data(), bytes.size(), stats.bytes_crc);
    stats.bytes_read += bytes.size();
  };
  std::string header;  // the first physical line, whatever it holds
  if (!std::getline(in, header)) return stats;
  checksum(header);
  if (!in.eof()) checksum("\n");  // getline consumed it
  ChunkReader chunks(in, g_chunk_bytes.load(std::memory_order_relaxed));
  std::string text;
  if (!chunks.Next(text)) return stats;
  const int workers = OnWorkerThread() ? 1 : ResolveThreadCount(opts.threads);
  const bool dedup = opts.drop_consecutive_duplicates;

  if (workers == 1 || chunks.exhausted()) {
    // Serial: the caller parses each chunk straight into the catalog
    // and sink, applying the policy row by row.
    do {
      checksum(text);
      const std::size_t lines = ScanRows(
          text, n_fields, dedup, stats, prev_raw,
          [&](const std::vector<std::string>& row) {
            parse(row, tables, sink);
          },
          [&](std::size_t line, const std::string& raw,
              const std::string& reason) {
            reject(line_base + line, raw, reason);
          },
          [](const std::string&) {});
      line_base += lines;
    } while (chunks.Next(text));
    flush_counters();
    return stats;
  }

  // Parallel: workers parse chunks against chunk-local catalogs and
  // record the outcome; the caller merges finished chunks strictly in
  // file order while later chunks parse.
  auto parse_chunk = [&parse, n_fields, dedup](ParsedChunk& c) {
    c.crc = Crc32(c.text);
    PackingSink packer(c.events);
    c.lines = ScanRows(
        c.text, n_fields, dedup, c.counts, c.last_accepted,
        [&](const std::vector<std::string>& row) {
          parse(row, c.tables, packer);
        },
        [&](std::size_t line, const std::string& raw,
            const std::string& reason) {
          c.rejects.push_back(
              {line, c.counts.rows_read, c.accepted, raw, reason});
        },
        [&](const std::string& raw) {
          if (c.accepted++ == 0) c.first_accepted = raw;
        });
    std::string().swap(c.text);
  };
  auto merge = [&](ParsedChunk& c) {
    PackedRemap remap(c.tables, tables, sink);
    // The worker could not see the row accepted before its chunk; the
    // serial pass would have dropped a first accepted row equal to it.
    // Earlier rows of the chunk cannot equal it (a row identical to an
    // accepted row always parses), and past the first accepted row the
    // worker's own dedup reference equals the serial one.
    const bool drop_first =
        dedup && c.accepted > 0 && c.first_accepted == prev_raw;
    std::size_t emitted = drop_first ? 1 : 0;
    auto emit_until = [&](std::size_t k) {
      for (; emitted < k; ++emitted) {
        if (c.events.empty()) {
          LdapRecord r = c.tables.ldap()[emitted];
          r.user = remap.User(r.user);
          tables.AddLdap(std::move(r));
        } else {
          remap.Forward(c.events[emitted]);
        }
      }
    };
    stats.bytes_crc = Crc32Combine(stats.bytes_crc, c.crc, c.bytes);
    stats.bytes_read += c.bytes;
    const std::size_t read_before = stats.rows_read;
    for (const ParsedChunk::Reject& r : c.rejects) {
      emit_until(r.accepted);
      stats.rows_read = read_before + r.rows_read;
      reject(line_base + r.line, r.raw, r.reason);
    }
    emit_until(c.accepted);
    stats.rows_read = read_before + c.counts.rows_read;
    stats.rows_deduped += c.counts.rows_deduped + (drop_first ? 1 : 0);
    if (c.accepted > 0) prev_raw = std::move(c.last_accepted);
    line_base += c.lines;
  };

  ThreadPool& pool = SharedPool(workers);
  // One chunk per worker plus the one being merged: at most
  // (workers + 1) chunks of text or parsed output exist at once.
  const std::size_t max_in_flight = static_cast<std::size_t>(workers) + 1;
  InFlight in_flight;
  auto merge_oldest = [&] {
    in_flight.q.front().first.get();
    const std::unique_ptr<ParsedChunk> c =
        std::move(in_flight.q.front().second);
    in_flight.q.pop_front();
    merge(*c);
  };
  do {
    auto c = std::make_unique<ParsedChunk>();
    c->text = std::move(text);
    c->bytes = c->text.size();
    // Sized by the caller so the event buffer comes from the caller's
    // heap: memory a pool thread allocates stays in that thread's malloc
    // arena after ingest and would add to the run's later peak.
    c->events.reserve(static_cast<std::size_t>(
        std::count(c->text.begin(), c->text.end(), '\n') + 1));
    ParsedChunk* raw = c.get();
    in_flight.q.emplace_back(pool.Submit([raw, &parse_chunk] {
                               parse_chunk(*raw);
                             }),
                             std::move(c));
    if (in_flight.q.size() >= max_in_flight) merge_oldest();
  } while (chunks.Next(text));
  while (!in_flight.q.empty()) merge_oldest();
  flush_counters();
  return stats;
}

}  // namespace

namespace detail {

ScopedIngestChunkBytes::ScopedIngestChunkBytes(std::size_t bytes)
    : previous_(g_chunk_bytes.exchange(bytes)) {}

ScopedIngestChunkBytes::~ScopedIngestChunkBytes() {
  g_chunk_bytes.store(previous_);
}

}  // namespace detail

IngestStats ReadDeviceCsv(std::istream& in, EntityCatalog& tables,
                          LogSink& sink, const IngestOptions& opts,
                          const std::string& source) {
  ACOBE_SPAN2("logs.read", "device");
  return IngestCsv(in, source, 4, opts, tables, sink,
                   [&opts](const std::vector<std::string>& row,
                           EntityCatalog& t, LogSink& s) {
                     DeviceEvent e;
                     e.ts = ParseTs(row[0], opts);
                     e.activity = DeviceActivityFromString(row[3]);
                     e.user = t.users().Intern(row[1]);
                     e.pc = t.pcs().Intern(row[2]);
                     s.Consume(e);
                   });
}

IngestStats ReadFileCsv(std::istream& in, EntityCatalog& tables, LogSink& sink,
                        const IngestOptions& opts, const std::string& source) {
  ACOBE_SPAN2("logs.read", "file");
  return IngestCsv(in, source, 7, opts, tables, sink,
                   [&opts](const std::vector<std::string>& row,
                           EntityCatalog& t, LogSink& s) {
                     FileEvent e;
                     e.ts = ParseTs(row[0], opts);
                     e.activity = FileActivityFromString(row[3]);
                     e.from = FileLocationFromString(row[5]);
                     e.to = FileLocationFromString(row[6]);
                     e.user = t.users().Intern(row[1]);
                     e.pc = t.pcs().Intern(row[2]);
                     e.file = t.files().Intern(row[4]);
                     s.Consume(e);
                   });
}

IngestStats ReadHttpCsv(std::istream& in, EntityCatalog& tables, LogSink& sink,
                        const IngestOptions& opts, const std::string& source) {
  ACOBE_SPAN2("logs.read", "http");
  return IngestCsv(in, source, 6, opts, tables, sink,
                   [&opts](const std::vector<std::string>& row,
                           EntityCatalog& t, LogSink& s) {
                     HttpEvent e;
                     e.ts = ParseTs(row[0], opts);
                     e.activity = HttpActivityFromString(row[3]);
                     e.filetype = HttpFileTypeFromString(row[5]);
                     e.user = t.users().Intern(row[1]);
                     e.pc = t.pcs().Intern(row[2]);
                     e.domain = t.domains().Intern(row[4]);
                     s.Consume(e);
                   });
}

IngestStats ReadLogonCsv(std::istream& in, EntityCatalog& tables,
                         LogSink& sink, const IngestOptions& opts,
                         const std::string& source) {
  ACOBE_SPAN2("logs.read", "logon");
  return IngestCsv(in, source, 4, opts, tables, sink,
                   [&opts](const std::vector<std::string>& row,
                           EntityCatalog& t, LogSink& s) {
                     LogonEvent e;
                     e.ts = ParseTs(row[0], opts);
                     e.activity = LogonActivityFromString(row[3]);
                     e.user = t.users().Intern(row[1]);
                     e.pc = t.pcs().Intern(row[2]);
                     s.Consume(e);
                   });
}

IngestStats ReadLdapCsv(std::istream& in, EntityCatalog& tables,
                        const IngestOptions& opts, const std::string& source) {
  ACOBE_SPAN2("logs.read", "ldap");
  DiscardSink discard;
  return IngestCsv(in, source, 4, opts, tables, discard,
                   [](const std::vector<std::string>& row, EntityCatalog& t,
                      LogSink&) {
                     LdapRecord r;
                     r.user_name = row[0];
                     r.user = t.users().Intern(row[0]);
                     r.department = row[1];
                     r.team = row[2];
                     r.role = row[3];
                     t.AddLdap(std::move(r));
                   });
}

IngestStats ReadDeviceCsv(std::istream& in, LogStore& store,
                          const IngestOptions& opts,
                          const std::string& source) {
  return ReadDeviceCsv(in, store, static_cast<LogSink&>(store), opts, source);
}

IngestStats ReadFileCsv(std::istream& in, LogStore& store,
                        const IngestOptions& opts, const std::string& source) {
  return ReadFileCsv(in, store, static_cast<LogSink&>(store), opts, source);
}

IngestStats ReadHttpCsv(std::istream& in, LogStore& store,
                        const IngestOptions& opts, const std::string& source) {
  return ReadHttpCsv(in, store, static_cast<LogSink&>(store), opts, source);
}

IngestStats ReadLogonCsv(std::istream& in, LogStore& store,
                         const IngestOptions& opts,
                         const std::string& source) {
  return ReadLogonCsv(in, store, static_cast<LogSink&>(store), opts, source);
}

IngestStats ReadLdapCsv(std::istream& in, LogStore& store,
                        const IngestOptions& opts, const std::string& source) {
  return ReadLdapCsv(in, static_cast<EntityCatalog&>(store), opts, source);
}

void WriteLdapCsv(const EntityCatalog& tables, std::ostream& out,
                  bool write_header) {
  CsvWriter w(out);
  if (write_header) w.WriteRow({"user", "department", "team", "role"});
  for (const LdapRecord& r : tables.ldap()) {
    w.WriteRow({r.user_name, r.department, r.team, r.role});
  }
}

CsvEventSink::CsvEventSink(const EntityCatalog& tables, std::ostream* logon,
                           std::ostream* device, std::ostream* file,
                           std::ostream* http, bool write_headers)
    : tables_(tables),
      logon_(logon),
      device_(device),
      file_(file),
      http_(http) {
  if (!write_headers) return;
  if (logon_) CsvWriter(*logon_).WriteRow({"ts", "user", "pc", "activity"});
  if (device_) CsvWriter(*device_).WriteRow({"ts", "user", "pc", "activity"});
  if (file_) {
    CsvWriter(*file_).WriteRow(
        {"ts", "user", "pc", "activity", "file", "from", "to"});
  }
  if (http_) {
    CsvWriter(*http_).WriteRow(
        {"ts", "user", "pc", "activity", "domain", "filetype"});
  }
}

void CsvEventSink::Consume(const LogonEvent& e) {
  if (!logon_) return;
  CsvWriter(*logon_).WriteRow({std::to_string(e.ts),
                               tables_.users().NameOf(e.user),
                               tables_.pcs().NameOf(e.pc),
                               ToString(e.activity)});
  ++rows_written_;
}

void CsvEventSink::Consume(const DeviceEvent& e) {
  if (!device_) return;
  CsvWriter(*device_).WriteRow({std::to_string(e.ts),
                                tables_.users().NameOf(e.user),
                                tables_.pcs().NameOf(e.pc),
                                ToString(e.activity)});
  ++rows_written_;
}

void CsvEventSink::Consume(const FileEvent& e) {
  if (!file_) return;
  CsvWriter(*file_).WriteRow(
      {std::to_string(e.ts), tables_.users().NameOf(e.user),
       tables_.pcs().NameOf(e.pc), ToString(e.activity),
       tables_.files().NameOf(e.file), ToString(e.from), ToString(e.to)});
  ++rows_written_;
}

void CsvEventSink::Consume(const HttpEvent& e) {
  if (!http_) return;
  CsvWriter(*http_).WriteRow(
      {std::to_string(e.ts), tables_.users().NameOf(e.user),
       tables_.pcs().NameOf(e.pc), ToString(e.activity),
       tables_.domains().NameOf(e.domain), ToString(e.filetype)});
  ++rows_written_;
}

void CsvEventSink::ConsumeStore(const LogStore& store) {
  for (const LogonEvent& e : store.logons()) Consume(e);
  for (const DeviceEvent& e : store.devices()) Consume(e);
  for (const FileEvent& e : store.file_events()) Consume(e);
  for (const HttpEvent& e : store.http_events()) Consume(e);
}

}  // namespace acobe
