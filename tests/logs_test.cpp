// Unit tests for src/logs: entity tables, records, store, CSV I/O, tee.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "logs/entity_table.h"
#include "logs/log_io.h"
#include "logs/log_store.h"
#include "logs/tee_sink.h"

namespace acobe {
namespace {

TEST(EntityTableTest, InternIsIdempotent) {
  EntityTable t;
  const auto a = t.Intern("alice");
  const auto b = t.Intern("bob");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.Intern("alice"), a);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.NameOf(a), "alice");
  EXPECT_EQ(t.NameOf(b), "bob");
}

TEST(EntityTableTest, LookupMissingReturnsInvalid) {
  EntityTable t;
  EXPECT_EQ(t.Lookup("ghost"), kInvalidId);
  t.Intern("real");
  EXPECT_NE(t.Lookup("real"), kInvalidId);
}

TEST(EntityTableTest, NameOfBadIdThrows) {
  EntityTable t;
  EXPECT_THROW(t.NameOf(0), std::out_of_range);
}

TEST(RecordsTest, EnumStringRoundTrips) {
  for (auto a : {LogonActivity::kLogon, LogonActivity::kLogoff}) {
    EXPECT_EQ(LogonActivityFromString(ToString(a)), a);
  }
  for (auto a : {DeviceActivity::kConnect, DeviceActivity::kDisconnect}) {
    EXPECT_EQ(DeviceActivityFromString(ToString(a)), a);
  }
  for (auto a : {FileActivity::kOpen, FileActivity::kWrite,
                 FileActivity::kCopy, FileActivity::kDelete}) {
    EXPECT_EQ(FileActivityFromString(ToString(a)), a);
  }
  for (auto a : {HttpActivity::kVisit, HttpActivity::kDownload,
                 HttpActivity::kUpload}) {
    EXPECT_EQ(HttpActivityFromString(ToString(a)), a);
  }
  for (auto t : {HttpFileType::kNone, HttpFileType::kDoc, HttpFileType::kExe,
                 HttpFileType::kJpg, HttpFileType::kPdf, HttpFileType::kTxt,
                 HttpFileType::kZip}) {
    EXPECT_EQ(HttpFileTypeFromString(ToString(t)), t);
  }
  EXPECT_THROW(LogonActivityFromString("nope"), std::invalid_argument);
  EXPECT_THROW(HttpFileTypeFromString(""), std::invalid_argument);
}

LogStore MakeSampleStore() {
  LogStore store;
  const UserId u = store.users().Intern("JPH1910");
  const PcId pc = store.pcs().Intern("PC-1");
  const FileId f = store.files().Intern("doc,with comma");
  const DomainId d = store.domains().Intern("wikileaks.org");

  store.Add(DeviceEvent{200, u, pc, DeviceActivity::kConnect});
  store.Add(DeviceEvent{100, u, pc, DeviceActivity::kDisconnect});
  store.Add(FileEvent{150, u, pc, FileActivity::kCopy, f, FileLocation::kLocal,
                      FileLocation::kRemote});
  store.Add(HttpEvent{120, u, pc, HttpActivity::kUpload, d, HttpFileType::kDoc});
  store.Add(LogonEvent{90, u, pc, LogonActivity::kLogon});

  LdapRecord ldap;
  ldap.user = u;
  ldap.user_name = "JPH1910";
  ldap.department = "Dept-A";
  ldap.team = "T1";
  ldap.role = "Employee";
  store.AddLdap(std::move(ldap));
  return store;
}

TEST(LogStoreTest, TotalAndSort) {
  LogStore store = MakeSampleStore();
  EXPECT_EQ(store.TotalEvents(), 5u);
  store.SortChronologically();
  EXPECT_EQ(store.devices()[0].activity, DeviceActivity::kDisconnect);
  EXPECT_EQ(store.devices()[1].activity, DeviceActivity::kConnect);
}

TEST(LogStoreTest, DepartmentsAndMembers) {
  LogStore store = MakeSampleStore();
  const auto depts = store.Departments();
  ASSERT_EQ(depts.size(), 1u);
  EXPECT_EQ(depts[0], "Dept-A");
  EXPECT_EQ(store.UsersInDepartment("Dept-A").size(), 1u);
  EXPECT_TRUE(store.UsersInDepartment("Dept-Z").empty());
}

TEST(LogIoTest, DeviceCsvRoundTrip) {
  LogStore store = MakeSampleStore();
  std::stringstream ss;
  CsvEventSink(store, nullptr, &ss, nullptr, nullptr).ConsumeStore(store);
  LogStore loaded;
  ReadDeviceCsv(ss, loaded, IngestOptions{});
  ASSERT_EQ(loaded.devices().size(), 2u);
  EXPECT_EQ(loaded.devices()[0].ts, 200);
  EXPECT_EQ(loaded.users().NameOf(loaded.devices()[0].user), "JPH1910");
  EXPECT_EQ(loaded.devices()[0].activity, DeviceActivity::kConnect);
}

TEST(LogIoTest, FileCsvRoundTripWithQuoting) {
  LogStore store = MakeSampleStore();
  std::stringstream ss;
  CsvEventSink(store, nullptr, nullptr, &ss, nullptr).ConsumeStore(store);
  LogStore loaded;
  ReadFileCsv(ss, loaded, IngestOptions{});
  ASSERT_EQ(loaded.file_events().size(), 1u);
  const FileEvent& e = loaded.file_events()[0];
  EXPECT_EQ(loaded.files().NameOf(e.file), "doc,with comma");
  EXPECT_EQ(e.from, FileLocation::kLocal);
  EXPECT_EQ(e.to, FileLocation::kRemote);
}

TEST(LogIoTest, HttpLogonLdapRoundTrips) {
  LogStore store = MakeSampleStore();
  std::stringstream http, logon, ldap;
  CsvEventSink(store, &logon, nullptr, nullptr, &http).ConsumeStore(store);
  WriteLdapCsv(store, ldap);

  LogStore loaded;
  ReadHttpCsv(http, loaded, IngestOptions{});
  ReadLogonCsv(logon, loaded, IngestOptions{});
  ReadLdapCsv(ldap, loaded, IngestOptions{});
  ASSERT_EQ(loaded.http_events().size(), 1u);
  EXPECT_EQ(loaded.http_events()[0].filetype, HttpFileType::kDoc);
  ASSERT_EQ(loaded.logons().size(), 1u);
  ASSERT_EQ(loaded.ldap().size(), 1u);
  EXPECT_EQ(loaded.ldap()[0].department, "Dept-A");
}

TEST(LogIoTest, MalformedRowThrows) {
  std::stringstream ss("ts,user,pc,activity\n1,alice\n");
  LogStore store;
  EXPECT_THROW(ReadDeviceCsv(ss, store, IngestOptions{}), IngestError);
}

TEST(LogIoTest, CrlfLineEndingsParse) {
  std::stringstream ss(
      "ts,user,pc,activity\r\n"
      "100,alice,pc1,connect\r\n"
      "\r\n"
      "200,bob,pc2,disconnect\r\n");
  LogStore store;
  ReadDeviceCsv(ss, store, IngestOptions{});
  ASSERT_EQ(store.devices().size(), 2u);
  EXPECT_EQ(store.users().NameOf(store.devices()[0].user), "alice");
  EXPECT_EQ(store.pcs().NameOf(store.devices()[1].pc), "pc2");
  EXPECT_EQ(store.devices()[1].activity, DeviceActivity::kDisconnect);
}

TEST(LogIoTest, EmptyStreamYieldsNothing) {
  std::stringstream ss;
  LogStore store;
  ReadDeviceCsv(ss, store, IngestOptions{});
  EXPECT_TRUE(store.devices().empty());
}

// Headers are written when the sink is built, so a stream that sees no
// event is still a valid CSV; a sink built without them appends rows
// only (sharded generation: every shard after the first).
TEST(CsvEventSinkTest, HeadersWithoutEventsAndRowsWithoutHeaders) {
  std::ostringstream logon, device, file, http;
  const EntityCatalog empty{};
  const CsvEventSink headers(empty, &logon, &device, &file, &http);
  EXPECT_EQ(headers.rows_written(), 0u);
  EXPECT_EQ(logon.str(), "ts,user,pc,activity\n");
  EXPECT_EQ(device.str(), "ts,user,pc,activity\n");
  EXPECT_EQ(file.str(), "ts,user,pc,activity,file,from,to\n");
  EXPECT_EQ(http.str(), "ts,user,pc,activity,domain,filetype\n");

  const LogStore store = MakeSampleStore();
  std::ostringstream rows_logon, rows_device, rows_file, rows_http;
  CsvEventSink rows(store, &rows_logon, &rows_device, &rows_file, &rows_http,
                    /*write_headers=*/false);
  rows.ConsumeStore(store);
  EXPECT_EQ(rows.rows_written(), 5u);
  EXPECT_EQ(rows_logon.str(), "90,JPH1910,PC-1,logon\n");
  EXPECT_EQ(rows_device.str(),
            "200,JPH1910,PC-1,connect\n100,JPH1910,PC-1,disconnect\n");
  EXPECT_EQ(rows_file.str(),
            "150,JPH1910,PC-1,copy,\"doc,with comma\",local,remote\n");
  EXPECT_EQ(rows_http.str(), "120,JPH1910,PC-1,upload,wikileaks.org,doc\n");
}

// --- Ingestion policies ------------------------------------------------

// Six data rows: three malformed (bad timestamp, missing field, unknown
// enum), one exact consecutive duplicate, two more good rows.
constexpr const char* kMixedDeviceCsv =
    "ts,user,pc,activity\n"
    "100,alice,pc1,connect\n"
    "bad!ts,bob,pc1,connect\n"
    "200,alice,pc1\n"
    "300,bob,pc2,disconnect\n"
    "300,bob,pc2,disconnect\n"
    "400,carol,pc3,teleport\n"
    "500,dave,pc1,connect\n";

TEST(IngestPolicyTest, StrictThrowsWithFileLineContext) {
  std::stringstream ss(kMixedDeviceCsv);
  LogStore store;
  IngestOptions opts;  // strict by default
  try {
    ReadDeviceCsv(ss, store, opts, "device.csv");
    FAIL() << "expected IngestError";
  } catch (const IngestError& e) {
    EXPECT_EQ(e.file(), "device.csv");
    EXPECT_EQ(e.line(), 3u);  // header is line 1
    EXPECT_NE(std::string(e.what()).find("device.csv:3:"), std::string::npos)
        << e.what();
  }
}

TEST(IngestPolicyTest, PermissiveSkipsBadRowsAndCounts) {
  std::stringstream ss(kMixedDeviceCsv);
  LogStore store;
  IngestOptions opts;
  opts.policy = IngestPolicy::kPermissive;
  opts.error_budget = 1.0;
  const IngestStats stats = ReadDeviceCsv(ss, store, opts, "device.csv");
  EXPECT_EQ(stats.rows_read, 7u);
  EXPECT_EQ(stats.rows_rejected, 3u);
  EXPECT_EQ(stats.rows_quarantined, 0u);
  EXPECT_EQ(stats.rows_deduped, 0u);  // dedupe off: duplicate accepted
  EXPECT_EQ(store.devices().size(), 4u);
  EXPECT_NE(stats.first_error.find("device.csv:3:"), std::string::npos);
  // Entity tables hold only users from accepted rows: validation runs
  // before interning, so a rejected row pollutes nothing.
  EXPECT_EQ(store.users().Lookup("carol"), kInvalidId);
  EXPECT_NE(store.users().Lookup("dave"), kInvalidId);
}

TEST(IngestPolicyTest, DedupeDropsConsecutiveDuplicates) {
  std::stringstream ss(kMixedDeviceCsv);
  LogStore store;
  IngestOptions opts;
  opts.policy = IngestPolicy::kPermissive;
  opts.error_budget = 1.0;
  opts.drop_consecutive_duplicates = true;
  const IngestStats stats = ReadDeviceCsv(ss, store, opts, "device.csv");
  EXPECT_EQ(stats.rows_deduped, 1u);
  EXPECT_EQ(store.devices().size(), 3u);
}

TEST(IngestPolicyTest, QuarantineCapturesRawRows) {
  std::stringstream ss(kMixedDeviceCsv);
  std::ostringstream sink;
  LogStore store;
  IngestOptions opts;
  opts.policy = IngestPolicy::kQuarantine;
  opts.error_budget = 1.0;
  opts.quarantine = &sink;
  const IngestStats stats = ReadDeviceCsv(ss, store, opts, "device.csv");
  EXPECT_EQ(stats.rows_rejected, 3u);
  EXPECT_EQ(stats.rows_quarantined, 3u);
  EXPECT_EQ(sink.str(),
            "bad!ts,bob,pc1,connect\n"
            "200,alice,pc1\n"
            "400,carol,pc3,teleport\n");
}

TEST(IngestPolicyTest, ErrorBudgetAborts) {
  std::stringstream ss(kMixedDeviceCsv);
  LogStore store;
  IngestOptions opts;
  opts.policy = IngestPolicy::kPermissive;
  opts.error_budget = 0.1;
  opts.budget_min_rows = 1;
  try {
    ReadDeviceCsv(ss, store, opts, "device.csv");
    FAIL() << "expected budget abort";
  } catch (const IngestError& e) {
    EXPECT_NE(std::string(e.what()).find("error budget exceeded"),
              std::string::npos)
        << e.what();
  }
}

TEST(IngestPolicyTest, TimestampPlausibilityWindow) {
  std::stringstream ss(
      "ts,user,pc,activity\n"
      "100,alice,pc1,connect\n"
      "99999999999,alice,pc1,connect\n");
  LogStore store;
  IngestOptions opts;
  opts.policy = IngestPolicy::kPermissive;
  opts.error_budget = 1.0;
  opts.ts_min = 0;
  opts.ts_max = 1000;
  const IngestStats stats = ReadDeviceCsv(ss, store, opts, "device.csv");
  EXPECT_EQ(stats.rows_rejected, 1u);
  ASSERT_EQ(store.devices().size(), 1u);
  EXPECT_EQ(store.devices()[0].ts, 100);
  EXPECT_NE(stats.first_error.find("plausibility"), std::string::npos);
}

TEST(IngestPolicyTest, StrayQuoteDamagesOneRowOnly) {
  // A corrupted byte that happens to be '"' must not swallow the rest
  // of the file into one unterminated "row".
  std::stringstream ss(
      "ts,user,pc,activity\n"
      "100,al\"ice,pc1,connect\n"
      "200,bob,pc1,connect\n"
      "300,carol,pc1,disconnect\n");
  LogStore store;
  IngestOptions opts;
  opts.policy = IngestPolicy::kPermissive;
  opts.error_budget = 1.0;
  const IngestStats stats = ReadDeviceCsv(ss, store, opts, "device.csv");
  EXPECT_EQ(stats.rows_read, 3u);
  EXPECT_EQ(stats.rows_rejected, 1u);
  EXPECT_EQ(store.devices().size(), 2u);
}

// --- Chunked parsing -----------------------------------------------------
//
// Tiny chunks make every few bytes a chunk boundary; four workers make
// chunks finish out of order. Line numbers, dedup and ids must still
// come out as one serial pass reports them (the exhaustive sweep lives
// in faults_test).

IngestOptions ChunkedOptions(IngestPolicy policy) {
  IngestOptions opts;
  opts.policy = policy;
  opts.error_budget = 1.0;
  opts.threads = 4;
  return opts;
}

TEST(ChunkedIngestTest, StrictLineNumberCountsEarlierChunks) {
  std::string csv = "ts,user,pc,activity\n";
  for (int i = 0; i < 50; ++i) {
    csv += std::to_string(100 + i) + ",u" + std::to_string(i) +
           ",pc1,connect\n";
  }
  csv += "oops,u0,pc1,connect\n";  // line 52
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{64}}) {
    const detail::ScopedIngestChunkBytes chunking(chunk);
    std::stringstream ss(csv);
    LogStore store;
    try {
      ReadDeviceCsv(ss, store, ChunkedOptions(IngestPolicy::kStrict),
                    "device.csv");
      FAIL() << "expected IngestError";
    } catch (const IngestError& e) {
      EXPECT_EQ(e.line(), 52u);
    }
    EXPECT_EQ(store.devices().size(), 50u);  // every row before the abort
  }
}

TEST(ChunkedIngestTest, DedupSeesAcrossChunkBoundaries) {
  const detail::ScopedIngestChunkBytes chunking(1);  // one line per chunk
  std::stringstream ss(
      "ts,user,pc,activity\n"
      "100,alice,pc1,connect\n"
      "bad,alice,pc1,connect\n"
      "100,alice,pc1,connect\n"
      "100,alice,pc1,connect\n"
      "200,bob,pc2,connect\n");
  LogStore store;
  IngestOptions opts = ChunkedOptions(IngestPolicy::kPermissive);
  opts.drop_consecutive_duplicates = true;
  const IngestStats stats = ReadDeviceCsv(ss, store, opts, "device.csv");
  EXPECT_EQ(stats.rows_read, 5u);
  EXPECT_EQ(stats.rows_rejected, 1u);
  EXPECT_EQ(stats.rows_deduped, 2u);
  EXPECT_EQ(stats.first_error.rfind("device.csv:3:", 0), 0u)
      << stats.first_error;
  EXPECT_EQ(store.devices().size(), 2u);
}

TEST(ChunkedIngestTest, StreamingIdsAndOrderMatchFirstSeen) {
  std::string csv = "ts,user,pc,activity\n";
  for (int i = 0; i < 400; ++i) {
    csv += std::to_string(i) + ",u" + std::to_string(i % 37) + ",pc" +
           std::to_string(i % 11) + ",connect\n";
  }
  const detail::ScopedIngestChunkBytes chunking(64);
  std::stringstream ss(csv);
  EntityCatalog tables;
  LogStore sink;
  ReadDeviceCsv(ss, tables, sink, ChunkedOptions(IngestPolicy::kStrict));
  ASSERT_EQ(sink.devices().size(), 400u);
  ASSERT_EQ(tables.users().size(), 37u);
  for (int i = 0; i < 400; ++i) {
    const DeviceEvent& e = sink.devices()[static_cast<std::size_t>(i)];
    EXPECT_EQ(e.ts, i);
    EXPECT_EQ(e.user, static_cast<UserId>(i % 37));
    EXPECT_EQ(e.pc, static_cast<PcId>(i % 11));
  }
}

// --- Dataset digest folded into the read ---------------------------------

TEST(ChunkedIngestTest, FoldedDigestEqualsARereadOfTheFiles) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ingest_digest";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto write = [&](const char* name, const std::string& bytes) {
    std::ofstream(dir / name, std::ios::binary) << bytes;
  };
  std::string crlf = "ts,user,pc,activity\r\n";
  for (int i = 0; i < 40; ++i) {
    crlf += std::to_string(i) + ",u" + std::to_string(i % 5) + ",pc" +
            std::to_string(i % 3) + ",connect\r\n";
  }
  write("device.csv", crlf);
  write("file.csv",  // no trailing newline
        "ts,user,pc,activity,file,from,to\n"
        "1,u1,pc1,write,a.doc,local,remote\n"
        "2,u2,pc1,open,b.doc,remote,local");
  write("http.csv", "ts,user,pc,activity,domain,filetype\n");  // header only
  write("logon.csv", "");                                      // empty
  // ldap.csv is absent.
  const char* kOrder[] = {"device.csv", "file.csv", "http.csv", "logon.csv",
                          "ldap.csv"};
  std::uint32_t reread = 0;
  for (const char* name : kOrder) {
    std::ifstream in(dir / name, std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in), {}};
    reread = Crc32(bytes, reread);
  }
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  detail::kIngestChunkBytes}) {
    for (const int threads : {1, 4}) {
      const detail::ScopedIngestChunkBytes chunking(chunk);
      IngestOptions opts = ChunkedOptions(IngestPolicy::kStrict);
      opts.threads = threads;
      EntityCatalog tables;
      LogStore sink;
      std::uint32_t folded = 0;
      for (const CertEventCsv& csv : kCertEventCsvs) {
        std::ifstream in(dir / csv.name);
        const IngestStats stats = csv.read(in, tables, sink, opts, csv.name);
        EXPECT_EQ(stats.bytes_read, std::filesystem::file_size(dir / csv.name))
            << csv.name;
        folded = Crc32Combine(folded, stats.bytes_crc, stats.bytes_read);
      }
      EXPECT_EQ(folded, reread) << "chunk " << chunk << " threads " << threads;
      EXPECT_EQ(sink.devices().size(), 40u);
      EXPECT_EQ(sink.file_events().size(), 2u);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(TeeSinkTest, FansOutToAllSinks) {
  LogStore a, b;
  TeeSink tee({&a, &b});
  tee.Consume(LogonEvent{1, 0, 0, LogonActivity::kLogon});
  tee.Consume(ProxyEvent{2, 0, 0, true, 10});
  EXPECT_EQ(a.logons().size(), 1u);
  EXPECT_EQ(b.logons().size(), 1u);
  EXPECT_EQ(a.proxy_events().size(), 1u);
  EXPECT_EQ(b.proxy_events().size(), 1u);
}

}  // namespace
}  // namespace acobe
