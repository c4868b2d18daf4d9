// Robustness tests: the deterministic fault injector, fuzz-style
// round-trips of corrupted CSVs through every log reader, redelivery
// recovery (the property the end-to-end smoke leans on), ensemble
// checkpoint/resume crash-safety, and graceful degradation when an
// aspect's training diverges irrecoverably.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "behavior/normalized_day.h"
#include "common/faults.h"
#include "common/rng.h"
#include "core/ensemble.h"
#include "logs/log_io.h"
#include "simdata/fault_injector.h"

namespace acobe {
namespace {

using sim::FaultInjector;
using sim::FaultInjectorConfig;
using sim::FaultReport;

// --- Shared fixtures -----------------------------------------------------

/// A store exercising every CERT stream with unique rows (strictly
/// increasing timestamps), so consecutive-duplicate suppression never
/// touches legitimate data and redelivery recovery can demand exact
/// equality.
LogStore MakeRichStore() {
  LogStore store;
  std::vector<UserId> users;
  for (int i = 0; i < 6; ++i) {
    users.push_back(store.users().Intern("user" + std::to_string(i)));
  }
  std::vector<PcId> pcs;
  for (int i = 0; i < 4; ++i) {
    pcs.push_back(store.pcs().Intern("PC-" + std::to_string(i)));
  }
  const FileId plain = store.files().Intern("report.doc");
  const FileId tricky = store.files().Intern("doc,with comma");
  const DomainId dom = store.domains().Intern("example.org");
  const DomainId dom2 = store.domains().Intern("files.example.net");

  for (int k = 0; k < 60; ++k) {
    const Timestamp ts = 100000 + 37 * k;
    const UserId u = users[k % users.size()];
    const PcId pc = pcs[k % pcs.size()];
    store.Add(DeviceEvent{ts, u, pc,
                          k % 2 ? DeviceActivity::kConnect
                                : DeviceActivity::kDisconnect});
    store.Add(FileEvent{ts + 1, u, pc,
                        static_cast<FileActivity>(k % 4),
                        k % 3 ? plain : tricky, FileLocation::kLocal,
                        k % 5 ? FileLocation::kLocal : FileLocation::kRemote});
    store.Add(HttpEvent{ts + 2, u, pc, static_cast<HttpActivity>(k % 3),
                        k % 2 ? dom : dom2, static_cast<HttpFileType>(k % 4)});
    store.Add(LogonEvent{ts + 3, u, pc,
                         k % 2 ? LogonActivity::kLogon
                               : LogonActivity::kLogoff});
  }
  for (int i = 0; i < 6; ++i) {
    LdapRecord rec;
    rec.user = users[static_cast<std::size_t>(i)];
    rec.user_name = "user" + std::to_string(i);
    rec.department = i < 3 ? "Dept-A" : "Dept-B";
    rec.team = "T" + std::to_string(i % 2);
    rec.role = "Employee";
    store.AddLdap(std::move(rec));
  }
  return store;
}

struct Stream {
  const char* name;
  std::function<void(const LogStore&, std::ostream&)> write;
  std::function<IngestStats(std::istream&, LogStore&, const IngestOptions&)>
      read;
};

/// Each CERT stream with its writer (the store's events of that type
/// through CsvEventSink; the roster through WriteLdapCsv) and reader.
std::vector<Stream> AllStreams() {
  return {
      {"device.csv",
       [](const LogStore& s, std::ostream& out) {
         CsvEventSink(s, nullptr, &out, nullptr, nullptr).ConsumeStore(s);
       },
       [](std::istream& in, LogStore& s, const IngestOptions& o) {
         return ReadDeviceCsv(in, s, o, "device.csv");
       }},
      {"file.csv",
       [](const LogStore& s, std::ostream& out) {
         CsvEventSink(s, nullptr, nullptr, &out, nullptr).ConsumeStore(s);
       },
       [](std::istream& in, LogStore& s, const IngestOptions& o) {
         return ReadFileCsv(in, s, o, "file.csv");
       }},
      {"http.csv",
       [](const LogStore& s, std::ostream& out) {
         CsvEventSink(s, nullptr, nullptr, nullptr, &out).ConsumeStore(s);
       },
       [](std::istream& in, LogStore& s, const IngestOptions& o) {
         return ReadHttpCsv(in, s, o, "http.csv");
       }},
      {"logon.csv",
       [](const LogStore& s, std::ostream& out) {
         CsvEventSink(s, &out, nullptr, nullptr, nullptr).ConsumeStore(s);
       },
       [](std::istream& in, LogStore& s, const IngestOptions& o) {
         return ReadLogonCsv(in, s, o, "logon.csv");
       }},
      {"ldap.csv",
       [](const LogStore& s, std::ostream& out) { WriteLdapCsv(s, out); },
       [](std::istream& in, LogStore& s, const IngestOptions& o) {
         return ReadLdapCsv(in, s, o, "ldap.csv");
       }},
  };
}

std::string Render(const Stream& stream, const LogStore& store) {
  std::ostringstream out;
  stream.write(store, out);
  return out.str();
}

// --- Fault injector ------------------------------------------------------

TEST(FaultInjectorTest, DeterministicAcrossRuns) {
  const LogStore store = MakeRichStore();
  const std::string clean = Render(AllStreams()[0], store);
  FaultInjectorConfig cfg;
  cfg.rate = 0.5;
  cfg.seed = 7;
  const FaultInjector inj(cfg);

  std::string a = clean;
  std::string b = clean;
  const FaultReport ra = inj.Corrupt(a, /*key=*/11);
  const FaultReport rb = inj.Corrupt(b, /*key=*/11);
  EXPECT_GT(ra.rows_corrupted, 0u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ra.rows_corrupted, rb.rows_corrupted);
  EXPECT_EQ(ra.bytes_flipped, rb.bytes_flipped);

  // A different file key draws an independent fault stream.
  std::string c = clean;
  inj.Corrupt(c, /*key=*/12);
  EXPECT_NE(a, c);
}

TEST(FaultInjectorTest, HeaderLineIsNeverTouched) {
  const LogStore store = MakeRichStore();
  const std::string clean = Render(AllStreams()[0], store);
  const std::string header = clean.substr(0, clean.find('\n'));
  FaultInjectorConfig cfg;
  cfg.rate = 1.0;
  const std::string corrupted = FaultInjector(cfg).Corrupted(clean, 1);
  EXPECT_EQ(corrupted.substr(0, corrupted.find('\n')), header);
}

TEST(FaultInjectorTest, RedeliverKeepsEveryOriginalRow) {
  const LogStore store = MakeRichStore();
  const std::string clean = Render(AllStreams()[1], store);
  FaultInjectorConfig cfg;
  cfg.rate = 0.6;
  cfg.redeliver = true;
  const std::string corrupted = FaultInjector(cfg).Corrupted(clean, 3);

  // Every clean line must survive somewhere in the corrupted text: a
  // garbled emission is always followed by a retransmission.
  std::istringstream corrupt_lines(corrupted);
  std::multiset<std::string> have;
  for (std::string line; std::getline(corrupt_lines, line);) {
    have.insert(line);
  }
  std::istringstream clean_lines(clean);
  for (std::string line; std::getline(clean_lines, line);) {
    const auto it = have.find(line);
    ASSERT_NE(it, have.end()) << "lost row: " << line;
    have.erase(it);
  }
}

// --- Fuzz-style round-trips ----------------------------------------------

IngestOptions PermissiveOptions() {
  IngestOptions options;
  options.policy = IngestPolicy::kPermissive;
  options.error_budget = 1.0;
  options.drop_consecutive_duplicates = true;
  return options;
}

/// Corrupted input must never crash a permissive reader, and both the
/// ingest counters and the accepted dataset must be reproducible.
TEST(FuzzRoundTripTest, CorruptedStreamsParseDeterministically) {
  const LogStore store = MakeRichStore();
  struct Variant {
    double rate;
    std::uint64_t seed;
    bool truncate_file;
  };
  const Variant variants[] = {
      {0.05, 1, false}, {0.35, 7, true}, {0.9, 13, false}};

  for (const Stream& stream : AllStreams()) {
    const std::string clean = Render(stream, store);
    for (const Variant& v : variants) {
      FaultInjectorConfig cfg;
      cfg.rate = v.rate;
      cfg.seed = v.seed;
      cfg.truncate_file = v.truncate_file;
      const std::string corrupted =
          FaultInjector(cfg).Corrupted(clean, /*key=*/5);

      auto ingest = [&](IngestStats& stats) {
        LogStore fresh;
        std::istringstream in(corrupted);
        stats = stream.read(in, fresh, PermissiveOptions());
        return Render(stream, fresh);
      };
      IngestStats s1, s2;
      const std::string out1 = ingest(s1);
      const std::string out2 = ingest(s2);
      SCOPED_TRACE(std::string(stream.name) + " rate=" +
                   std::to_string(v.rate));
      EXPECT_EQ(out1, out2);
      EXPECT_EQ(s1.rows_read, s2.rows_read);
      EXPECT_EQ(s1.rows_rejected, s2.rows_rejected);
      EXPECT_EQ(s1.rows_deduped, s2.rows_deduped);
      EXPECT_EQ(s1.first_error, s2.first_error);
    }
  }
}

/// The property the end-to-end corruption test stands on: with
/// redelivery (an at-least-once shipper), permissive ingestion plus
/// consecutive-duplicate suppression recovers the clean stream exactly.
TEST(FuzzRoundTripTest, RedeliveryRecoversCleanStreamExactly) {
  const LogStore store = MakeRichStore();
  FaultInjectorConfig cfg;
  cfg.rate = 0.4;
  cfg.seed = 21;
  cfg.redeliver = true;
  const FaultInjector inj(cfg);

  for (const Stream& stream : AllStreams()) {
    const std::string clean = Render(stream, store);
    const std::string corrupted = inj.Corrupted(clean, /*key=*/9);
    LogStore fresh;
    std::istringstream in(corrupted);
    const IngestStats stats = stream.read(in, fresh, PermissiveOptions());
    SCOPED_TRACE(stream.name);
    EXPECT_GT(stats.rows_rejected + stats.rows_deduped, 0u);
    EXPECT_EQ(Render(stream, fresh), clean);
  }
}

// --- Chunk-boundary equivalence --------------------------------------------
//
// The readers parse newline-aligned chunks on a worker pool and merge
// them in file order. Whatever the chunk size and worker count, every
// observable outcome must equal the single-chunk serial read: stats,
// the error message of a strict or budget abort, quarantine bytes, the
// entity tables and the delivered events (in order, up to an abort).

/// Every table's names in id order, then every stream rendered in
/// delivery order: equal dumps mean equal ids and equal event sequences.
std::string DumpStore(const LogStore& store) {
  std::ostringstream out;
  auto names = [&](const char* what, const EntityTable& table) {
    out << what << ':';
    for (std::uint32_t id = 0; id < table.size(); ++id) {
      out << ' ' << table.NameOf(id);
    }
    out << '\n';
  };
  names("users", store.users());
  names("pcs", store.pcs());
  names("files", store.files());
  names("domains", store.domains());
  for (const Stream& stream : AllStreams()) out << Render(stream, store);
  return out.str();
}

struct IngestOutcome {
  IngestStats stats;
  std::string error;  // IngestError message; empty when the read finished
  std::string quarantine;
  std::string dump;
};

IngestOutcome IngestChunked(const Stream& stream, const std::string& text,
                            IngestOptions opts, std::size_t chunk_bytes,
                            int threads) {
  const detail::ScopedIngestChunkBytes chunking(chunk_bytes);
  std::ostringstream quarantine;
  if (opts.policy == IngestPolicy::kQuarantine) opts.quarantine = &quarantine;
  opts.threads = threads;
  IngestOutcome out;
  LogStore store;
  std::istringstream in(text);
  try {
    out.stats = stream.read(in, store, opts);
  } catch (const IngestError& e) {
    out.error = e.what();
  }
  out.quarantine = quarantine.str();
  out.dump = DumpStore(store);
  return out;
}

struct NamedOptions {
  const char* name;
  IngestOptions options;
};

std::vector<NamedOptions> ChunkPolicies() {
  IngestOptions strict;
  IngestOptions permissive;
  permissive.policy = IngestPolicy::kPermissive;
  permissive.error_budget = 1.0;
  IngestOptions quarantine = permissive;
  quarantine.policy = IngestPolicy::kQuarantine;
  quarantine.drop_consecutive_duplicates = true;
  // Trips part-way through a heavily corrupted file.
  IngestOptions budget = quarantine;
  budget.error_budget = 0.2;
  budget.budget_min_rows = 8;
  return {{"strict", strict},
          {"permissive", permissive},
          {"quarantine+dedup", quarantine},
          {"budget", budget}};
}

void ExpectSameOutcome(const IngestOutcome& got, const IngestOutcome& want) {
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.stats.rows_read, want.stats.rows_read);
  EXPECT_EQ(got.stats.rows_rejected, want.stats.rows_rejected);
  EXPECT_EQ(got.stats.rows_quarantined, want.stats.rows_quarantined);
  EXPECT_EQ(got.stats.rows_deduped, want.stats.rows_deduped);
  EXPECT_EQ(got.stats.first_error, want.stats.first_error);
  EXPECT_EQ(got.quarantine, want.quarantine);
  EXPECT_EQ(got.dump, want.dump);
}

/// Runs `text` through `stream` at chunk sizes 1, 7, 64 bytes and one
/// whole chunk, on 1 and 4 workers, under every policy, and checks each
/// outcome against the single-chunk serial read.
void ExpectChunkingInvariant(const Stream& stream, const std::string& text) {
  for (const NamedOptions& policy : ChunkPolicies()) {
    const IngestOutcome want = IngestChunked(
        stream, text, policy.options, detail::kIngestChunkBytes, 1);
    for (const std::size_t chunk_bytes :
         {std::size_t{1}, std::size_t{7}, std::size_t{64},
          detail::kIngestChunkBytes}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::string(stream.name) + " " + policy.name +
                     " chunk=" + std::to_string(chunk_bytes) +
                     " threads=" + std::to_string(threads));
        ExpectSameOutcome(
            IngestChunked(stream, text, policy.options, chunk_bytes, threads),
            want);
      }
    }
  }
}

TEST(ChunkedIngestTest, FaultInjectedStreamsMatchSerialRead) {
  const LogStore store = MakeRichStore();
  struct Variant {
    double rate;
    std::uint64_t seed;
    bool redeliver;
    bool truncate_file;
  };
  const Variant variants[] = {{0.0, 1, false, false},
                              {0.15, 3, true, false},
                              {0.35, 7, false, true},
                              {0.6, 13, true, false}};
  for (const Stream& stream : AllStreams()) {
    const std::string clean = Render(stream, store);
    for (const Variant& v : variants) {
      FaultInjectorConfig cfg;
      cfg.rate = v.rate;
      cfg.seed = v.seed;
      cfg.redeliver = v.redeliver;
      cfg.truncate_file = v.truncate_file;
      SCOPED_TRACE("rate=" + std::to_string(v.rate));
      ExpectChunkingInvariant(stream,
                              FaultInjector(cfg).Corrupted(clean, /*key=*/3));
    }
  }
}

TEST(ChunkedIngestTest, HandBuiltEdgeCasesMatchSerialRead) {
  const Stream device = AllStreams()[0];
  const Stream ldap = AllStreams()[4];
  const std::string header = "ts,user,pc,activity\n";
  const std::string a = "100,alice,pc1,connect\n";
  const std::string b = "200,bob,pc2,disconnect\n";
  const std::string bad = "2x0,bob,pc2,disconnect\n";
  const std::vector<std::string> device_inputs = {
      "",                                  // empty file
      "ts,user,pc,activity",               // header only, no newline
      header,                              // header only
      header + a + a + a + b + b,          // duplicates straddling chunks
      header + a + bad + a + b + bad + b,  // a reject between duplicates
      header + "\n" + a + "\r\n\n" + a + "\n" + b + "\n",  // blank lines
      "ts,user,pc,activity\r\n100,alice,pc1,connect\r\n"
      "100,alice,pc1,connect\r\n200,bob,pc2,disconnect\r\n",  // CRLF
      header + a + b + "300,carol,pc3,connect",  // no trailing newline
      header + bad + bad + a + "300,al\"ice,pc1,connect\n" + a,
  };
  for (const std::string& text : device_inputs) {
    ExpectChunkingInvariant(device, text);
  }
  ExpectChunkingInvariant(ldap,
                          "user,department,team,role\n"
                          "alice,D1,T1,Employee\n"
                          "alice,D1,T1,Employee\n"
                          "bob,D2\n"
                          "carol,D1,T2,Manager\n"
                          "carol,D1,T2,Manager");
}

// --- Seeded mutation of every reader ---------------------------------------
//
// Each reader gets kMutants seeded mutants of a valid file: byte flips,
// inserts and deletes of the bytes CSV structure hangs on, a damaged
// header line, a line longer than a chunk, and truncation at any byte.
// Read with 64-byte chunks under strict and permissive at 1 and 4
// workers, no mutant may crash a reader (the sanitizer builds check
// memory too) or make it throw anything but IngestError, and each
// policy's outcome must not depend on the worker count.

constexpr int kMutants = 1000;
constexpr std::size_t kMutantChunkBytes = 64;

/// One to three seeded edits of `valid`.
std::string Mutate(const std::string& valid, Rng& rng) {
  static constexpr char kStructural[] = {'\0', '\r', '"', ',', '\n'};
  std::string text = valid;
  const int edits = rng.NextInt(1, 3);
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = rng.NextBounded(text.size() + 1);
    const char c = kStructural[rng.NextBounded(std::size(kStructural))];
    switch (rng.NextBounded(6)) {
      case 0:  // byte flip
        if (pos < text.size()) {
          text[pos] = static_cast<char>(text[pos] ^ (1 + rng.NextBounded(255)));
        }
        break;
      case 1:  // insert a structural byte
        text.insert(pos, 1, c);
        break;
      case 2: {  // delete a structural byte
        const std::size_t at = text.find(c, pos);
        if (at != std::string::npos) text.erase(at, 1);
        break;
      }
      case 3: {  // damage the header line
        const std::size_t header = std::min(text.find('\n'), text.size());
        const std::size_t at = header == 0 ? 0 : rng.NextBounded(header);
        if (rng.NextBounded(2) == 0) {
          text.insert(at, 1, c);
        } else if (at < text.size()) {
          text.erase(at, 1);
        }
        break;
      }
      case 4:  // a line longer than the chunk
        text.insert(pos, kMutantChunkBytes + rng.NextBounded(200),
                    static_cast<char>('a' + rng.NextBounded(26)));
        break;
      default:  // truncation at any byte
        text.resize(pos);
        break;
    }
  }
  return text;
}

TEST(MutationFuzzTest, EveryReaderSurvivesSeededMutants) {
  const LogStore store = MakeRichStore();
  std::vector<NamedOptions> policies = ChunkPolicies();
  policies.resize(2);  // strict, permissive
  for (const Stream& stream : AllStreams()) {
    // The header plus 16 rows: several 64-byte chunks per file.
    const std::string rendered = Render(stream, store);
    std::size_t end = 0;
    for (int line = 0; line < 17 && end < rendered.size(); ++line) {
      end = rendered.find('\n', end) + 1;
    }
    const std::string valid = rendered.substr(0, end);
    Rng rng(Crc32(stream.name));
    for (int m = 0; m < kMutants; ++m) {
      const std::string text = Mutate(valid, rng);
      for (const NamedOptions& policy : policies) {
        SCOPED_TRACE(std::string(stream.name) + " mutant " +
                     std::to_string(m) + " " + policy.name);
        try {
          ExpectSameOutcome(IngestChunked(stream, text, policy.options,
                                          kMutantChunkBytes, 4),
                            IngestChunked(stream, text, policy.options,
                                          kMutantChunkBytes, 1));
        } catch (const std::exception& e) {  // IngestChunked keeps IngestError
          ADD_FAILURE() << "non-IngestError exception: " << e.what();
        }
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// --- WriteFileAtomic durability -------------------------------------------

TEST(WriteFileAtomicTest, SyncsParentDirectoryAfterRename) {
  // The rename itself is only durable once the parent directory's entry
  // is fsync'd; assert the directory sync actually runs (per write)
  // rather than being silently skipped.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "acobe_dirsync";
  std::filesystem::create_directories(dir);
  const std::uint64_t before = DirFsyncCount();
  WriteFileAtomic((dir / "artifact.bin").string(),
                  [](std::ostream& out) { out << "payload"; });
  WriteFileAtomic((dir / "artifact.bin").string(),
                  [](std::ostream& out) { out << "payload2"; });
  EXPECT_GE(DirFsyncCount(), before + 2);
  // And no temporary litter survives a successful replace.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string(), "artifact.bin");
  }
  std::filesystem::remove_all(dir);
}

// --- Ensemble checkpoint / resume ----------------------------------------

const Date kStart(2010, 1, 4);

MeasurementCube ToyCube(int users, int days) {
  MeasurementCube cube(kStart, days, 2, 1);
  Rng rng(51);
  for (int u = 0; u < users; ++u) {
    cube.RegisterUser(100 + u);
    for (int d = 0; d < days; ++d) {
      cube.At(u, 0, d, 0) = static_cast<float>(rng.NextPoisson(5.0));
      cube.At(u, 1, d, 0) = static_cast<float>(rng.NextPoisson(2.0));
    }
  }
  return cube;
}

EnsembleConfig SmallConfig() {
  EnsembleConfig cfg;
  cfg.encoder_dims = {8, 4};
  cfg.train.epochs = 4;
  cfg.seed = 3;
  cfg.threads = 1;
  return cfg;
}

void ExpectGridsBitIdentical(const ScoreGrid& a, const ScoreGrid& b) {
  ASSERT_EQ(a.aspects(), b.aspects());
  ASSERT_EQ(a.users(), b.users());
  ASSERT_EQ(a.day_begin(), b.day_begin());
  ASSERT_EQ(a.day_end(), b.day_end());
  for (int s = 0; s < a.aspects(); ++s) {
    for (int u = 0; u < a.users(); ++u) {
      for (int d = a.day_begin(); d < a.day_end(); ++d) {
        // EXPECT_EQ, not FLOAT_EQ: resume promises bit-identical output.
        EXPECT_EQ(a.At(s, u, d), b.At(s, u, d));
      }
    }
  }
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("acobe_ckpt_" + std::string(::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ScoreGrid TrainAndScore(const EnsembleConfig& cfg) {
    const MeasurementCube cube = ToyCube(5, 30);
    const NormalizedDayBuilder builder(&cube, 0, 20);
    const FeatureCatalog catalog({{"f0", "x", 1.0}, {"f1", "y", 1.0}});
    AspectEnsemble ensemble(catalog.aspects(), cfg);
    ensemble.Train(builder, 5, 0, 20);
    return ensemble.Score(builder, 5, 20, 30);
  }

  std::filesystem::path dir_;
};

TEST_F(CheckpointResumeTest, ResumeReproducesUninterruptedRunBitExactly) {
  EnsembleConfig cfg = SmallConfig();
  cfg.checkpoint_dir = dir_.string();
  const ScoreGrid first = TrainAndScore(cfg);
  ASSERT_TRUE(std::filesystem::exists(dir_ / "aspect_x.ae"));
  ASSERT_TRUE(std::filesystem::exists(dir_ / "aspect_y.ae"));

  cfg.resume = true;
  const ScoreGrid resumed = TrainAndScore(cfg);
  ExpectGridsBitIdentical(first, resumed);
}

TEST_F(CheckpointResumeTest, MissingCheckpointRetrainsToSameResult) {
  EnsembleConfig cfg = SmallConfig();
  cfg.checkpoint_dir = dir_.string();
  const ScoreGrid first = TrainAndScore(cfg);

  // A run killed before aspect "y" finished leaves only aspect "x".
  std::filesystem::remove(dir_ / "aspect_y.ae");
  cfg.resume = true;
  ExpectGridsBitIdentical(first, TrainAndScore(cfg));
}

TEST_F(CheckpointResumeTest, CorruptCheckpointIsDiscardedAndRetrained) {
  EnsembleConfig cfg = SmallConfig();
  cfg.checkpoint_dir = dir_.string();
  const ScoreGrid first = TrainAndScore(cfg);

  // Flip one payload byte; the CRC rejects the file and the aspect is
  // retrained from scratch instead of scoring with silently-wrong
  // weights.
  const std::filesystem::path victim = dir_ / "aspect_x.ae";
  std::string bytes;
  {
    std::ifstream in(victim, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  ASSERT_GT(bytes.size(), 40u);
  bytes[20] ^= 0x20;
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  cfg.resume = true;
  ExpectGridsBitIdentical(first, TrainAndScore(cfg));
}

TEST_F(CheckpointResumeTest, ArchitectureMismatchThrows) {
  EnsembleConfig cfg = SmallConfig();
  cfg.checkpoint_dir = dir_.string();
  TrainAndScore(cfg);

  // The directory belongs to an {8,4} run; resuming a {6,3} run must
  // refuse loudly instead of mixing architectures.
  cfg.encoder_dims = {6, 3};
  cfg.resume = true;
  EXPECT_THROW(TrainAndScore(cfg), CheckpointMismatch);
}

// --- Graceful degradation -------------------------------------------------

/// Feeds NaN for one feature's samples so that aspect's training loss is
/// non-finite on every attempt, while other aspects stay healthy.
class PoisonFeatureBuilder : public SampleBuilder {
 public:
  PoisonFeatureBuilder(const SampleBuilder* inner, int poisoned_feature)
      : inner_(inner), poisoned_feature_(poisoned_feature) {}

  std::vector<float> BuildSample(int user_idx, std::span<const int> features,
                                 int day) const override {
    std::vector<float> sample = inner_->BuildSample(user_idx, features, day);
    for (int f : features) {
      if (f == poisoned_feature_) {
        sample.assign(sample.size(),
                      std::numeric_limits<float>::quiet_NaN());
      }
    }
    return sample;
  }
  std::size_t SampleSize(std::size_t n_features) const override {
    return inner_->SampleSize(n_features);
  }
  int FirstValidDay() const override { return inner_->FirstValidDay(); }
  int EndDay() const override { return inner_->EndDay(); }

 private:
  const SampleBuilder* inner_;
  int poisoned_feature_;
};

TEST(DegradationTest, PoisonedAspectIsDroppedAndRestStillScore) {
  const MeasurementCube cube = ToyCube(5, 30);
  const NormalizedDayBuilder inner(&cube, 0, 20);
  const PoisonFeatureBuilder builder(&inner, /*poisoned_feature=*/1);
  const FeatureCatalog catalog({{"f0", "x", 1.0}, {"f1", "y", 1.0}});

  EnsembleConfig cfg = SmallConfig();
  AspectEnsemble ensemble(catalog.aspects(), cfg);
  ensemble.Train(builder, 5, 0, 20);

  EXPECT_TRUE(ensemble.trained());
  EXPECT_TRUE(ensemble.degraded());
  EXPECT_TRUE(ensemble.aspect_ok(0));
  EXPECT_FALSE(ensemble.aspect_ok(1));
  EXPECT_EQ(ensemble.healthy_aspect_count(), 1);
  EXPECT_EQ(ensemble.failed_aspects(), std::vector<std::string>{"y"});
  // The poisoned aspect spent the whole retry budget; the healthy one
  // converged on its first attempt.
  ASSERT_EQ(ensemble.train_summaries().size(), 2u);
  EXPECT_EQ(ensemble.train_summaries()[1].attempts, 3);
  EXPECT_FALSE(ensemble.train_summaries()[1].ok);
  EXPECT_EQ(ensemble.train_summaries()[0].attempts, 1);
  EXPECT_TRUE(ensemble.train_summaries()[0].ok);

  const ScoreGrid grid = ensemble.Score(builder, 5, 20, 30);
  ASSERT_EQ(grid.aspects(), 1);
  EXPECT_EQ(grid.aspect_name(0), "x");
  for (int u = 0; u < 5; ++u) {
    for (int d = 20; d < 30; ++d) {
      EXPECT_TRUE(std::isfinite(grid.At(0, u, d)));
    }
  }
}

TEST(DegradationTest, EveryAspectDivergedThrows) {
  const MeasurementCube cube = ToyCube(5, 30);
  const NormalizedDayBuilder inner(&cube, 0, 20);
  const PoisonFeatureBuilder poison_y(&inner, /*poisoned_feature=*/1);
  const PoisonFeatureBuilder builder(&poison_y, /*poisoned_feature=*/0);
  const FeatureCatalog catalog({{"f0", "x", 1.0}, {"f1", "y", 1.0}});

  AspectEnsemble ensemble(catalog.aspects(), SmallConfig());
  EXPECT_THROW(ensemble.Train(builder, 5, 0, 20), std::runtime_error);
  EXPECT_FALSE(ensemble.trained());
  for (const AspectTrainSummary& s : ensemble.train_summaries()) {
    EXPECT_EQ(s.attempts, 3) << s.name;
    EXPECT_FALSE(s.ok) << s.name;
  }
}

TEST(DegradationTest, DegradedScoringIsThreadCountInvariant) {
  const MeasurementCube cube = ToyCube(5, 30);
  const NormalizedDayBuilder inner(&cube, 0, 20);
  const PoisonFeatureBuilder builder(&inner, /*poisoned_feature=*/1);
  const FeatureCatalog catalog({{"f0", "x", 1.0}, {"f1", "y", 1.0}});

  auto run = [&](int threads) {
    EnsembleConfig cfg = SmallConfig();
    cfg.threads = threads;
    AspectEnsemble ensemble(catalog.aspects(), cfg);
    ensemble.Train(builder, 5, 0, 20);
    return ensemble.Score(builder, 5, 20, 30);
  };
  ExpectGridsBitIdentical(run(1), run(4));
}

}  // namespace
}  // namespace acobe
