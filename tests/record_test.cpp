// The framed record codec (common/record.h) and the four formats built
// on it: autoencoder, ensemble, monitor snapshot and service journal.
// One table drives the corruption cases over every format: truncation
// at every length, a flip of every byte, seeded payload mutations
// re-framed with a valid CRC (so they reach the field decoders), the
// header of each format's previous version, and a CRC-valid record with
// a huge value in each count field. Every case must either load or
// throw the format's codec error; anything else (another exception
// type, a crash, an ASan report) fails.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/faults.h"
#include "common/record.h"
#include "common/rng.h"
#include "core/ensemble_io.h"
#include "core/monitor.h"
#include "nn/serialize.h"
#include "service/journal.h"

using namespace acobe;

namespace {

constexpr std::size_t kHeaderBytes = 16;

std::string U32Bytes(std::uint32_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}
std::string U64Bytes(std::uint64_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::string Frame(std::string_view tag, std::uint32_t version,
                  std::string_view payload) {
  std::ostringstream out;
  WriteRecord(out, tag, version, payload);
  return out.str();
}

std::string PayloadOf(const std::string& record) {
  return record.substr(kHeaderBytes, record.size() - kHeaderBytes - 4);
}

/// `payload` framed with the tag and version of `record`, valid CRC.
std::string Reframe(const std::string& record, std::string_view payload) {
  std::uint32_t version = 0;
  std::memcpy(&version, record.data() + 4, sizeof(version));
  return Frame(std::string_view(record).substr(0, 4), version, payload);
}

// --- Codec ------------------------------------------------------------------

TEST(RecordCodecTest, FieldsRoundTrip) {
  RecordWriter w;
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefull);
  w.I32(-7);
  w.I64(std::numeric_limits<std::int64_t>::min());
  w.F32(-0.5f);
  w.Count(3);
  w.Str(std::string("a\0b", 3));
  const float floats[] = {1.0f, -2.5f};
  w.Floats(floats);
  const std::string record = Frame("TEST", 9, w.payload());

  std::istringstream in(record);
  const std::string payload = ReadRecord(in, "TEST", 9, "test");
  EXPECT_EQ(payload, w.payload());
  RecordReader r(payload, "test");
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.I32(), -7);
  EXPECT_EQ(r.I64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r.F32(), -0.5f);
  EXPECT_EQ(r.Count(1, "item"), 3u);
  EXPECT_EQ(r.Str(), std::string("a\0b", 3));
  float back[2] = {};
  r.Floats(back);
  EXPECT_EQ(back[0], 1.0f);
  EXPECT_EQ(back[1], -2.5f);
  r.ExpectEnd();
}

// Returns the RecordError message `fn` throws ("" when it does not).
template <typename Fn>
std::string RecordFailure(Fn&& fn) {
  try {
    fn();
  } catch (const RecordError& e) {
    return e.what();
  }
  return "";
}

TEST(RecordCodecTest, ReaderRejectsOverrunsCountsAndTrailingBytes) {
  RecordWriter w;
  w.Count(5);  // five 4-byte items claimed, two present
  w.U32(1);
  w.U32(2);
  const std::string payload = w.payload();

  RecordReader counts(payload, "fmt");
  EXPECT_EQ(RecordFailure([&] { counts.Count(4, "widget"); }),
            "fmt: implausible widget count 5 (8 bytes left)");

  RecordReader overrun(payload, "fmt");
  EXPECT_EQ(overrun.Count(1, "byte"), 5u);
  overrun.U64();
  EXPECT_EQ(RecordFailure([&] { overrun.U32(); }), "fmt: truncated payload");

  RecordReader trailing(payload, "fmt");
  trailing.U32();
  EXPECT_EQ(RecordFailure([&] { trailing.ExpectEnd(); }),
            "fmt: trailing bytes in payload");

  RecordWriter s;
  s.U32(100);  // string length past the end
  RecordReader str(s.payload(), "fmt");
  EXPECT_EQ(RecordFailure([&] { str.Str(); }), "fmt: truncated string");
}

TEST(RecordCodecTest, FrameRejectsTagVersionSizeAndChecksum) {
  const std::string good = Frame("TEST", 2, "payload");
  auto read = [](const std::string& bytes) {
    return RecordFailure([&] {
      std::istringstream in(bytes);
      ReadRecord(in, "TEST", 2, "fmt");
    });
  };
  EXPECT_EQ(read(good), "");
  EXPECT_EQ(read(Frame("TSET", 2, "payload")), "fmt: bad magic");
  EXPECT_EQ(read(Frame("TEST", 1, "payload")),
            "fmt: unsupported version 1 (expected 2)");
  EXPECT_EQ(read(""), "fmt: bad magic");
  EXPECT_EQ(read(good.substr(0, 10)), "fmt: truncated header");

  // A size beyond the cap is refused before reading; one beyond the file
  // fails as truncation without sizing a buffer from the header.
  std::string huge = good;
  const std::uint64_t over = kMaxRecordPayload + 1;
  std::memcpy(huge.data() + 8, &over, sizeof(over));
  EXPECT_EQ(read(huge), "fmt: implausible payload size");
  std::string long_size = good;
  const std::uint64_t cap = kMaxRecordPayload;
  std::memcpy(long_size.data() + 8, &cap, sizeof(cap));
  EXPECT_EQ(read(long_size), "fmt: truncated payload");

  std::string flipped = good;
  flipped[kHeaderBytes] ^= 0x01;
  EXPECT_EQ(read(flipped), "fmt: checksum mismatch (corrupt artifact)");
  EXPECT_EQ(read(good.substr(0, good.size() - 1)), "fmt: truncated checksum");
}

// --- The four formats -------------------------------------------------------

class TempDir {
 public:
  TempDir()
      : path_(std::filesystem::temp_directory_path() /
              ("acobe_record_test_" + std::to_string(::getpid()))) {
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

const TempDir& Scratch() {
  static const TempDir dir;
  return dir;
}

nn::Sequential TinyModel(const nn::AutoencoderSpec& spec, std::uint64_t seed) {
  nn::Sequential net = nn::BuildAutoencoder(spec);
  Rng rng(seed);
  net.InitParams(rng);
  return net;
}

nn::AutoencoderSpec TinySpec(std::size_t input_dim, bool batch_norm) {
  nn::AutoencoderSpec spec;
  spec.input_dim = input_dim;
  spec.encoder_dims = {3, 2};
  spec.batch_norm = batch_norm;
  return spec;
}

std::string AutoencoderSample() {
  const nn::AutoencoderSpec spec = TinySpec(3, /*batch_norm=*/true);
  nn::Sequential net = TinyModel(spec, 25);
  std::ostringstream out;
  nn::SaveAutoencoder(spec, net, out);
  return out.str();
}

std::string EnsembleSample() {
  std::vector<AspectGroup> groups = {{"x", {0}}, {"y", {1, 0}}};
  std::vector<nn::AutoencoderSpec> specs = {TinySpec(1, false),
                                            TinySpec(2, false)};
  std::vector<nn::Sequential> models;
  models.push_back(TinyModel(specs[0], 1));
  models.push_back(TinyModel(specs[1], 2));
  AspectEnsemble ensemble = AspectEnsemble::FromTrainedModels(
      std::move(groups), EnsembleConfig{}, std::move(models), std::move(specs));
  std::ostringstream out;
  SaveEnsemble(ensemble, out);
  return out.str();
}

std::string MonitorSample() {
  MonitorConfig cfg;
  cfg.top_positions = 1;
  cfg.persistence_days = 2;
  MonitorState st(cfg);
  std::vector<Alert> closed;
  const std::vector<DayPeak> peaks = {{0.9f, "logon"}, {0.2f, "file"}};
  for (int d = 0; d < 4; ++d) {
    st.AdvanceDay(d, {d != 1, d == 1}, &peaks, &closed);
  }
  std::ostringstream out;
  st.Save(out);
  return out.str();
}

JournalState SampleJournalState() {
  JournalState s;
  s.config_fingerprint = 0xfeedface;
  s.cycle = 7;
  s.alerts_bytes = 123;
  s.alerts_count = 3;
  s.ledger_bytes = 4567;
  s.last_scored_day = 14975;
  s.batches.push_back(BatchRecord{"b001", 0xabcd, 14950, 14960});
  s.batches.push_back(BatchRecord{"b002-empty", 0x1234, 0, -1});
  s.shards.push_back(ShardRecord{false, 0});
  s.shards.push_back(ShardRecord{true, 4});
  s.monitors.emplace_back("Engineering", MonitorSample());
  s.monitors.emplace_back("Sales", "");
  return s;
}

std::string JournalSample() {
  const std::string path = Scratch().file("sample.journal");
  SaveJournal(path, SampleJournalState());
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Each loader returns "" when `bytes` load and the codec error's message
// when they are rejected. Any other exception escapes and fails the test.
std::string LoadAutoencoderBytes(const std::string& bytes) {
  return RecordFailure([&] {
    std::istringstream in(bytes);
    nn::AutoencoderSpec spec;
    nn::LoadAutoencoder(in, spec);
  });
}

std::string LoadEnsembleBytes(const std::string& bytes) {
  return RecordFailure([&] {
    std::istringstream in(bytes);
    LoadEnsemble(in);
  });
}

std::string LoadMonitorBytes(const std::string& bytes) {
  return RecordFailure([&] {
    std::istringstream in(bytes);
    MonitorState::Load(in);
  });
}

std::string LoadJournalBytes(const std::string& bytes) {
  const std::string path = Scratch().file("probe.journal");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  try {
    LoadJournal(path);
  } catch (const JournalError& e) {
    return e.what();
  }
  return "";
}

/// Previous versions' frames: the autoencoder and ensemble used a bare u32
/// magic, u32 size and u32 CRC ahead of the payload; the monitor a u32
/// magic ("ACMS" as an integer), version 1 and a u32 size; the journal
/// "ACJL", version 1 and a u64 size, both with the CRC trailing.
std::string LegacyMagicFrame(std::uint32_t magic, const std::string& payload) {
  const auto size = static_cast<std::uint32_t>(payload.size());
  return U32Bytes(magic) + U32Bytes(size) + U32Bytes(Crc32(payload)) + payload;
}

struct Format {
  const char* name;
  std::function<std::string()> sample;
  std::function<std::string(const std::string&)> load;
  std::function<std::string(const std::string& payload)> legacy_frame;
  const char* legacy_error;
  /// Payloads that stop at a count field holding 2^31, one per field.
  std::vector<std::pair<const char*, std::string>> huge_counts;
};

std::string WithHugeCount(RecordWriter w) {
  w.U32(1u << 31);
  return w.payload();
}

RecordWriter AutoencoderPrefix() {
  RecordWriter w;
  w.U32(3);  // input dim
  return w;
}

std::vector<Format> Formats() {
  std::vector<Format> formats;

  formats.push_back({"autoencoder", AutoencoderSample, LoadAutoencoderBytes,
                     [](const std::string& p) {
                       return LegacyMagicFrame(0xAC0BE101u, p);
                     },
                     "bad magic",
                     {{"encoder depth", WithHugeCount(AutoencoderPrefix())}}});

  RecordWriter one_aspect;
  one_aspect.Count(1);
  one_aspect.Str("x");
  formats.push_back({"ensemble", EnsembleSample, LoadEnsembleBytes,
                     [](const std::string& p) {
                       return LegacyMagicFrame(0xAC0BE003u, p);
                     },
                     "bad magic",
                     {{"aspect", WithHugeCount(RecordWriter{})},
                      {"feature", WithHugeCount(one_aspect)}}});

  RecordWriter monitor_head;
  for (int i = 0; i < 6; ++i) monitor_head.I32(0);
  formats.push_back({"monitor", MonitorSample, LoadMonitorBytes,
                     [](const std::string& p) {
                       return U32Bytes(0x41434d53u) + U32Bytes(1) +
                              U32Bytes(static_cast<std::uint32_t>(p.size())) +
                              p + U32Bytes(Crc32(p));
                     },
                     "bad magic",
                     {{"user", WithHugeCount(monitor_head)}}});

  RecordWriter journal_head;
  for (int i = 0; i < 6; ++i) journal_head.U64(0);
  RecordWriter no_batches = journal_head;
  no_batches.Count(0);
  RecordWriter no_shards = no_batches;
  no_shards.Count(0);
  formats.push_back({"journal", JournalSample, LoadJournalBytes,
                     [](const std::string& p) {
                       return std::string("ACJL") + U32Bytes(1) +
                              U64Bytes(p.size()) + p + U32Bytes(Crc32(p));
                     },
                     "unsupported version 1",
                     {{"batch", WithHugeCount(journal_head)},
                      {"shard", WithHugeCount(no_batches)},
                      {"monitor", WithHugeCount(no_shards)}}});
  return formats;
}

TEST(ArtifactCorruptionTest, SamplesRoundTrip) {
  for (const Format& f : Formats()) {
    EXPECT_EQ(f.load(f.sample()), "") << f.name;
  }
}

TEST(ArtifactCorruptionTest, EveryTruncationIsRejected) {
  for (const Format& f : Formats()) {
    const std::string bytes = f.sample();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_NE(f.load(bytes.substr(0, len)), "")
          << f.name << " cut to " << len << " of " << bytes.size();
    }
  }
}

TEST(ArtifactCorruptionTest, EveryByteFlipIsRejected) {
  for (const Format& f : Formats()) {
    const std::string clean = f.sample();
    for (std::size_t pos = 0; pos < clean.size(); ++pos) {
      std::string corrupt = clean;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << (pos % 8)));
      EXPECT_NE(f.load(corrupt), "") << f.name << " byte " << pos;
    }
  }
}

TEST(ArtifactCorruptionTest, GarbageAndLegacyFormatsAreRejected) {
  for (const Format& f : Formats()) {
    EXPECT_NE(f.load(std::string("definitely not a ") + f.name), "")
        << f.name;
    const std::string legacy = f.legacy_frame(PayloadOf(f.sample()));
    const std::string error = f.load(legacy);
    EXPECT_NE(error.find(f.legacy_error), std::string::npos)
        << f.name << ": " << error;
  }
}

TEST(ArtifactCorruptionTest, ReframedPayloadMutationsLoadOrThrowCodecError) {
  Rng rng(17);
  for (const Format& f : Formats()) {
    const std::string record = f.sample();
    const std::string clean = PayloadOf(record);
    int rejected = 0;
    for (int i = 0; i < 300; ++i) {
      std::string p = clean;
      const auto at = [&] {
        return static_cast<std::size_t>(rng.NextBounded(p.size()));
      };
      switch (rng.NextInt(0, 4)) {
        case 0:  // one random bit
          p[at()] ^= static_cast<char>(1 << rng.NextInt(0, 7));
          break;
        case 1: {  // an aligned word set to an extreme
          const std::uint32_t words[] = {0, 1, 0x7fffffffu, 0x80000000u,
                                         0xffffffffu};
          const std::size_t pos = at() & ~std::size_t{3};
          if (pos + 4 <= p.size()) {
            std::memcpy(p.data() + pos, &words[rng.NextInt(0, 4)], 4);
          }
          break;
        }
        case 2:  // cut short
          p.resize(at());
          break;
        case 3:  // bytes dropped from the middle
          p.erase(at(), static_cast<std::size_t>(rng.NextInt(1, 16)));
          break;
        default:  // bytes inserted
          p.insert(at(), static_cast<std::size_t>(rng.NextInt(1, 16)),
                   static_cast<char>(rng.NextInt(0, 255)));
          break;
      }
      rejected += f.load(Reframe(record, p)).empty() ? 0 : 1;
    }
    // Most mutations break some field; all of them reached the decoders.
    EXPECT_GT(rejected, 0) << f.name;
  }
}

TEST(ArtifactCorruptionTest, HugeCountsAreRejectedBeforeAllocation) {
  for (const Format& f : Formats()) {
    const std::string record = f.sample();
    for (const auto& [field, payload] : f.huge_counts) {
      const std::string error = f.load(Reframe(record, payload));
      EXPECT_NE(error.find(std::string("implausible ") + field),
                std::string::npos)
          << f.name << " " << field << ": " << error;
    }
  }
}

}  // namespace
