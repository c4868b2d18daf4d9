// Unit tests for src/common: dates, time frames, RNG, CSV, stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/date.h"
#include "common/faults.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/timeframe.h"

namespace acobe {
namespace {

// --- Date ------------------------------------------------------------------

TEST(DateTest, EpochIsDayZero) {
  EXPECT_EQ(Date(1970, 1, 1).DayNumber(), 0);
  EXPECT_EQ(Date(1970, 1, 2).DayNumber(), 1);
  EXPECT_EQ(Date(1969, 12, 31).DayNumber(), -1);
}

TEST(DateTest, KnownDayNumbers) {
  EXPECT_EQ(Date(2010, 1, 2).DayNumber(), 14611);
  EXPECT_EQ(Date(2000, 3, 1).DayNumber(), 11017);
}

TEST(DateTest, RoundTripThroughDayNumber) {
  for (std::int64_t day = -1000; day <= 40000; day += 37) {
    const Date d = Date::FromDayNumber(day);
    EXPECT_EQ(d.DayNumber(), day) << d.ToString();
  }
}

TEST(DateTest, WeekdayKnownValues) {
  EXPECT_EQ(Date(1970, 1, 1).weekday(), Weekday::kThursday);
  EXPECT_EQ(Date(2010, 1, 2).weekday(), Weekday::kSaturday);
  EXPECT_EQ(Date(2011, 5, 31).weekday(), Weekday::kTuesday);
  EXPECT_EQ(Date(2021, 1, 26).weekday(), Weekday::kTuesday);
}

TEST(DateTest, WeekendDetection) {
  EXPECT_TRUE(Date(2010, 1, 2).IsWeekend());   // Saturday
  EXPECT_TRUE(Date(2010, 1, 3).IsWeekend());   // Sunday
  EXPECT_FALSE(Date(2010, 1, 4).IsWeekend());  // Monday
}

TEST(DateTest, LeapYearValidity) {
  EXPECT_TRUE(Date(2000, 2, 29).IsValid());
  EXPECT_TRUE(Date(2020, 2, 29).IsValid());
  EXPECT_FALSE(Date(1900, 2, 29).IsValid());
  EXPECT_FALSE(Date(2021, 2, 29).IsValid());
  EXPECT_FALSE(Date(2021, 4, 31).IsValid());
  EXPECT_FALSE(Date(2021, 13, 1).IsValid());
  EXPECT_FALSE(Date(2021, 0, 1).IsValid());
}

TEST(DateTest, AddDaysCrossesMonthAndYear) {
  EXPECT_EQ(Date(2010, 12, 31).AddDays(1), Date(2011, 1, 1));
  EXPECT_EQ(Date(2010, 3, 1).AddDays(-1), Date(2010, 2, 28));
  EXPECT_EQ(Date(2012, 3, 1).AddDays(-1), Date(2012, 2, 29));
}

TEST(DateTest, ParseAndFormat) {
  EXPECT_EQ(Date::FromString("2010-01-02"), Date(2010, 1, 2));
  EXPECT_EQ(Date(2010, 1, 2).ToString(), "2010-01-02");
  EXPECT_THROW(Date::FromString("not-a-date"), std::invalid_argument);
  EXPECT_THROW(Date::FromString("2021-02-30"), std::invalid_argument);
}

TEST(DateTest, Ordering) {
  EXPECT_LT(Date(2010, 1, 2), Date(2010, 1, 3));
  EXPECT_LT(Date(2010, 1, 31), Date(2010, 2, 1));
  EXPECT_LT(Date(2009, 12, 31), Date(2010, 1, 1));
}

TEST(DateTest, DaysBetween) {
  EXPECT_EQ(DaysBetween(Date(2010, 1, 2), Date(2011, 5, 31)), 514);
  EXPECT_EQ(DaysBetween(Date(2010, 5, 1), Date(2010, 4, 30)), -1);
}

// --- Timeframe ---------------------------------------------------------------

TEST(TimeframeTest, MakeTimestampAndBack) {
  const Date d(2010, 6, 15);
  const Timestamp ts = MakeTimestamp(d, 14, 30, 5);
  EXPECT_EQ(DateOf(ts), d);
  EXPECT_EQ(HourOf(ts), 14);
}

TEST(TimeframeTest, WorkOffPartition) {
  const auto p = TimeFramePartition::WorkOff();
  EXPECT_EQ(p.frame_count(), 2);
  EXPECT_EQ(p.FrameOfHour(6), 0);
  EXPECT_EQ(p.FrameOfHour(12), 0);
  EXPECT_EQ(p.FrameOfHour(17), 0);
  EXPECT_EQ(p.FrameOfHour(18), 1);
  EXPECT_EQ(p.FrameOfHour(23), 1);
  EXPECT_EQ(p.FrameOfHour(0), 1);  // wraps past midnight
  EXPECT_EQ(p.FrameOfHour(5), 1);
  EXPECT_EQ(p.FrameLabel(0), "06-18");
  EXPECT_EQ(p.FrameLabel(1), "18-06");
}

TEST(TimeframeTest, HourlyPartition) {
  const auto p = TimeFramePartition::Hourly();
  EXPECT_EQ(p.frame_count(), 24);
  for (int h = 0; h < 24; ++h) EXPECT_EQ(p.FrameOfHour(h), h);
}

TEST(TimeframeTest, InvalidPartitionsThrow) {
  EXPECT_THROW(TimeFramePartition({}), std::invalid_argument);
  EXPECT_THROW(TimeFramePartition({5, 5}), std::invalid_argument);
  EXPECT_THROW(TimeFramePartition({18, 6}), std::invalid_argument);
  EXPECT_THROW(TimeFramePartition({0, 24}), std::invalid_argument);
}

TEST(TimeframeTest, FrameOfHourRangeChecked) {
  const auto p = TimeFramePartition::WorkOff();
  EXPECT_THROW(p.FrameOfHour(-1), std::out_of_range);
  EXPECT_THROW(p.FrameOfHour(24), std::out_of_range);
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkIsIndependentAndDeterministic) {
  Rng base(7);
  Rng f1 = base.Fork(1);
  Rng f2 = base.Fork(2);
  Rng f1_again = Rng(7).Fork(1);
  EXPECT_EQ(f1.NextU64(), f1_again.NextU64());
  EXPECT_NE(f1.NextU64(), f2.NextU64());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    const int v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_THROW(rng.NextBounded(0), std::invalid_argument);
  EXPECT_THROW(rng.NextInt(3, 1), std::invalid_argument);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  double sum = 0.0, sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(6);
  for (double mean : {0.5, 3.0, 12.0, 80.0}) {
    double sum = 0.0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) sum += rng.NextPoisson(mean);
    EXPECT_NEAR(sum / n, mean, mean * 0.1 + 0.1) << "mean=" << mean;
  }
  EXPECT_EQ(rng.NextPoisson(0.0), 0);
  EXPECT_EQ(rng.NextPoisson(-1.0), 0);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
  EXPECT_THROW(rng.NextExponential(0.0), std::invalid_argument);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  rng.Shuffle(v);
  std::set<int> seen(v.begin(), v.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_NE(v[0] * 1000 + v[1], 0 * 1000 + 1);  // astronomically unlikely
}

TEST(RngTest, PickThrowsOnEmpty) {
  Rng rng(10);
  std::vector<int> empty;
  EXPECT_THROW(rng.Pick(empty), std::invalid_argument);
}

// --- CSV ---------------------------------------------------------------------

/// Splits a line that must be structurally sound.
std::vector<std::string> SplitOk(const std::string& line) {
  std::vector<std::string> fields;
  EXPECT_EQ(SplitCsvLineChecked(line, fields), CsvRowStatus::kOk) << line;
  return fields;
}

TEST(CsvTest, EscapePlainFieldUnchanged) {
  EXPECT_EQ(CsvEscape("hello"), "hello");
}

TEST(CsvTest, EscapeQuotesAndCommas) {
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvTest, SplitSimple) {
  const auto fields = SplitOk("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(CsvTest, SplitQuoted) {
  const auto fields = SplitOk("\"a,b\",\"say \"\"hi\"\"\",x");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a,b");
  EXPECT_EQ(fields[1], "say \"hi\"");
  EXPECT_EQ(fields[2], "x");
}

TEST(CsvTest, WriterReaderRoundTrip) {
  std::stringstream ss;
  CsvWriter writer(ss);
  writer.WriteRow({"plain", "with,comma", "with\"quote", ""});
  std::string line;
  ASSERT_TRUE(std::getline(ss, line));
  const std::vector<std::string> row = SplitOk(line);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0], "plain");
  EXPECT_EQ(row[1], "with,comma");
  EXPECT_EQ(row[2], "with\"quote");
  EXPECT_EQ(row[3], "");
  EXPECT_FALSE(std::getline(ss, line));
}

// Property sweep: escape/parse round-trips arbitrary content.
class CsvRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(CsvRoundTrip, Holds) {
  const std::string original = GetParam();
  const auto fields = SplitOk(CsvEscape(original) + "," + "tail");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], original);
  EXPECT_EQ(fields[1], "tail");
}

INSTANTIATE_TEST_SUITE_P(Cases, CsvRoundTrip,
                         ::testing::Values("", "plain", "a,b", "\"", "\"\"",
                                           "a\"b,c\"d", ",,,", "trailing,"));

// Table-driven structural cases: line ending and damage handling.
struct SplitCase {
  const char* name;
  const char* line;
  std::vector<std::string> fields;
  CsvRowStatus status;
};

class CsvSplitChecked : public ::testing::TestWithParam<SplitCase> {};

TEST_P(CsvSplitChecked, Holds) {
  const SplitCase& c = GetParam();
  std::vector<std::string> fields;
  EXPECT_EQ(SplitCsvLineChecked(c.line, fields), c.status) << c.name;
  EXPECT_EQ(fields, c.fields) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CsvSplitChecked,
    ::testing::Values(
        SplitCase{"crlf", "a,b\r", {"a", "b"}, CsvRowStatus::kOk},
        SplitCase{"crlf_empty_last", "a,\r", {"a", ""}, CsvRowStatus::kOk},
        SplitCase{"bare_cr_is_terminator", "\r", {""}, CsvRowStatus::kOk},
        SplitCase{"interior_cr_is_content", "a\rb,c", {"a\rb", "c"},
                  CsvRowStatus::kOk},
        SplitCase{"quoted_cr_kept", "\"a\r\",b\r", {"a\r", "b"},
                  CsvRowStatus::kOk},
        SplitCase{"trailing_empty_field", "a,b,", {"a", "b", ""},
                  CsvRowStatus::kOk},
        SplitCase{"only_commas", ",,", {"", "", ""}, CsvRowStatus::kOk},
        SplitCase{"quote_at_eof", "a,\"b", {"a", "b"},
                  CsvRowStatus::kUnterminatedQuote},
        SplitCase{"lone_quote", "\"", {""}, CsvRowStatus::kUnterminatedQuote},
        SplitCase{"quote_reopened", "\"a\"b\"", {"ab"},
                  CsvRowStatus::kUnterminatedQuote},
        SplitCase{"escaped_quote_ok", "\"a\"\"b\"", {"a\"b"},
                  CsvRowStatus::kOk}),
    [](const ::testing::TestParamInfo<SplitCase>& info) {
      return info.param.name;
    });

// --- Crc32 ------------------------------------------------------------------

TEST(Crc32Test, KnownAnswers) {
  // The canonical CRC-32/ISO-HDLC check value.
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string("")), 0x00000000u);
  EXPECT_EQ(Crc32(std::string("a")), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string a = "hello, ";
  const std::string b = "world";
  EXPECT_EQ(Crc32(b, Crc32(a)), Crc32(a + b));
}

/// Bitwise CRC-32 reference, independent of the library's tables.
std::uint32_t ReferenceCrc32(const unsigned char* data, std::size_t size,
                             std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::string RandomBytes(std::size_t n, std::uint64_t seed) {
  std::string data(n, '\0');
  Rng rng(seed);
  for (char& c : data) c = static_cast<char>(rng.NextBounded(256));
  return data;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  const std::string data = RandomBytes(1025 + 7, 5);
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1025; ++len) {
      ASSERT_EQ(Crc32(bytes + offset, len),
                ReferenceCrc32(bytes + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, ChainedSeedsMatchOneShot) {
  const std::string data = RandomBytes(300, 9);
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    const std::string a = data.substr(0, split);
    const std::string b = data.substr(split);
    EXPECT_EQ(Crc32(b, Crc32(a)), Crc32(data)) << "split " << split;
    EXPECT_EQ(Crc32(b, Crc32(a)),
              ReferenceCrc32(
                  reinterpret_cast<const unsigned char*>(b.data()), b.size(),
                  ReferenceCrc32(
                      reinterpret_cast<const unsigned char*>(a.data()),
                      a.size())));
  }
}

TEST(Crc32Test, CombineMatchesTheConcatenationOverRandomSplits) {
  const std::string data = RandomBytes(5000, 11);
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    // Up to five parts; bounds drawn with repeats, so parts may be empty.
    std::vector<std::size_t> cuts = {0, data.size()};
    const std::size_t inner = rng.NextBounded(5);
    for (std::size_t i = 0; i < inner; ++i) {
      cuts.push_back(rng.NextBounded(data.size() + 1));
    }
    if (trial % 4 == 0) cuts.push_back(cuts.back());  // an empty part
    std::sort(cuts.begin(), cuts.end());
    std::uint32_t crc = 0;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const std::string part = data.substr(cuts[i], cuts[i + 1] - cuts[i]);
      crc = Crc32Combine(crc, Crc32(part), part.size());
    }
    ASSERT_EQ(crc, Crc32(data)) << "trial " << trial;
  }
  // Empty on either side, and a long run of zero bytes.
  EXPECT_EQ(Crc32Combine(Crc32(data), 0, 0), Crc32(data));
  EXPECT_EQ(Crc32Combine(0, Crc32(data), data.size()), Crc32(data));
  const std::string zeros(70000, '\0');
  std::uint32_t big = 0;
  for (int i = 0; i < 3; ++i) big = Crc32(zeros, big);
  EXPECT_EQ(Crc32Combine(Crc32(data), big, 3 * zeros.size()),
            Crc32(zeros + zeros + zeros, Crc32(data)));
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(256, '\0');
  Rng rng(7);
  for (char& c : data) c = static_cast<char>(rng.NextBounded(256));
  const std::uint32_t clean = Crc32(data);
  data[100] = static_cast<char>(data[100] ^ 0x10);
  EXPECT_NE(Crc32(data), clean);
}

// --- WriteFileAtomic --------------------------------------------------------

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(WriteFileAtomicTest, WritesPayload) {
  const std::string path = ::testing::TempDir() + "wfa_payload.txt";
  WriteFileAtomic(path, [](std::ostream& out) { out << "payload\n"; });
  EXPECT_EQ(ReadAll(path), "payload\n");
  std::remove(path.c_str());
}

TEST(WriteFileAtomicTest, FailedWriteLeavesOldContent) {
  const std::string path = ::testing::TempDir() + "wfa_keep.txt";
  WriteFileAtomic(path, [](std::ostream& out) { out << "original"; });
  EXPECT_THROW(WriteFileAtomic(path,
                               [](std::ostream& out) {
                                 out << "partial garbage";
                                 throw std::runtime_error("writer died");
                               }),
               std::runtime_error);
  EXPECT_EQ(ReadAll(path), "original");
  std::remove(path.c_str());
}

TEST(WriteFileAtomicTest, UnwritableDirectoryThrows) {
  EXPECT_THROW(
      WriteFileAtomic("/nonexistent-dir-xyz/file",
                      [](std::ostream& out) { out << "x"; }),
      std::runtime_error);
}

// --- JSON fuzzing --------------------------------------------------------------

// One document of each kind the JSON reader is fed: a run-ledger line,
// a health heartbeat and an explain report (shortened, same shapes).
const char* const kJsonSeeds[] = {
    R"({"event": "aspect_trained", "department": "Department-1", "aspect": "device", "attempts": 1, "resumed": false, "ok": true, "epochs": 3, "final_loss": 0.0272342, "epoch_losses": [0.0316856, 0.0291011, 2.72342e-2], "note": null})",
    R"({"schema":"acobe.health.v1","tool":"acobe-serve","seq":7,"uptime_ms":7012,"interval_ms":1000,"final":false,"stage":{"name":"detect","detail":"Dept \"R&D\" \u00e9\ud83d\ude00\n","done":2,"total":5,"elapsed_s":1.25,"eta_s":-1},"stages":[{"stage":"ingest","seconds":0.5,"done":1,"total":1}],"rss_bytes":104857600,"cpu":{"proc_seconds":3.5,"utilization":0.97},"counters":{"nn.epochs":{"total":120,"delta":12,"rate":12.0}},"gauges":{}})",
    R"({"schema":"acobe.explain.v1","build":{"version":"0.8.0","simd":"avx2","telemetry":true},"dataset":{"dir":"C:\\data\/ds","digest":3582789404,"start":"2010-01-02"},"departments":[{"name":"Department-1","members":6,"degraded_aspects":[],"list":[{"rank":1,"user":"QUB0000","priority":1}],"attributions":[{"user":"QUB0000","aspects":[{"aspect":"device","peak_score":1.78106,"cells":[{"feature":"connection","frame":"18-06","error":0.260533,"share":7.8542E-2,"input":1,"group_input":-0.0}]}]}]}]})",
};

// Applies one random mutation: a bit flip, a truncation, an insert of
// a random byte or a JSON token, or a run of nesting openers.
void MutateJson(std::string& doc, Rng& rng) {
  static const char* const kTokens[] = {"[",  "{",   "\"", "\\u", "\\",
                                        "-",  "1e",  ",",  ":",  "}",
                                        "]",  "nul", "tru", "0.", "\\ud800"};
  const auto at = [&] {
    return static_cast<std::size_t>(rng.NextBounded(doc.size() + 1));
  };
  switch (rng.NextInt(0, 4)) {
    case 0:  // one random bit
      if (!doc.empty()) {
        doc[at() % doc.size()] ^= static_cast<char>(1 << rng.NextInt(0, 7));
      }
      break;
    case 1:  // cut short
      doc.resize(at());
      break;
    case 2:  // a random byte inserted
      doc.insert(at(), 1, static_cast<char>(rng.NextInt(0, 255)));
      break;
    case 3:  // a JSON token inserted
      doc.insert(at(), kTokens[rng.NextBounded(std::size(kTokens))]);
      break;
    default: {  // deep nesting, around the parser's depth limit
      const std::size_t depth = static_cast<std::size_t>(rng.NextInt(1, 200));
      const std::size_t pos = at();
      if (rng.NextInt(0, 1) == 0) {
        doc.insert(pos, depth, '[');
      } else {
        std::string opener;
        for (std::size_t i = 0; i < depth; ++i) opener += "{\"k\":";
        doc.insert(pos, opener);
      }
      break;
    }
  }
}

TEST(JsonFuzzTest, MutatedDocumentsParseOrThrowParseError) {
  Rng rng(18);
  for (const char* seed : kJsonSeeds) {
    ASSERT_NO_THROW(json::Value::Parse(seed)) << seed;
    int parsed = 0, rejected = 0;
    for (int i = 0; i < 3000; ++i) {
      std::string doc = seed;
      const int mutations = rng.NextInt(1, 3);
      for (int m = 0; m < mutations; ++m) MutateJson(doc, rng);
      try {
        json::Value::Parse(doc);
        ++parsed;
      } catch (const json::ParseError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "unexpected " << e.what() << " for: " << doc;
      }
    }
    // Both outcomes occur: the mutations reach past the first byte.
    EXPECT_GT(parsed, 0) << seed;
    EXPECT_GT(rejected, 0) << seed;
  }
}

TEST(JsonFuzzTest, NestingFarPastTheLimitIsAParseError) {
  EXPECT_THROW(json::Value::Parse(std::string(100000, '[')), json::ParseError);
  std::string objects;
  for (int i = 0; i < 10000; ++i) objects += "{\"k\":";
  EXPECT_THROW(json::Value::Parse(objects), json::ParseError);
}

// --- stats -------------------------------------------------------------------

TEST(StatsTest, MeanAndStd) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(StdDev(xs), 2.0);  // classic population-std example
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({}), 0.0);
}

TEST(StatsTest, ClampSymmetric) {
  EXPECT_DOUBLE_EQ(ClampSymmetric(5.0, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(ClampSymmetric(-5.0, 3.0), -3.0);
  EXPECT_DOUBLE_EQ(ClampSymmetric(1.5, 3.0), 1.5);
}

TEST(StatsTest, ToUnitInterval) {
  EXPECT_DOUBLE_EQ(ToUnitInterval(-3.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(ToUnitInterval(3.0, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(ToUnitInterval(0.0, 3.0), 0.5);
}

}  // namespace
}  // namespace acobe
