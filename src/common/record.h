#pragma once

// One framed record codec for every CRC'd binary artifact: autoencoders
// (nn/serialize.h), ensembles (core/ensemble_io.h), monitor snapshots
// (core/monitor.h) and the service journal (service/journal.h). Frame,
// every field little-endian:
//
//   tag[4] | u32 version | u64 payload size | payload | u32 CRC-32(payload)
//
// ReadRecord checks tag, version and size cap and verifies the CRC
// before any field is decoded. RecordReader then bounds-checks every
// read, and its Count() rejects a count whose items cannot fit in the
// bytes left, so no decoder sizes an allocation from an unchecked count.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

namespace acobe {

/// Every decode failure (bad magic, unsupported version, truncation,
/// CRC mismatch, malformed field), prefixed with the format name.
class RecordError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint64_t kMaxRecordPayload = 1ull << 30;

/// `tag` is exactly 4 bytes. Throws std::runtime_error on a write error.
void WriteRecord(std::ostream& out, std::string_view tag,
                 std::uint32_t version, std::string_view payload);

/// Returns the CRC-verified payload of the record at `in`.
std::string ReadRecord(std::istream& in, std::string_view tag,
                       std::uint32_t version, std::string_view what);

class RecordWriter {
 public:
  void U32(std::uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(std::uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(std::int32_t v) { Raw(&v, sizeof(v)); }
  void I64(std::int64_t v) { Raw(&v, sizeof(v)); }
  void F32(float v) { Raw(&v, sizeof(v)); }
  /// Counts and lengths are u32; WriteRecord's payload cap keeps every
  /// real one in range.
  void Count(std::size_t n) { U32(static_cast<std::uint32_t>(n)); }
  void Str(std::string_view s) { Count(s.size()); Raw(s.data(), s.size()); }
  void Floats(std::span<const float> v) { Raw(v.data(), v.size_bytes()); }

  const std::string& payload() const { return buf_; }

 private:
  void Raw(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }

  std::string buf_;
};

/// Bounds-checked view over a verified payload, which must outlive it.
class RecordReader {
 public:
  RecordReader(std::string_view payload, std::string_view what)
      : payload_(payload), what_(what) {}

  std::uint32_t U32() { return Get<std::uint32_t>(); }
  std::uint64_t U64() { return Get<std::uint64_t>(); }
  std::int32_t I32() { return Get<std::int32_t>(); }
  std::int64_t I64() { return Get<std::int64_t>(); }
  float F32() { return Get<float>(); }
  /// Rejects, naming `field`, a count whose items of at least
  /// `min_item_bytes` (>= 1) each cannot fit in the bytes left.
  std::size_t Count(std::size_t min_item_bytes, std::string_view field);
  std::string Str();
  void Floats(std::span<float> out) { Raw(out.data(), out.size_bytes()); }

  std::size_t remaining() const { return payload_.size() - pos_; }
  void ExpectEnd() const;
  /// Throws RecordError("<what>: <why>").
  [[noreturn]] void Fail(std::string_view why) const;

 private:
  template <typename T>
  T Get() {
    T v{};
    Raw(&v, sizeof(v));
    return v;
  }
  void Raw(void* dst, std::size_t n);

  std::string_view payload_;
  std::string what_;
  std::size_t pos_ = 0;
};

}  // namespace acobe
