#include "common/record.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <ostream>

#include "common/faults.h"

namespace acobe {

static_assert(std::endian::native == std::endian::little,
              "the record codec copies fields in host byte order");

void WriteRecord(std::ostream& out, std::string_view tag,
                 std::uint32_t version, std::string_view payload) {
  const std::uint64_t size = payload.size();
  if (tag.size() != 4 || size > kMaxRecordPayload) {
    throw std::invalid_argument("WriteRecord: bad tag or oversized payload");
  }
  const std::uint32_t crc = Crc32(payload.data(), payload.size());
  out.write(tag.data(), 4);
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&size), sizeof(size));
  out.write(payload.data(), static_cast<std::streamsize>(size));
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  if (!out) throw std::runtime_error("WriteRecord: write failed");
}

std::string ReadRecord(std::istream& in, std::string_view tag,
                       std::uint32_t version, std::string_view what) {
  char header[16] = {};
  in.read(header, sizeof(header));
  RecordReader h(std::string_view(header + 4, sizeof(header) - 4), what);
  if (in.gcount() < 4 || std::string_view(header, 4) != tag) {
    h.Fail("bad magic");
  }
  if (!in) h.Fail("truncated header");
  const std::uint32_t file_version = h.U32();
  if (file_version != version) {
    h.Fail("unsupported version " + std::to_string(file_version) +
           " (expected " + std::to_string(version) + ")");
  }
  const std::uint64_t size = h.U64();
  if (size > kMaxRecordPayload) h.Fail("implausible payload size");
  // Grow with the bytes actually read: a forged size costs no more
  // memory than the stream holds.
  std::string payload;
  while (payload.size() < size) {
    const std::size_t old = payload.size();
    payload.resize(old + std::min<std::uint64_t>(size - old, 1u << 20));
    if (!in.read(payload.data() + old,
                 static_cast<std::streamsize>(payload.size() - old))) {
      h.Fail("truncated payload");
    }
  }
  std::uint32_t crc = 0;
  if (!in.read(reinterpret_cast<char*>(&crc), sizeof(crc))) {
    h.Fail("truncated checksum");
  }
  if (Crc32(payload) != crc) h.Fail("checksum mismatch (corrupt artifact)");
  return payload;
}

std::size_t RecordReader::Count(std::size_t min_item_bytes,
                                std::string_view field) {
  const std::uint32_t n = U32();
  if (n > remaining() / min_item_bytes) {
    Fail("implausible " + std::string(field) + " count " + std::to_string(n) +
         " (" + std::to_string(remaining()) + " bytes left)");
  }
  return n;
}

std::string RecordReader::Str() {
  const std::uint32_t n = U32();
  if (n > remaining()) Fail("truncated string");
  pos_ += n;
  return std::string(payload_.substr(pos_ - n, n));
}

void RecordReader::ExpectEnd() const {
  if (remaining() != 0) Fail("trailing bytes in payload");
}

void RecordReader::Fail(std::string_view why) const {
  throw RecordError(what_ + ": " + std::string(why));
}

void RecordReader::Raw(void* dst, std::size_t n) {
  if (n > remaining()) Fail("truncated payload");
  if (n != 0) std::memcpy(dst, payload_.data() + pos_, n);
  pos_ += n;
}

}  // namespace acobe
