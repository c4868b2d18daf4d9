#include "common/faults.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>

namespace acobe {

const char* ToString(IngestPolicy policy) {
  switch (policy) {
    case IngestPolicy::kStrict:
      return "strict";
    case IngestPolicy::kPermissive:
      return "permissive";
    case IngestPolicy::kQuarantine:
      return "quarantine";
  }
  return "?";
}

IngestPolicy IngestPolicyFromString(const std::string& s) {
  if (s == "strict") return IngestPolicy::kStrict;
  if (s == "permissive") return IngestPolicy::kPermissive;
  if (s == "quarantine") return IngestPolicy::kQuarantine;
  throw std::invalid_argument("unknown ingest policy '" + s +
                              "' (strict|permissive|quarantine)");
}

void IngestStats::Merge(const IngestStats& other) {
  rows_read += other.rows_read;
  rows_rejected += other.rows_rejected;
  rows_quarantined += other.rows_quarantined;
  rows_deduped += other.rows_deduped;
  if (first_error.empty()) first_error = other.first_error;
}

namespace {

/// Slice-by-8 tables: t[0] is the bytewise CRC table, and t[k][b] is
/// t[0][b] carried through k more zero bytes, so eight input bytes fold
/// into the running value with eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// a(x) * b(x) modulo the CRC polynomial, both in the reflected bit
/// order Crc32 uses (bit 31 is x^0).
std::uint32_t MultModP(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1) ? (b >> 1) ^ 0xEDB88320u : b >> 1;
  }
  return product;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const CrcTables t = MakeCrcTables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = LoadLe32(bytes) ^ c;
    const std::uint32_t hi = LoadLe32(bytes + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t Crc32(const std::string& data, std::uint32_t seed) {
  return Crc32(data.data(), data.size(), seed);
}

std::uint32_t Crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::uint64_t len_b) {
  // x^(2^k) mod p, for every k a 64-bit byte count can reach.
  static const std::array<std::uint32_t, 3 + 64> kPow2 = [] {
    std::array<std::uint32_t, 3 + 64> t{};
    t[0] = 1u << 30;  // x^1
    for (std::size_t k = 1; k < t.size(); ++k) {
      t[k] = MultModP(t[k - 1], t[k - 1]);
    }
    return t;
  }();
  // Appending len_b bytes multiplies crc_a's polynomial by x^(8 len_b);
  // the init/final XOR terms cancel between the three CRCs.
  std::uint32_t shift = 1u << 31;  // x^0
  for (std::size_t k = 3; len_b != 0; len_b >>= 1, ++k) {
    if (len_b & 1) shift = MultModP(kPow2[k], shift);
  }
  return MultModP(shift, crc_a) ^ crc_b;
}

namespace {

[[noreturn]] void FailAtomicWrite(const std::string& tmp,
                                  const std::string& what) {
  const int saved_errno = errno;
  std::remove(tmp.c_str());
  throw std::runtime_error("WriteFileAtomic: " + what +
                           (saved_errno ? std::string(": ") +
                                              std::strerror(saved_errno)
                                        : std::string()));
}

void FsyncPath(const std::string& path, int open_flags,
               const std::string& tmp_to_cleanup, const char* what) {
  const int fd = ::open(path.c_str(), open_flags);
  if (fd < 0) FailAtomicWrite(tmp_to_cleanup, std::string("open ") + what);
  if (::fsync(fd) != 0) {
    ::close(fd);
    FailAtomicWrite(tmp_to_cleanup, std::string("fsync ") + what);
  }
  ::close(fd);
}

std::atomic<std::uint64_t> g_dir_fsyncs{0};

}  // namespace

std::uint64_t DirFsyncCount() {
  return g_dir_fsyncs.load(std::memory_order_relaxed);
}

void WriteFileAtomic(const std::string& path,
                     const std::function<void(std::ostream&)>& writer) {
  AtomicFile file(path);
  writer(file.stream());  // a throw unlinks the temporary
  file.Commit();
}

AtomicFile::AtomicFile(std::string path)
    : path_(std::move(path)),
      tmp_(path_ + ".tmp." + std::to_string(static_cast<long>(::getpid()))),
      out_(tmp_, std::ios::binary | std::ios::trunc) {
  if (!out_) throw std::runtime_error("WriteFileAtomic: cannot open " + tmp_);
}

AtomicFile::~AtomicFile() {
  if (!committed_) {
    out_.close();
    std::remove(tmp_.c_str());
  }
}

void AtomicFile::Commit() {
  out_.flush();
  if (!out_) FailAtomicWrite(tmp_, "write payload");
  out_.close();
  FsyncPath(tmp_, O_WRONLY, tmp_, "temporary");
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    FailAtomicWrite(tmp_, "rename into place");
  }
  committed_ = true;
  // Make the rename itself durable: sync the containing directory.
  const std::size_t slash = path_.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path_.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {  // best-effort: some filesystems refuse directory fsync
    if (::fsync(dfd) == 0) {
      g_dir_fsyncs.fetch_add(1, std::memory_order_relaxed);
    }
    ::close(dfd);
  }
}

}  // namespace acobe
