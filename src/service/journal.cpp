#include "service/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/faults.h"

namespace acobe {
namespace {

constexpr char kJournalMagic[4] = {'A', 'C', 'J', 'L'};
constexpr std::uint32_t kJournalVersion = 1;
constexpr std::uint64_t kMaxPayload = 1u << 30;

void PutU32(std::string& buf, std::uint32_t v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string& buf, std::uint64_t v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutI64(std::string& buf, std::int64_t v) {
  PutU64(buf, static_cast<std::uint64_t>(v));
}
void PutStr(std::string& buf, const std::string& s) {
  PutU64(buf, s.size());
  buf.append(s);
}

class Reader {
 public:
  /// Reads from `payload`, which must outlive the reader.
  explicit Reader(std::string_view payload) : payload_(payload) {}

  std::uint32_t U32() {
    std::uint32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  std::uint64_t U64() {
    std::uint64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  std::string Str() {
    const std::uint64_t n = U64();
    if (n > payload_.size() - pos_) Fail();
    std::string s(payload_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  bool AtEnd() const { return pos_ == payload_.size(); }

 private:
  void Raw(void* dst, std::size_t n) {
    if (n > payload_.size() - pos_) Fail();
    std::memcpy(dst, payload_.data() + pos_, n);
    pos_ += n;
  }
  [[noreturn]] static void Fail() {
    throw JournalError("journal: truncated payload");
  }

  std::string_view payload_;
  std::size_t pos_ = 0;
};

}  // namespace

void SaveJournal(const std::string& path, const JournalState& state) {
  std::string payload;
  PutU64(payload, state.config_fingerprint);
  PutU64(payload, state.cycle);
  PutU64(payload, state.alerts_bytes);
  PutU64(payload, state.alerts_count);
  PutU64(payload, state.ledger_bytes);
  PutI64(payload, state.last_scored_day);
  PutU64(payload, state.batches.size());
  for (const BatchRecord& b : state.batches) {
    PutStr(payload, b.name);
    PutU32(payload, b.digest);
    PutI64(payload, b.day_lo);
    PutI64(payload, b.day_hi);
  }
  PutU64(payload, state.shards.size());
  for (const ShardRecord& s : state.shards) {
    PutU32(payload, s.quarantined ? 1 : 0);
    PutU32(payload, s.failures);
  }
  PutU64(payload, state.monitors.size());
  for (const auto& [dept, blob] : state.monitors) {
    PutStr(payload, dept);
    PutStr(payload, blob);
  }

  const std::uint32_t crc = Crc32(payload);
  WriteFileAtomic(path, [&](std::ostream& out) {
    out.write(kJournalMagic, sizeof(kJournalMagic));
    const std::uint32_t version = kJournalVersion;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const std::uint64_t size = payload.size();
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  });
}

std::optional<JournalState> LoadJournal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) return std::nullopt;
    throw JournalError("journal: cannot open " + path);
  }
  char magic[4] = {};
  std::uint32_t version = 0;
  std::uint64_t size = 0;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&size), sizeof(size));
  if (!in || std::memcmp(magic, kJournalMagic, sizeof(magic)) != 0) {
    throw JournalError("journal: bad magic in " + path);
  }
  if (version != kJournalVersion) {
    throw JournalError("journal: unsupported version " +
                       std::to_string(version));
  }
  if (size > kMaxPayload) {
    throw JournalError("journal: implausible payload size");
  }
  std::string payload(static_cast<std::size_t>(size), '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  std::uint32_t crc = 0;
  in.read(reinterpret_cast<char*>(&crc), sizeof(crc));
  if (!in) throw JournalError("journal: truncated " + path);
  if (Crc32(payload) != crc) {
    throw JournalError("journal: CRC mismatch in " + path);
  }

  Reader r(payload);
  JournalState state;
  state.config_fingerprint = r.U64();
  state.cycle = r.U64();
  state.alerts_bytes = r.U64();
  state.alerts_count = r.U64();
  state.ledger_bytes = r.U64();
  state.last_scored_day = r.I64();
  const std::uint64_t n_batches = r.U64();
  if (n_batches > kMaxPayload / 16) {
    throw JournalError("journal: implausible batch count");
  }
  state.batches.resize(static_cast<std::size_t>(n_batches));
  for (BatchRecord& b : state.batches) {
    b.name = r.Str();
    b.digest = r.U32();
    b.day_lo = r.I64();
    b.day_hi = r.I64();
  }
  const std::uint64_t n_shards = r.U64();
  if (n_shards > kMaxPayload / 8) {
    throw JournalError("journal: implausible shard count");
  }
  state.shards.resize(static_cast<std::size_t>(n_shards));
  for (ShardRecord& s : state.shards) {
    s.quarantined = r.U32() != 0;
    s.failures = r.U32();
  }
  const std::uint64_t n_monitors = r.U64();
  if (n_monitors > kMaxPayload / 16) {
    throw JournalError("journal: implausible monitor count");
  }
  state.monitors.resize(static_cast<std::size_t>(n_monitors));
  for (auto& [dept, blob] : state.monitors) {
    dept = r.Str();
    blob = r.Str();
  }
  if (!r.AtEnd()) throw JournalError("journal: trailing bytes");
  return state;
}

AppendLog::AppendLog(const std::string& path, std::uint64_t committed_bytes)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("AppendLog: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  struct stat st = {};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    throw std::runtime_error("AppendLog: cannot stat " + path);
  }
  if (static_cast<std::uint64_t>(st.st_size) < committed_bytes) {
    ::close(fd_);
    throw JournalError("AppendLog: " + path + " is shorter (" +
                       std::to_string(st.st_size) +
                       " bytes) than the journal's durable prefix (" +
                       std::to_string(committed_bytes) + ")");
  }
  // Drop any torn tail from a crash mid-append, then resume appending
  // at the committed point.
  if (::ftruncate(fd_, static_cast<off_t>(committed_bytes)) != 0) {
    ::close(fd_);
    throw std::runtime_error("AppendLog: cannot truncate " + path);
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    ::close(fd_);
    throw std::runtime_error("AppendLog: cannot seek " + path);
  }
  bytes_ = committed_bytes;
}

AppendLog::~AppendLog() {
  if (fd_ >= 0) ::close(fd_);
}

void AppendLog::Append(const std::string& line) {
  std::string buf = line;
  buf.push_back('\n');
  const char* p = buf.data();
  std::size_t left = buf.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("AppendLog: write failed on " + path_ + ": " +
                               std::strerror(errno));
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  bytes_ += buf.size();
}

void AppendLog::Sync() {
  if (::fsync(fd_) != 0) {
    throw std::runtime_error("AppendLog: fsync failed on " + path_ + ": " +
                             std::strerror(errno));
  }
}

}  // namespace acobe
