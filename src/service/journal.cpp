#include "service/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/faults.h"
#include "common/record.h"

namespace acobe {

constexpr char kJournalTag[] = "ACJL";
constexpr std::uint32_t kJournalVersion = 2;

void SaveJournal(const std::string& path, const JournalState& state) {
  RecordWriter w;
  w.U64(state.config_fingerprint);
  w.U64(state.cycle);
  w.U64(state.alerts_bytes);
  w.U64(state.alerts_count);
  w.U64(state.ledger_bytes);
  w.I64(state.last_scored_day);
  w.Count(state.batches.size());
  for (const BatchRecord& b : state.batches) {
    w.Str(b.name);
    w.U32(b.digest);
    w.I64(b.day_lo);
    w.I64(b.day_hi);
  }
  w.Count(state.shards.size());
  for (const ShardRecord& s : state.shards) {
    w.U32(s.quarantined ? 1 : 0);
    w.U32(s.failures);
  }
  w.Count(state.monitors.size());
  for (const auto& [dept, blob] : state.monitors) {
    w.Str(dept);
    w.Str(blob);
  }
  WriteFileAtomic(path, [&](std::ostream& out) {
    WriteRecord(out, kJournalTag, kJournalVersion, w.payload());
  });
}

std::optional<JournalState> LoadJournal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) return std::nullopt;
    throw JournalError("journal: cannot open " + path);
  }
  JournalState state;
  try {
    const std::string payload =
        ReadRecord(in, kJournalTag, kJournalVersion, "journal");
    RecordReader r(payload, "journal");
    state.config_fingerprint = r.U64();
    state.cycle = r.U64();
    state.alerts_bytes = r.U64();
    state.alerts_count = r.U64();
    state.ledger_bytes = r.U64();
    state.last_scored_day = r.I64();
    // Count() takes each item's smallest encoding (strings empty).
    state.batches.resize(r.Count(4 + 4 + 8 + 8, "batch"));
    for (BatchRecord& b : state.batches) {
      b.name = r.Str();
      b.digest = r.U32();
      b.day_lo = r.I64();
      b.day_hi = r.I64();
    }
    state.shards.resize(r.Count(4 + 4, "shard"));
    for (ShardRecord& s : state.shards) {
      s.quarantined = r.U32() != 0;
      s.failures = r.U32();
    }
    state.monitors.resize(r.Count(4 + 4, "monitor"));
    for (auto& [dept, blob] : state.monitors) {
      dept = r.Str();
      blob = r.Str();
    }
    r.ExpectEnd();
  } catch (const RecordError& e) {
    throw JournalError(std::string(e.what()) + " in " + path);
  }
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
