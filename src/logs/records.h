#pragma once

// Typed audit-log records.
//
// The CERT-style dataset (Section V of the paper) provides device,
// file, HTTP, email, logon and LDAP logs; the enterprise case-study
// dataset (Section VI) provides Windows/Sysmon/PowerShell events and
// web-proxy logs. Records reference users/PCs/files/domains through
// interned 32-bit ids (see EntityTable) so that multi-million-event
// simulations stay memory-light.

#include <cstdint>
#include <string>

#include "common/timeframe.h"

namespace acobe {

using UserId = std::uint32_t;
using PcId = std::uint32_t;
using FileId = std::uint32_t;
using DomainId = std::uint32_t;

constexpr std::uint32_t kInvalidId = 0xffffffffu;

// ---------------------------------------------------------------------------
// CERT-style records

enum class LogonActivity : std::uint8_t { kLogon, kLogoff };

struct LogonEvent {
  Timestamp ts = 0;
  UserId user = kInvalidId;
  PcId pc = kInvalidId;
  LogonActivity activity = LogonActivity::kLogon;
};

enum class DeviceActivity : std::uint8_t { kConnect, kDisconnect };

struct DeviceEvent {
  Timestamp ts = 0;
  UserId user = kInvalidId;
  PcId pc = kInvalidId;
  DeviceActivity activity = DeviceActivity::kConnect;
};

enum class FileActivity : std::uint8_t { kOpen, kWrite, kCopy, kDelete };

enum class FileLocation : std::uint8_t { kLocal, kRemote };

struct FileEvent {
  Timestamp ts = 0;
  UserId user = kInvalidId;
  PcId pc = kInvalidId;
  FileActivity activity = FileActivity::kOpen;
  FileId file = kInvalidId;
  // Dataflow: `open` reads *from* `from`; `write` writes *to* `to`;
  // `copy` moves data `from` -> `to`.
  FileLocation from = FileLocation::kLocal;
  FileLocation to = FileLocation::kLocal;
};

enum class HttpActivity : std::uint8_t { kVisit, kDownload, kUpload };

enum class HttpFileType : std::uint8_t {
  kNone,
  kDoc,
  kExe,
  kJpg,
  kPdf,
  kTxt,
  kZip,
};

struct HttpEvent {
  Timestamp ts = 0;
  UserId user = kInvalidId;
  PcId pc = kInvalidId;
  HttpActivity activity = HttpActivity::kVisit;
  DomainId domain = kInvalidId;
  HttpFileType filetype = HttpFileType::kNone;
};

struct EmailEvent {
  Timestamp ts = 0;
  UserId user = kInvalidId;
  std::uint16_t recipient_count = 1;
  std::uint16_t attachment_count = 0;
  std::uint32_t size_bytes = 0;
  bool external = false;
};

/// LDAP directory entry; `department` is the third-tier organizational
/// unit the paper uses to define groups.
struct LdapRecord {
  UserId user = kInvalidId;
  std::string user_name;
  std::string department;
  std::string team;
  std::string role;
};

// ---------------------------------------------------------------------------
// Enterprise case-study records

/// Behavioral aspects of the enterprise dataset (Section VI).
enum class EnterpriseAspect : std::uint8_t {
  kFile,      // file-handle ops, file shares, Sysmon file events
  kCommand,   // process creation, PowerShell execution
  kConfig,    // registry / account modification
  kResource,  // service/resource usage
};

/// A discrete host event (Windows Event / Sysmon / PowerShell); `event_id`
/// mirrors Windows event ids (e.g. 4688 process creation, 13 registry set)
/// and `object` is the interned id of the touched object (process image,
/// file path, registry key).
struct EnterpriseEvent {
  Timestamp ts = 0;
  UserId user = kInvalidId;
  EnterpriseAspect aspect = EnterpriseAspect::kFile;
  std::uint16_t event_id = 0;
  std::uint32_t object = kInvalidId;
};

/// A web-proxy log entry.
struct ProxyEvent {
  Timestamp ts = 0;
  UserId user = kInvalidId;
  DomainId domain = kInvalidId;
  bool success = true;
  std::uint32_t bytes = 0;
};

// ---------------------------------------------------------------------------
// Enum <-> string helpers (the CERT-layout CSV fields)

const char* ToString(LogonActivity a);
const char* ToString(DeviceActivity a);
const char* ToString(FileActivity a);
const char* ToString(FileLocation l);
const char* ToString(HttpActivity a);
const char* ToString(HttpFileType t);

LogonActivity LogonActivityFromString(const std::string& s);
DeviceActivity DeviceActivityFromString(const std::string& s);
FileActivity FileActivityFromString(const std::string& s);
FileLocation FileLocationFromString(const std::string& s);
HttpActivity HttpActivityFromString(const std::string& s);
HttpFileType HttpFileTypeFromString(const std::string& s);

}  // namespace acobe
