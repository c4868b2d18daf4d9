#include "logs/records.h"

#include <stdexcept>

namespace acobe {
namespace {

[[noreturn]] void BadEnum(const char* what, const std::string& s) {
  throw std::invalid_argument(std::string(what) + ": unknown value '" + s + "'");
}

}  // namespace

const char* ToString(LogonActivity a) {
  switch (a) {
    case LogonActivity::kLogon: return "logon";
    case LogonActivity::kLogoff: return "logoff";
  }
  return "?";
}

const char* ToString(DeviceActivity a) {
  switch (a) {
    case DeviceActivity::kConnect: return "connect";
    case DeviceActivity::kDisconnect: return "disconnect";
  }
  return "?";
}

const char* ToString(FileActivity a) {
  switch (a) {
    case FileActivity::kOpen: return "open";
    case FileActivity::kWrite: return "write";
    case FileActivity::kCopy: return "copy";
    case FileActivity::kDelete: return "delete";
  }
  return "?";
}

const char* ToString(FileLocation l) {
  switch (l) {
    case FileLocation::kLocal: return "local";
    case FileLocation::kRemote: return "remote";
  }
  return "?";
}

const char* ToString(HttpActivity a) {
  switch (a) {
    case HttpActivity::kVisit: return "visit";
    case HttpActivity::kDownload: return "download";
    case HttpActivity::kUpload: return "upload";
  }
  return "?";
}

const char* ToString(HttpFileType t) {
  switch (t) {
    case HttpFileType::kNone: return "none";
    case HttpFileType::kDoc: return "doc";
    case HttpFileType::kExe: return "exe";
    case HttpFileType::kJpg: return "jpg";
    case HttpFileType::kPdf: return "pdf";
    case HttpFileType::kTxt: return "txt";
    case HttpFileType::kZip: return "zip";
  }
  return "?";
}

LogonActivity LogonActivityFromString(const std::string& s) {
  if (s == "logon") return LogonActivity::kLogon;
  if (s == "logoff") return LogonActivity::kLogoff;
  BadEnum("LogonActivity", s);
}

DeviceActivity DeviceActivityFromString(const std::string& s) {
  if (s == "connect") return DeviceActivity::kConnect;
  if (s == "disconnect") return DeviceActivity::kDisconnect;
  BadEnum("DeviceActivity", s);
}

FileActivity FileActivityFromString(const std::string& s) {
  if (s == "open") return FileActivity::kOpen;
  if (s == "write") return FileActivity::kWrite;
  if (s == "copy") return FileActivity::kCopy;
  if (s == "delete") return FileActivity::kDelete;
  BadEnum("FileActivity", s);
}

FileLocation FileLocationFromString(const std::string& s) {
  if (s == "local") return FileLocation::kLocal;
  if (s == "remote") return FileLocation::kRemote;
  BadEnum("FileLocation", s);
}

HttpActivity HttpActivityFromString(const std::string& s) {
  if (s == "visit") return HttpActivity::kVisit;
  if (s == "download") return HttpActivity::kDownload;
  if (s == "upload") return HttpActivity::kUpload;
  BadEnum("HttpActivity", s);
}

HttpFileType HttpFileTypeFromString(const std::string& s) {
  if (s == "none") return HttpFileType::kNone;
  if (s == "doc") return HttpFileType::kDoc;
  if (s == "exe") return HttpFileType::kExe;
  if (s == "jpg") return HttpFileType::kJpg;
  if (s == "pdf") return HttpFileType::kPdf;
  if (s == "txt") return HttpFileType::kTxt;
  if (s == "zip") return HttpFileType::kZip;
  BadEnum("HttpFileType", s);
}

}  // namespace acobe
