#include "features/cert_features.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/telemetry.h"
#include "common/trace.h"

namespace acobe {
namespace {

// Kind tags for first-seen keys; one namespace per new-op family.
enum FirstSeenKind : std::uint32_t {
  kKindDeviceHost = 1,
  kKindFileOpBase = 8,   // + file feature index
  kKindHttpOpBase = 24,  // + http filetype
};

FeatureCatalog MakeAcobeCatalog() {
  std::vector<FeatureDef> defs = {
      {"connection", "device", 1.0},
      {"new-host-connection", "device", 1.0},
      {"open-from-local", "file", 1.0},
      {"open-from-remote", "file", 1.0},
      {"write-to-local", "file", 1.0},
      {"write-to-remote", "file", 1.0},
      {"copy-from-local-to-remote", "file", 1.0},
      {"copy-from-remote-to-local", "file", 1.0},
      {"new-op", "file", 1.0},
      {"upload-doc", "http", 1.0},
      {"upload-exe", "http", 1.0},
      {"upload-jpg", "http", 1.0},
      {"upload-pdf", "http", 1.0},
      {"upload-txt", "http", 1.0},
      {"upload-zip", "http", 1.0},
      {"http-new-op", "http", 1.0},
  };
  return FeatureCatalog(std::move(defs));
}

FeatureCatalog MakeCoarseCatalog() {
  std::vector<FeatureDef> defs = {
      {"connect", "device", 1.0},  {"disconnect", "device", 1.0},
      {"open", "file", 1.0},       {"write", "file", 1.0},
      {"copy", "file", 1.0},       {"delete", "file", 1.0},
      {"visit", "http", 1.0},      {"download", "http", 1.0},
      {"upload", "http", 1.0},     {"logon", "logon", 1.0},
      {"logoff", "logon", 1.0},
  };
  return FeatureCatalog(std::move(defs));
}

int UploadFeature(HttpFileType t) {
  switch (t) {
    case HttpFileType::kDoc: return CertAcobeExtractor::kHttpUploadDoc;
    case HttpFileType::kExe: return CertAcobeExtractor::kHttpUploadExe;
    case HttpFileType::kJpg: return CertAcobeExtractor::kHttpUploadJpg;
    case HttpFileType::kPdf: return CertAcobeExtractor::kHttpUploadPdf;
    case HttpFileType::kTxt: return CertAcobeExtractor::kHttpUploadTxt;
    case HttpFileType::kZip: return CertAcobeExtractor::kHttpUploadZip;
    case HttpFileType::kNone: return -1;
  }
  return -1;
}

int FileOpFeature(const FileEvent& e) {
  switch (e.activity) {
    case FileActivity::kOpen:
      return e.from == FileLocation::kLocal
                 ? CertAcobeExtractor::kFileOpenFromLocal
                 : CertAcobeExtractor::kFileOpenFromRemote;
    case FileActivity::kWrite:
      return e.to == FileLocation::kLocal
                 ? CertAcobeExtractor::kFileWriteToLocal
                 : CertAcobeExtractor::kFileWriteToRemote;
    case FileActivity::kCopy:
      return e.from == FileLocation::kLocal
                 ? CertAcobeExtractor::kFileCopyL2R
                 : CertAcobeExtractor::kFileCopyR2L;
    case FileActivity::kDelete:
      return -1;  // deletes only feed the coarse feature set
  }
  return -1;
}

}  // namespace

void ReplayStore(const LogStore& store, LogSink& sink) {
  ACOBE_SPAN("features.replay");
  // Merge the per-type streams by day so that first-seen semantics see a
  // consistent chronological order. Within a day, type order does not
  // matter (new-op is defined as "never before day d").
  struct Cursor {
    std::size_t logon = 0, device = 0, file = 0, http = 0, email = 0,
                enterprise = 0, proxy = 0;
  } cur;
  // Find overall day range.
  Timestamp lo = std::numeric_limits<Timestamp>::max();
  Timestamp hi = std::numeric_limits<Timestamp>::min();
  auto scan = [&](auto const& v) {
    for (const auto& e : v) {
      lo = std::min(lo, e.ts);
      hi = std::max(hi, e.ts);
    }
  };
  scan(store.logons());
  scan(store.devices());
  scan(store.file_events());
  scan(store.http_events());
  scan(store.emails());
  scan(store.enterprise_events());
  scan(store.proxy_events());
  if (lo > hi) return;

  const std::int64_t first_day = DayOf(lo);
  const std::int64_t last_day = DayOf(hi);
  std::size_t replayed = 0;
  for (std::int64_t day = first_day; day <= last_day; ++day) {
    const Timestamp day_end = (day + 1) * kSecondsPerDay;
    auto drain = [&](auto const& v, std::size_t& idx) {
      while (idx < v.size() && v[idx].ts < day_end) {
        sink.Consume(v[idx++]);
        ++replayed;
      }
    };
    drain(store.logons(), cur.logon);
    drain(store.devices(), cur.device);
    drain(store.file_events(), cur.file);
    drain(store.http_events(), cur.http);
    drain(store.emails(), cur.email);
    drain(store.enterprise_events(), cur.enterprise);
    drain(store.proxy_events(), cur.proxy);
  }
  ACOBE_COUNT("features.events_replayed", replayed);
}

CertAcobeExtractor::CertAcobeExtractor(Date start, int days,
                                       TimeFramePartition partition)
    : partition_(std::move(partition)),
      catalog_(MakeAcobeCatalog()),
      cube_(std::make_unique<MeasurementCube>(start, days, kFeatureCount,
                                              partition_.frame_count())) {}

void CertAcobeExtractor::Consume(const LogonEvent&) {
  // The fine-grained feature set has no logon features (Section V.A.3).
}

void CertAcobeExtractor::Consume(const DeviceEvent& e) {
  if (e.activity != DeviceActivity::kConnect) return;
  const Date date = DateOf(e.ts);
  const int day = cube_->DayIndex(date);
  if (day < 0) return;
  const int frame = partition_.FrameOf(e.ts);
  cube_->Accumulate(e.user, kDevConnection, date, frame);
  if (first_seen_.SeenNewOnDay(
          FirstSeenTracker::Key(e.user, kKindDeviceHost, e.pc), day)) {
    cube_->Accumulate(e.user, kDevNewHost, date, frame);
  }
}

void CertAcobeExtractor::Consume(const FileEvent& e) {
  const int feature = FileOpFeature(e);
  if (feature < 0) return;
  const Date date = DateOf(e.ts);
  const int day = cube_->DayIndex(date);
  if (day < 0) return;
  const int frame = partition_.FrameOf(e.ts);
  cube_->Accumulate(e.user, feature, date, frame);
  if (first_seen_.SeenNewOnDay(
          FirstSeenTracker::Key(e.user, kKindFileOpBase + feature, e.file),
          day)) {
    cube_->Accumulate(e.user, kFileNewOp, date, frame);
  }
}

void CertAcobeExtractor::Consume(const HttpEvent& e) {
  // Visits and downloads are not taken into consideration (Section
  // V.A.3); only uploads carry signal for the studied scenarios.
  if (e.activity != HttpActivity::kUpload) return;
  const int feature = UploadFeature(e.filetype);
  if (feature < 0) return;
  const Date date = DateOf(e.ts);
  const int day = cube_->DayIndex(date);
  if (day < 0) return;
  const int frame = partition_.FrameOf(e.ts);
  cube_->Accumulate(e.user, feature, date, frame);
  if (first_seen_.SeenNewOnDay(
          FirstSeenTracker::Key(e.user, kKindHttpOpBase + feature, e.domain),
          day)) {
    cube_->Accumulate(e.user, kHttpNewOp, date, frame);
  }
}

void CertAcobeExtractor::Consume(const EmailEvent&) {
  // Email features are not part of the presented evaluation set.
}

CertCoarseExtractor::CertCoarseExtractor(Date start, int days,
                                         TimeFramePartition partition)
    : partition_(std::move(partition)),
      catalog_(MakeCoarseCatalog()),
      cube_(std::make_unique<MeasurementCube>(start, days, kFeatureCount,
                                              partition_.frame_count())) {}

void CertCoarseExtractor::Consume(const LogonEvent& e) {
  const Date date = DateOf(e.ts);
  if (cube_->DayIndex(date) < 0) return;
  cube_->Accumulate(e.user,
                    e.activity == LogonActivity::kLogon ? kLogon : kLogoff,
                    date, partition_.FrameOf(e.ts));
}

void CertCoarseExtractor::Consume(const DeviceEvent& e) {
  const Date date = DateOf(e.ts);
  if (cube_->DayIndex(date) < 0) return;
  cube_->Accumulate(
      e.user, e.activity == DeviceActivity::kConnect ? kConnect : kDisconnect,
      date, partition_.FrameOf(e.ts));
}

void CertCoarseExtractor::Consume(const FileEvent& e) {
  const Date date = DateOf(e.ts);
  if (cube_->DayIndex(date) < 0) return;
  int feature = kOpen;
  switch (e.activity) {
    case FileActivity::kOpen: feature = kOpen; break;
    case FileActivity::kWrite: feature = kWrite; break;
    case FileActivity::kCopy: feature = kCopy; break;
    case FileActivity::kDelete: feature = kDelete; break;
  }
  cube_->Accumulate(e.user, feature, date, partition_.FrameOf(e.ts));
}

void CertCoarseExtractor::Consume(const HttpEvent& e) {
  const Date date = DateOf(e.ts);
  if (cube_->DayIndex(date) < 0) return;
  int feature = kVisit;
  switch (e.activity) {
    case HttpActivity::kVisit: feature = kVisit; break;
    case HttpActivity::kDownload: feature = kDownload; break;
    case HttpActivity::kUpload: feature = kUpload; break;
  }
  cube_->Accumulate(e.user, feature, date, partition_.FrameOf(e.ts));
}

}  // namespace acobe
