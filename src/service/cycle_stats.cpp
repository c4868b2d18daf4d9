#include "service/cycle_stats.h"

#include <algorithm>

#include "common/stats.h"
#include "common/telemetry.h"

namespace acobe::service {

CycleStatsRing::CycleStatsRing(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

void CycleStatsRing::Record(const CycleStat& stat) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(stat);
  } else {
    ring_[total_ % capacity_] = stat;
  }
  ++total_;
}

std::vector<CycleStat> CycleStatsRing::SnapshotLocked() const {
  std::vector<CycleStat> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;  // not yet wrapped: stored oldest-first already
  } else {
    const std::size_t head = total_ % capacity_;  // oldest element
    for (std::size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(head + i) % capacity_]);
    }
  }
  return out;
}

std::vector<CycleStat> CycleStatsRing::Recent(std::size_t n) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CycleStat> all = SnapshotLocked();
  if (n < all.size()) {
    all.erase(all.begin(), all.end() - static_cast<std::ptrdiff_t>(n));
  }
  return all;
}

std::size_t CycleStatsRing::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t CycleStatsRing::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

namespace {

CycleStatsRing::Rollup RollupOf(const std::vector<double>& values) {
  CycleStatsRing::Rollup r;
  r.count = values.size();
  if (values.empty()) return r;
  r.p50 = NearestRankQuantile(values, 0.50);
  r.p95 = NearestRankQuantile(values, 0.95);
  r.max = *std::max_element(values.begin(), values.end());
  return r;
}

}  // namespace

CycleStatsRing::Rollup CycleStatsRing::AlertLatency() const {
  std::vector<double> values;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const CycleStat& s : ring_) {
      if (s.alert_latency_s >= 0.0) values.push_back(s.alert_latency_s);
    }
  }
  return RollupOf(values);
}

CycleStatsRing::Rollup CycleStatsRing::CycleWall() const {
  std::vector<double> values;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const CycleStat& s : ring_) values.push_back(s.total_s);
  }
  return RollupOf(values);
}

void CycleStatsRing::ExportSloGauges() const {
  if (!telemetry::MetricsEnabled()) return;
  const Rollup alert = AlertLatency();
  const Rollup wall = CycleWall();
  ACOBE_GAUGE_SET("service.slo.alert_latency_p50_s", alert.p50);
  ACOBE_GAUGE_SET("service.slo.alert_latency_p95_s", alert.p95);
  ACOBE_GAUGE_SET("service.slo.cycle_wall_p50_s", wall.p50);
  ACOBE_GAUGE_SET("service.slo.cycle_wall_p95_s", wall.p95);
  ACOBE_GAUGE_SET("service.slo.cycles_observed",
                  static_cast<double>(total_recorded()));
}

}  // namespace acobe::service
