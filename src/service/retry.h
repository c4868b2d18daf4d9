#pragma once

// Deterministic retry/backoff policy for the resident service.
//
// A shard whose detection cycle throws retries under this policy before
// it is quarantined: capped exponential backoff with seeded jitter. The
// jitter stream is an Rng (common/rng.h), so two policies built from the
// same config produce the identical delay sequence — which is what lets
// the unit tests pin scheduling behavior instead of sleeping and hoping.

#include <cstdint>
#include <optional>

#include "common/rng.h"

namespace acobe {

struct BackoffConfig {
  /// Retries granted after the first failure; 0 means fail fast.
  int max_retries = 3;
  /// Delay before retry #1, milliseconds.
  double base_ms = 100.0;
  /// Growth factor per retry.
  double multiplier = 2.0;
  /// Ceiling on the pre-jitter delay.
  double cap_ms = 30000.0;
  /// Jitter as a fraction of the pre-jitter delay: the delay is drawn
  /// uniformly from [delay * (1 - jitter), delay * (1 + jitter)].
  double jitter = 0.2;
  /// Seed for the jitter stream.
  std::uint64_t seed = 0x5eed;
};

class BackoffPolicy {
 public:
  explicit BackoffPolicy(BackoffConfig config = {});

  /// Records a failure. Returns the delay (ms) to wait before the next
  /// attempt, or nullopt when the retry budget is exhausted.
  std::optional<double> OnFailure();

  /// Records a success: the failure count resets and the jitter stream
  /// is re-seeded, so the next failure sequence replays exactly as a
  /// fresh policy's would.
  void OnSuccess();

  int failures() const { return failures_; }
  const BackoffConfig& config() const { return config_; }

 private:
  BackoffConfig config_;
  Rng rng_;
  int failures_ = 0;
};

}  // namespace acobe
