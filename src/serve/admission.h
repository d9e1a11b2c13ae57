#ifndef DIVA_SERVE_ADMISSION_H_
#define DIVA_SERVE_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace diva {
namespace serve {

/// Admission control for diva_serverd: reject work the server provably
/// cannot finish in time *before* it consumes a slot, instead of letting
/// a deadline-doomed request occupy a session worker and then time out
/// anyway. The decision itself is a pure function (DecideAdmission) so
/// the policy is unit-testable without a socket in sight.

/// Thread-safe exponentially weighted moving average of observed
/// per-request service cost, in milliseconds. Seeded with a prior so the
/// very first request has an estimate to decide with.
class CostTracker {
 public:
  /// Weight of the newest sample.
  static constexpr double kAlpha = 0.3;

  /// `initial_ms` is the estimate before any sample.
  explicit CostTracker(double initial_ms) : estimate_ms_(initial_ms) {}

  void Record(double cost_ms) {
    MutexLock lock(mutex_);
    estimate_ms_ = kAlpha * cost_ms + (1.0 - kAlpha) * estimate_ms_;
  }

  double EstimateMs() const {
    MutexLock lock(mutex_);
    return estimate_ms_;
  }

 private:
  mutable Mutex mutex_;
  double estimate_ms_ DIVA_GUARDED_BY(mutex_);
};

/// Everything the admission decision saw, for the response message and
/// the shed-rate accounting.
struct AdmissionDecision {
  bool admit = true;
  /// Cost model: requests ahead of this one (queued + inflight) times the
  /// observed per-request cost. The request's own service time is *not*
  /// added — an empty server admits even an already-expired deadline and
  /// lets the anytime pipeline produce the audited degraded response.
  double predicted_wait_ms = 0.0;
  /// Empty when admitted, otherwise why the request was shed.
  std::string reason;
};

/// The pure admission policy. `deadline_ms` < 0 means the request has no
/// deadline; >= 0 is its wall budget (0 = already expired — still
/// admitted on an idle server, see AdmissionDecision). Rejections, in
/// order of precedence: draining, queue full, predicted wait exceeding
/// the deadline.
AdmissionDecision DecideAdmission(size_t queued, size_t inflight,
                                  size_t max_queue, double cost_estimate_ms,
                                  int64_t deadline_ms, bool draining);

}  // namespace serve
}  // namespace diva

#endif  // DIVA_SERVE_ADMISSION_H_
