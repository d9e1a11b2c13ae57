#ifndef DIVA_COMMON_DEADLINE_H_
#define DIVA_COMMON_DEADLINE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace diva {

/// A point on the monotonic clock (common/timer.h) by which work must
/// finish. Deadlines are wall budgets, not CPU budgets: a run under a
/// 100 ms deadline returns within roughly that wall time no matter how
/// many threads it uses. Default-constructed deadlines never expire.
class Deadline {
 public:
  /// Never expires.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  /// Expires `ms` milliseconds from now (ms <= 0 = already expired).
  static Deadline AfterMillis(int64_t ms);

  /// Expires `seconds` seconds from now.
  static Deadline AfterSeconds(double seconds);

  bool is_infinite() const;

  /// True once the monotonic clock has passed the deadline.
  bool Expired() const;

  /// Seconds until expiry; negative once expired, +infinity when
  /// infinite.
  double RemainingSeconds() const;

 private:
  explicit Deadline(double expires_at) : expires_at_(expires_at) {}

  /// MonotonicSeconds() value at which the deadline expires.
  double expires_at_ = kNever;
  static constexpr double kNever = 1e300;
};

/// Cooperative cancellation signal, poll-cheap by design: a
/// default-constructed token is a single null-pointer test, an armed one
/// is one relaxed atomic load (plus a clock read until the deadline
/// latches). Copies share state, so a token handed to worker threads and
/// the token the coordinator trips are the same signal. Tokens trip at
/// most once and never un-trip.
class CancellationToken {
 public:
  /// Null token: Cancelled() is always false, RequestCancel is a no-op.
  CancellationToken() = default;

  /// Token that trips when `deadline` expires (or on RequestCancel).
  static CancellationToken WithDeadline(Deadline deadline);

  /// Token that trips only on RequestCancel.
  static CancellationToken Manual();

  /// Token that trips when `deadline` expires, on its own RequestCancel,
  /// or when `parent` trips — the serve layer's per-request shape: the
  /// child watches the request deadline while the parent is the server's
  /// stop token. Cancelling the child never propagates to the
  /// parent. A null parent behaves exactly like WithDeadline.
  static CancellationToken WithDeadlineAndParent(Deadline deadline,
                                                 CancellationToken parent);

  /// Trips the token (idempotent; no-op on a null token).
  void RequestCancel() const;

  /// True once the token tripped — manually or because its deadline
  /// expired. The deadline check latches into the shared flag, so after
  /// the first expired poll every subsequent poll is one atomic load.
  bool Cancelled() const;

  /// The deadline this token watches (Infinite for manual/null tokens).
  Deadline deadline() const;

  /// False for default-constructed (never-cancellable) tokens.
  bool CanBeCancelled() const { return state_ != nullptr; }

 private:
  struct State;
  explicit CancellationToken(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// Convenience: a kDeadlineExceeded Status naming the phase that hit it.
Status DeadlineExceededStatus(const std::string& phase);

}  // namespace diva

#endif  // DIVA_COMMON_DEADLINE_H_
