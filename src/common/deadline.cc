#include "common/deadline.h"

#include <atomic>

#include "common/counters.h"
#include "common/timer.h"

namespace diva {

Deadline Deadline::AfterMillis(int64_t ms) {
  return Deadline(MonotonicSeconds() + static_cast<double>(ms) * 1e-3);
}

Deadline Deadline::AfterSeconds(double seconds) {
  return Deadline(MonotonicSeconds() + seconds);
}

bool Deadline::is_infinite() const { return expires_at_ >= kNever; }

bool Deadline::Expired() const {
  return !is_infinite() && MonotonicSeconds() >= expires_at_;
}

double Deadline::RemainingSeconds() const {
  if (is_infinite()) return kNever;
  return expires_at_ - MonotonicSeconds();
}

struct CancellationToken::State {
  std::atomic<bool> cancelled{false};
  Deadline deadline;
  /// Optional upstream signal: when the parent trips, this token reads as
  /// cancelled too (latched locally so later polls skip the chain).
  CancellationToken parent;
};

CancellationToken CancellationToken::WithDeadline(Deadline deadline) {
  auto state = std::make_shared<State>();
  state->deadline = deadline;
  return CancellationToken(std::move(state));
}

CancellationToken CancellationToken::Manual() {
  return CancellationToken(std::make_shared<State>());
}

CancellationToken CancellationToken::WithDeadlineAndParent(
    Deadline deadline, CancellationToken parent) {
  auto state = std::make_shared<State>();
  state->deadline = deadline;
  state->parent = std::move(parent);
  return CancellationToken(std::move(state));
}

void CancellationToken::RequestCancel() const {
  if (state_ != nullptr) {
    state_->cancelled.store(true, std::memory_order_relaxed);
  }
}

bool CancellationToken::Cancelled() const {
  if (state_ == nullptr) return false;
  // Execution-scoped: how often a run polls depends on chunking and
  // timing, not on the algorithm's decisions.
  DIVA_COUNTER_ADD_EXEC("deadline.polls", 1);
  if (state_->cancelled.load(std::memory_order_relaxed)) return true;
  if (state_->deadline.Expired() || state_->parent.Cancelled()) {
    // Latch: later polls skip the clock read and the parent chain.
    state_->cancelled.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

Deadline CancellationToken::deadline() const {
  return state_ == nullptr ? Deadline::Infinite() : state_->deadline;
}

Status DeadlineExceededStatus(const std::string& phase) {
  return Status::DeadlineExceeded("deadline expired during " + phase);
}

}  // namespace diva
