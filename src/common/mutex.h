#ifndef DIVA_COMMON_MUTEX_H_
#define DIVA_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace diva {

/// Annotated mutex: the one sanctioned lock type in this codebase.
///
/// Wrapping `std::mutex` in a `DIVA_CAPABILITY` type is what lets
/// Clang's `-Wthread-safety` prove locking invariants statically: every
/// shared field is declared `DIVA_GUARDED_BY(mu)` and an access without
/// the lock held is a compile error, on every translation unit, under
/// every schedule — where tsan can only catch the interleavings a test
/// happens to produce. Raw `std::mutex` declarations outside this file
/// are rejected by tools/diva_analyze.py (check `raw-mutex`).
///
/// Prefer the scoped `MutexLock`; call `Lock`/`Unlock` directly only
/// when scope-based locking cannot express the pattern.
class DIVA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DIVA_ACQUIRE() { mu_.lock(); }
  void Unlock() DIVA_RELEASE() { mu_.unlock(); }
  bool TryLock() DIVA_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;

  std::mutex mu_;
};

/// Tag type selecting the lock-adopting MutexLock constructor.
struct AdoptLock {};
inline constexpr AdoptLock kAdoptLock{};

/// RAII scoped lock over `Mutex` (replaces `std::lock_guard` /
/// `std::unique_lock`). The adopting form takes over a mutex the caller
/// already holds — e.g. one acquired conditionally via `TryLock` — so
/// the unlock still happens on every exit path, including unwinding.
class DIVA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DIVA_ACQUIRE(mu) : lock_(mu.mu_) {}
  MutexLock(Mutex& mu, AdoptLock) DIVA_REQUIRES(mu)
      : lock_(mu.mu_, std::adopt_lock) {}
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() DIVA_RELEASE() {}  // lock_ releases in its own dtor

 private:
  friend class CondVar;

  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with `Mutex`.
///
/// `Wait` atomically releases the lock held by `lock` and reacquires it
/// before returning. To the static analysis the capability is held
/// across the call (release/reacquire nets out), which matches how
/// callers reason about it; always re-test the predicate in a loop:
///
///     MutexLock lock(mu);
///     while (!ready) cv.Wait(lock);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  /// Timed Wait: blocks for at most `seconds` (relative). Returns false
  /// on timeout, true when notified. This is also the codebase's one
  /// interruptible sleep — loops that must wake early (a server's
  /// session worker noticing a drain request) wait on the condition they
  /// poll instead of calling a raw sleep the notifier cannot interrupt.
  bool WaitFor(MutexLock& lock, double seconds) {
    return cv_.wait_for(lock.lock_, std::chrono::duration<double>(seconds)) ==
           std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace diva

#endif  // DIVA_COMMON_MUTEX_H_
