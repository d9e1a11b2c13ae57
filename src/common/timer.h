#ifndef DIVA_COMMON_TIMER_H_
#define DIVA_COMMON_TIMER_H_

#include <chrono>

namespace diva {

/// The one monotonic clock of the codebase. Every wall-clock measurement
/// (StopWatch, Deadline, DivaReport timings, benchmarks) reads this
/// helper; raw std::chrono clocks outside common/ are rejected by
/// tools/diva_analyze.py's `raw-clock` check so that timing behavior
/// stays in one audited place (and a test clock could be swapped in here
/// if ever needed).
inline double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic stopwatch for measuring wall-clock durations.
class StopWatch {
 public:
  StopWatch() : start_(MonotonicSeconds()) {}

  /// Resets the start point to now.
  void Restart() { start_ = MonotonicSeconds(); }

  /// Elapsed time since construction/Restart, in seconds.
  double ElapsedSeconds() const { return MonotonicSeconds() - start_; }

  /// Elapsed time in milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  double start_;
};

/// Writes the elapsed seconds since construction into `*out` on scope
/// exit — phase timings stay populated even when a phase ends through an
/// early (deadline or error) return path.
class PhaseTimer {
 public:
  explicit PhaseTimer(double* out) : out_(out) {}
  ~PhaseTimer() { *out_ = watch_.ElapsedSeconds(); }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* out_;
  StopWatch watch_;
};

}  // namespace diva

#endif  // DIVA_COMMON_TIMER_H_
