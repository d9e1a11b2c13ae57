#ifndef DIVA_COMMON_TRACE_H_
#define DIVA_COMMON_TRACE_H_

/// Span tracing: where the wall time of a run went, phase by phase and
/// loop by loop, exportable as Chrome-trace / Perfetto JSON.
///
///   {
///     DIVA_TRACE_SPAN("diva/clustering");   // RAII: closes on scope exit
///     ...
///   }
///   DIVA_TRACE_SPAN_RANGE("pool/loop", 0, chunks);  // + index range
///
/// Design contract (docs/development.md "Observability"):
///
///   * DISABLED (the default) a span site costs exactly one relaxed
///     atomic load — no clock read, no allocation, no branch beyond the
///     flag test. Benchmarks run with tracing off are byte- and
///     speed-identical to an untraced build (bench_smoke asserts the
///     wall-time ratio).
///   * ENABLED, every thread appends to its own fixed-capacity ring
///     buffer: a single-writer vector whose published size is
///     release-stored after the slot is written, so Collect() — which
///     acquire-loads the size and reads only that prefix — is race-free
///     against in-flight writers (the tsan CI leg runs with tracing on
///     at DIVA_THREADS=8). No lock is ever taken on the span path; the
///     registry mutex is touched once per thread per capture, at first
///     use.
///   * OVERFLOW drops the *newest* events (the earliest spans — the ones
///     that explain where time went — survive) and counts the drops;
///     DroppedEvents() says whether a capture is complete.
///
/// Timestamps come from MonotonicSeconds() (common/timer.h), the one
/// audited clock, converted to microseconds since Enable().
///
/// Counters are the other half of the observability layer — see
/// common/counters.h.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace diva {
namespace trace {

/// One closed span, as collected. Times are microseconds since the
/// capture's Enable() call; `tid` is a dense capture-local thread index
/// in registration order (not an OS id — stable enough to sort on and
/// small enough to read in a trace viewer).
struct SpanEvent {
  const char* name = "";
  double begin_us = 0.0;
  double dur_us = 0.0;
  uint32_t tid = 0;
  /// Nesting depth at the time the span opened (0 = top level). Sorting
  /// by (tid, begin_us, depth) lists every parent before its children.
  uint32_t depth = 0;
  /// Optional index range payload (DIVA_TRACE_SPAN_RANGE), rendered as
  /// {"begin":..,"end":..} args in the Chrome JSON.
  int64_t arg_begin = 0;
  int64_t arg_end = 0;
  bool has_range = false;
};

namespace internal {

/// The one global gate. Span sites load it relaxed and do nothing more
/// when it is false; no span-path data is written unless it is true, so
/// a stale read is always benign (a span is skipped or sent to a retired
/// buffer that is simply never collected).
extern std::atomic<bool> g_enabled;

struct ThreadBuffer;

/// Returns this thread's buffer for the current capture generation,
/// registering one (mutex, once per thread per capture) if needed.
std::shared_ptr<ThreadBuffer> AcquireThreadBuffer();

void AppendEvent(ThreadBuffer* buffer, const SpanEvent& event);

/// Capture-local nesting depth of the calling thread.
uint32_t EnterSpan();
void LeaveSpan();

uint32_t BufferTid(const ThreadBuffer* buffer);

}  // namespace internal

/// Starts a new capture: clears all previous events, resets thread ids,
/// re-arms every span site. Safe to call at any time; spans already open
/// keep writing to their retired buffers and are not collected.
void Enable();

/// Stops recording (span sites go back to one relaxed load). Collected
/// events survive until the next Enable().
void Disable();

bool IsEnabled();

/// Per-thread ring capacity in events. Takes effect for buffers created
/// by the *next* Enable(); the default is 65536 events per thread.
void SetRingCapacity(size_t events_per_thread);

/// Events dropped to overflow since the last Enable().
uint64_t DroppedEvents();

/// Thread buffers registered since the last Enable() (test hook: proves
/// the disabled path never touches the registry).
size_t ActiveBufferCount();

/// Snapshot of every closed span, sorted by (tid, begin_us, depth).
/// Callable while tracing is live: only the published prefix of each
/// buffer is read.
std::vector<SpanEvent> Collect();

/// Serializes events as Chrome-trace JSON ("traceEvents" complete
/// events, ph:"X", ts/dur in microseconds). Deterministic: the same
/// vector always yields the same bytes. Open the file in ui.perfetto.dev
/// or chrome://tracing.
std::string ToChromeJson(const std::vector<SpanEvent>& events);

/// Collect() + ToChromeJson() + write to `path`.
[[nodiscard]] Status WriteChromeTrace(const std::string& path);

/// RAII span. Prefer the macros below; the constructor bodies are inline
/// so the disabled path compiles down to the single flag load.
class Span {
 public:
  explicit Span(const char* name) {
    if (internal::g_enabled.load(std::memory_order_relaxed)) {
      Open(name, 0, 0, /*has_range=*/false);
    }
  }
  Span(const char* name, int64_t range_begin, int64_t range_end) {
    if (internal::g_enabled.load(std::memory_order_relaxed)) {
      Open(name, range_begin, range_end, /*has_range=*/true);
    }
  }
  ~Span() {
    if (buffer_ != nullptr) Close();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Open(const char* name, int64_t range_begin, int64_t range_end,
            bool has_range);
  void Close();

  /// Owning reference: keeps the buffer alive even if a new capture
  /// retires it from the registry while this span is open.
  std::shared_ptr<internal::ThreadBuffer> buffer_;
  const char* name_ = nullptr;
  double begin_s_ = 0.0;
  int64_t arg_begin_ = 0;
  int64_t arg_end_ = 0;
  uint32_t depth_ = 0;
  bool has_range_ = false;
};

}  // namespace trace
}  // namespace diva

#define DIVA_TRACE_CONCAT_IMPL_(a, b) a##b
#define DIVA_TRACE_CONCAT_(a, b) DIVA_TRACE_CONCAT_IMPL_(a, b)

/// Opens a span that closes at the end of the enclosing scope.
#define DIVA_TRACE_SPAN(name) \
  ::diva::trace::Span DIVA_TRACE_CONCAT_(diva_trace_span_, __LINE__)(name)

/// Span with an index-range payload (e.g. a parallel loop's chunk
/// indices [0, chunks)).
#define DIVA_TRACE_SPAN_RANGE(name, range_begin, range_end)          \
  ::diva::trace::Span DIVA_TRACE_CONCAT_(diva_trace_span_,           \
                                         __LINE__)((name),           \
                                                   (range_begin),    \
                                                   (range_end))

#endif  // DIVA_COMMON_TRACE_H_
