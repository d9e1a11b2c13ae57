#ifndef DIVA_COMMON_COUNTERS_H_
#define DIVA_COMMON_COUNTERS_H_

/// Process-wide counter / histogram registry: cheap enough to leave on
/// permanently (unlike spans, counters have no off switch — they are
/// part of every DivaReport).
///
///   DIVA_COUNTER_ADD("coloring.backtracks", 1);
///   DIVA_HISTOGRAM_RECORD("diva.cluster_size", cluster.size());
///
/// Each macro site resolves its cell once (a function-local static) and
/// thereafter costs one relaxed fetch_add — commutative, so totals are
/// identical no matter which thread executes which piece of work.
///
/// Counters carry a Scope:
///
///   * kDeterministic — derived from the algorithm's decisions alone;
///     byte-identical across thread widths and across runs with the same
///     seed. tests/determinism_test.cc folds these into its fingerprint.
///   * kExecution — describes how the work was scheduled (pool chunks,
///     steal counts, deadline polls). Legitimately varies with pool
///     width and timing; excluded from determinism comparisons, still
///     reported.
///
/// Snapshots are sorted by name, so their JSON is deterministic given
/// deterministic values. RunDiva reports the per-run *delta* between the
/// snapshot at entry and at exit (histogram min/max are cumulative —
/// they cannot be differenced — and are reported as-is).

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace diva {
namespace counters {

enum class Scope {
  kDeterministic,
  kExecution,
};

enum class Kind {
  kCounter,
  kHistogram,
};

/// Registry storage for one named metric. 64-byte aligned so two hot
/// cells never share a cache line.
struct alignas(64) Cell {
  std::atomic<uint64_t> value{0};  // counter total / histogram count
  std::atomic<uint64_t> sum{0};
  std::atomic<uint64_t> min{UINT64_MAX};
  std::atomic<uint64_t> max{0};
};

/// Returns the cell for `name`, creating it on first use (mutex; the
/// macros cache the pointer so this runs once per site). Registering an
/// existing name returns the same cell; kind/scope stick from the first
/// registration.
Cell* Register(const char* name, Kind kind, Scope scope);

inline void Add(Cell* cell, uint64_t delta) {
  cell->value.fetch_add(delta, std::memory_order_relaxed);
}

/// Deferred batch of deterministic-scope updates. Work whose telemetry
/// must land in a fixed order, or not at all, records into a Buffer
/// instead of the global cells: each shard's reuse record keeps the
/// buffer its run filled, and the shard driver commits a copy of every
/// record's buffer in shard-index order (none when a shard fails), the
/// same replay a later delta that adopts the record performs. Not
/// thread-safe: one buffer belongs to one worker at a time.
class Buffer {
 public:
  void Add(Cell* cell, uint64_t delta);
  void Record(Cell* cell, uint64_t value);

  /// Applies every buffered update to the global cells (in insertion
  /// order, though order is immaterial — the ops commute) and clears.
  void Commit();

  /// Drops all buffered updates without applying them.
  void Discard();

  bool empty() const { return ops_.empty(); }

 private:
  struct Op {
    Cell* cell;
    bool histogram;
    uint64_t value;
  };
  std::vector<Op> ops_;
};

/// Thread-local redirect consulted by the deterministic-scope macros.
/// Null (the default) means updates go straight to the global cells.
/// constinit matters: without it every cross-TU read goes through the
/// dynamic-init thread wrapper, which GCC's ubsan misreports as a null
/// load on threads that read before they ever write (serve sessions).
extern constinit thread_local Buffer* tl_deterministic_buffer;

/// RAII: while alive, deterministic-scope updates made on the current
/// thread accumulate in `buffer` instead of the registry. Execution-
/// scope updates are never redirected — they are allowed to see
/// discarded work. Nests: the previous redirect is restored on exit.
class ScopedBufferedCounters {
 public:
  explicit ScopedBufferedCounters(Buffer* buffer)
      : previous_(tl_deterministic_buffer) {
    tl_deterministic_buffer = buffer;
  }
  ~ScopedBufferedCounters() { tl_deterministic_buffer = previous_; }

  ScopedBufferedCounters(const ScopedBufferedCounters&) = delete;
  ScopedBufferedCounters& operator=(const ScopedBufferedCounters&) = delete;

 private:
  Buffer* previous_;
};

inline void Record(Cell* cell, uint64_t value) {
  cell->value.fetch_add(1, std::memory_order_relaxed);
  cell->sum.fetch_add(value, std::memory_order_relaxed);
  uint64_t seen = cell->min.load(std::memory_order_relaxed);
  while (value < seen &&
         !cell->min.compare_exchange_weak(seen, value,
                                          std::memory_order_relaxed)) {
  }
  seen = cell->max.load(std::memory_order_relaxed);
  while (value > seen &&
         !cell->max.compare_exchange_weak(seen, value,
                                          std::memory_order_relaxed)) {
  }
}

/// Deterministic-scope entry points: honor the thread-local buffer
/// redirect. The execution-scope macros bypass these on purpose.
inline void AddDeterministic(Cell* cell, uint64_t delta) {
  if (Buffer* buffer = tl_deterministic_buffer) {
    buffer->Add(cell, delta);
    return;
  }
  Add(cell, delta);
}

inline void RecordDeterministic(Cell* cell, uint64_t value) {
  if (Buffer* buffer = tl_deterministic_buffer) {
    buffer->Record(cell, value);
    return;
  }
  Record(cell, value);
}

/// One registry entry as observed at a point in time.
struct Sample {
  std::string name;
  Kind kind = Kind::kCounter;
  Scope scope = Scope::kDeterministic;
  uint64_t value = 0;  // counter total / histogram observation count
  uint64_t sum = 0;    // histograms only
  uint64_t min = 0;    // histograms only; 0 when no observations
  uint64_t max = 0;

  friend bool operator==(const Sample& a, const Sample& b) = default;
};

/// Every registered metric, sorted by name.
std::vector<Sample> Snapshot();

/// Per-name difference `after - before` (names only in `after` count
/// from zero). value/sum subtract; histogram min/max are cumulative and
/// copied from `after`. Both inputs must be Snapshot()-sorted.
std::vector<Sample> Delta(const std::vector<Sample>& before,
                          const std::vector<Sample>& after);

/// `{"name":value,...}` with histograms rendered as
/// `{"count":..,"sum":..,"min":..,"max":..}`. Deterministic bytes for
/// deterministic samples.
std::string ToJson(const std::vector<Sample>& samples);

/// Keeps only samples with the given scope (e.g. the deterministic ones
/// for a cross-width comparison).
std::vector<Sample> FilterScope(const std::vector<Sample>& samples,
                                Scope scope);

/// Zeroes every cell. Not synchronized against concurrent Add/Record —
/// tests only.
void ResetForTest();

}  // namespace counters
}  // namespace diva

#define DIVA_COUNTER_CELL_(name, kind, scope)                       \
  [] {                                                              \
    static ::diva::counters::Cell* cell = ::diva::counters::Register( \
        name, ::diva::counters::Kind::kind,                         \
        ::diva::counters::Scope::scope);                            \
    return cell;                                                    \
  }()

/// Adds `delta` to a deterministic counter (identical totals at every
/// thread width). Honors the ScopedBufferedCounters redirect so
/// buffered work stays out of the fingerprint until committed.
#define DIVA_COUNTER_ADD(name, delta)                                 \
  ::diva::counters::AddDeterministic(                                 \
      DIVA_COUNTER_CELL_(name, kCounter, kDeterministic),             \
      static_cast<uint64_t>(delta))

/// Adds `delta` to an execution counter (scheduling-dependent: pool
/// chunks, steals, polls — excluded from determinism fingerprints).
#define DIVA_COUNTER_ADD_EXEC(name, delta)                        \
  ::diva::counters::Add(                                          \
      DIVA_COUNTER_CELL_(name, kCounter, kExecution),             \
      static_cast<uint64_t>(delta))

/// Records one observation into a deterministic histogram. Honors the
/// ScopedBufferedCounters redirect like DIVA_COUNTER_ADD.
#define DIVA_HISTOGRAM_RECORD(name, value)                          \
  ::diva::counters::RecordDeterministic(                            \
      DIVA_COUNTER_CELL_(name, kHistogram, kDeterministic),         \
      static_cast<uint64_t>(value))

/// Records one observation into an execution histogram.
#define DIVA_HISTOGRAM_RECORD_EXEC(name, value)                 \
  ::diva::counters::Record(                                     \
      DIVA_COUNTER_CELL_(name, kHistogram, kExecution),         \
      static_cast<uint64_t>(value))

#endif  // DIVA_COMMON_COUNTERS_H_
