#ifndef DIVA_COMMON_PARALLEL_H_
#define DIVA_COMMON_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace diva {

/// The one audited concurrency abstraction of the codebase (enforced by
/// tools/diva_analyze.py's `raw-thread` check: raw std::thread /
/// std::jthread / std::async may appear only in common/parallel.*). Work is partitioned into index chunks whose
/// boundaries depend solely on (count, grain) — never on the thread count
/// or on completion order — and chunk results are always gathered by
/// index, so every parallel algorithm built on this layer is bit-identical
/// across thread counts by construction (see docs/development.md,
/// "Threading model").

/// Thread-count knob semantics, shared by DIVA_THREADS and
/// DivaOptions::threads: 0 = one thread per hardware core, 1 = exact
/// sequential execution (same code path, no workers), N = N threads.
/// Resolves 0 to the detected hardware concurrency (at least 1).
size_t ResolveThreadCount(size_t threads);

/// Detected hardware concurrency (>= 1). Call this instead of
/// std::thread::hardware_concurrency() — the `raw-thread` check rejects
/// raw thread APIs in every file but common/parallel.*.
size_t HardwareConcurrency();

/// The DIVA_THREADS environment knob, parsed per call: unset or
/// unparsable => 1 (sequential), otherwise the raw (unresolved) value.
size_t EnvThreads();

/// A fixed-size pool of worker threads executing blocking fork-join
/// loops. One loop runs at a time per pool; the submitting thread works
/// too, so a pool of width N keeps N-1 workers. Construction with an
/// (effective) width of 1 spawns no workers and every loop runs inline
/// through the identical chunking code.
class ThreadPool {
 public:
  /// `threads` follows the knob semantics above (0 = hardware cores).
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width (workers + the submitting thread).
  size_t threads() const;

  /// Runs body(begin, end) over consecutive chunks partitioning
  /// [0, count), each at most `grain` indices (grain 0 = auto). Blocks
  /// until every chunk finished. The first exception thrown by `body` is
  /// rethrown here once all in-flight chunks drain; chunks not yet
  /// claimed at that point are cancelled. Calling ParallelFor from
  /// inside a running body — on this or any pool — throws
  /// std::logic_error: nested use is rejected, because the inner loop
  /// would block a worker the outer loop needs. If another thread is
  /// already running a loop on this pool, the call degrades to inline
  /// sequential execution of the same chunks. Only an exception stops a
  /// loop early; phases that can stop early poll their own token between
  /// their own steps.
  void ParallelFor(size_t count, size_t grain,
                   const std::function<void(size_t, size_t)>& body);

 private:
  struct Impl;
  Impl* impl_;
};

/// ---------------------------------------------------------------------
/// Process-global pool. All library call sites go through these free
/// functions; the pool is created lazily from DIVA_THREADS and resized by
/// SetParallelThreads (which RunDiva calls with DivaOptions::threads).

/// Current resolved width of the global pool.
size_t ParallelThreads();

/// Reconfigures the global pool (knob semantics above). Safe to call
/// while other threads hold loops on the previous pool: they finish on
/// the old pool, which is reclaimed when its last user releases it.
void SetParallelThreads(size_t threads);

/// ParallelFor on the global pool.
void ParallelFor(size_t count, size_t grain,
                 const std::function<void(size_t, size_t)>& body);

/// The one executor for coarse tasks: dedicated threads running
/// submitted closures with DETERMINISTIC CLAIM ORDERING — pending items
/// are claimed strictly in submission (FIFO) order, never by arrival
/// luck. Unlike ParallelFor bodies, items may use ParallelFor (when
/// several hit the global pool at once, one wins it and the rest run
/// inline). The submitter collects a ticket per item and settles them
/// later, in any order it likes. The shard driver runs one item per
/// conflict component, the portfolio coloring one per search; the
/// serving daemon hosts its accept and session loops on one.
///
/// Claimed items always run to completion. Destroying the group retracts
/// every item nobody claimed yet, so a caller whose Wait threw can unwind
/// without running the rest of its batch.
class TaskGroup {
 public:
  /// Spawns exactly `workers` dedicated threads (0 is allowed: every
  /// item then runs inline inside Wait's helping loop).
  explicit TaskGroup(size_t workers);

  /// Retracts all still-pending items and joins the workers. Claimed
  /// items finish first.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  size_t workers() const;

  /// Enqueues `fn` and returns its ticket. Tickets are dense and
  /// ascending in submission order.
  uint64_t Submit(std::function<void()> fn);

  /// Blocks until the item behind `ticket` has run, then rethrows the
  /// first exception it raised (if any). While waiting, the caller helps:
  /// it claims and runs pending items in FIFO order (possibly the waited
  /// item itself), so progress never depends on a worker being free.
  void Wait(uint64_t ticket);

 private:
  struct Impl;
  Impl* impl_;
};

/// Applies fn(i) to every i in [0, count), gathering results by index —
/// the output vector is identical for every thread count.
template <typename T, typename Fn>
std::vector<T> ParallelMap(size_t count, size_t grain, Fn&& fn) {
  std::vector<T> out(count);
  ParallelFor(count, grain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) out[i] = fn(i);
  });
  return out;
}

/// Deterministic chunked reduction: map_chunk(begin, end) produces one
/// partial per chunk; partials are combined left-to-right in ascending
/// chunk order (never completion order), so even non-associative folds
/// (floating point) give one bit-stable answer for every thread count.
/// grain 0 picks a chunk size that is a pure function of `count`.
template <typename T, typename MapFn, typename CombineFn>
T ParallelReduce(size_t count, size_t grain, T init, MapFn&& map_chunk,
                 CombineFn&& combine) {
  if (count == 0) return init;
  if (grain == 0) grain = count / 64 + 1;
  size_t chunks = (count + grain - 1) / grain;
  std::vector<T> partials(chunks, init);
  ParallelFor(chunks, 1, [&](size_t chunk_begin, size_t chunk_end) {
    for (size_t c = chunk_begin; c < chunk_end; ++c) {
      size_t begin = c * grain;
      size_t end = begin + grain < count ? begin + grain : count;
      partials[c] = map_chunk(begin, end);
    }
  });
  T total = std::move(partials[0]);
  for (size_t c = 1; c < chunks; ++c) {
    total = combine(std::move(total), std::move(partials[c]));
  }
  return total;
}

}  // namespace diva

#endif  // DIVA_COMMON_PARALLEL_H_
