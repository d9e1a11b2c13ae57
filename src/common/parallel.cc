#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "common/counters.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/trace.h"

namespace diva {

namespace {

/// Set while this thread executes a ParallelFor body (worker or
/// submitter side); a ParallelFor entered under it is nested use.
thread_local bool tl_in_parallel_body = false;

class BodyScope {
 public:
  BodyScope() { tl_in_parallel_body = true; }
  ~BodyScope() { tl_in_parallel_body = false; }
};

size_t AutoGrain(size_t count, size_t threads) {
  // ~4 chunks per thread: enough slack to absorb uneven chunk costs
  // without shrinking chunks into scheduling noise. Depends only on the
  // pool's fixed width — never on how many threads happen to be idle —
  // so the partition (and every gather-by-index result built on it) is
  // stable for a given pool configuration. A width-1 pool takes the same
  // route with threads = 1.
  size_t target = threads * 4;
  return count / target + 1;
}

/// One fork-join invocation. Heap-allocated and shared_ptr-held by every
/// participating thread, so a worker that straggles past the join can
/// only ever touch the (kept-alive, exhausted) job it signed up for,
/// never the state of a subsequent job.
struct Job {
  const std::function<void(size_t, size_t)>* body = nullptr;
  size_t count = 0;
  size_t grain = 0;
  size_t chunks = 0;
  std::atomic<size_t> next_chunk{0};

  Mutex mutex;
  CondVar done_cv;
  size_t completed_chunks DIVA_GUARDED_BY(mutex) = 0;
  std::exception_ptr first_error DIVA_GUARDED_BY(mutex);

  /// Marks every not-yet-claimed chunk as cancelled: no thread will run
  /// them, so account for them as completed. Claims are monotonic
  /// (fetch_add), so every chunk claimed before the exchange drains to
  /// completion and counts itself.
  void CancelUnclaimedLocked() DIVA_REQUIRES(mutex) {
    size_t raw = next_chunk.exchange(chunks, std::memory_order_relaxed);
    size_t claimed = raw < chunks ? raw : chunks;
    DIVA_COUNTER_ADD_EXEC("pool.chunks_cancelled", chunks - claimed);
    completed_chunks += chunks - claimed;
  }

  /// Claims and runs chunks until none remain. Any thread may call this;
  /// chunk -> index-range mapping is fixed by (count, grain) alone.
  /// `is_worker` is observability-only: it decides whether a completed
  /// chunk counts as stolen (run by a pool worker rather than the
  /// submitting thread).
  void RunChunks(bool is_worker) {
    while (true) {
      size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunks) return;
      size_t begin = chunk * grain;
      size_t end = begin + grain < count ? begin + grain : count;
      DIVA_COUNTER_ADD_EXEC("pool.chunks", 1);
      if (is_worker) DIVA_COUNTER_ADD_EXEC("pool.chunks_stolen", 1);
      std::exception_ptr error;
      try {
        BodyScope scope;
        (*body)(begin, end);
      } catch (...) {
        error = std::current_exception();
      }
      MutexLock lock(mutex);
      if (error != nullptr) {
        if (first_error == nullptr) first_error = error;
        CancelUnclaimedLocked();
      }
      if (++completed_chunks == chunks) done_cv.NotifyAll();
    }
  }

  /// Blocks until every chunk completed (or was cancelled).
  void Join() {
    MutexLock lock(mutex);
    while (completed_chunks != chunks) done_cv.Wait(lock);
  }

  /// First exception any chunk raised, if any. Call after Join.
  std::exception_ptr FirstError() {
    MutexLock lock(mutex);
    return first_error;
  }
};

void RunInline(size_t count, size_t grain,
               const std::function<void(size_t, size_t)>& body) {
  DIVA_COUNTER_ADD_EXEC("pool.inline_loops", 1);
  for (size_t begin = 0; begin < count; begin += grain) {
    size_t end = begin + grain < count ? begin + grain : count;
    DIVA_COUNTER_ADD_EXEC("pool.chunks", 1);
    BodyScope scope;
    body(begin, end);
  }
}

}  // namespace

size_t HardwareConcurrency() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t ResolveThreadCount(size_t threads) {
  return threads == 0 ? HardwareConcurrency() : threads;
}

size_t EnvThreads() {
  const char* env = std::getenv("DIVA_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  long value = std::strtol(env, &end, 10);
  if (end == env || value < 0) return 1;
  return static_cast<size_t>(value);
}

struct ThreadPool::Impl {
  size_t threads = 1;

  Mutex mutex;
  CondVar work_cv;                       // workers: new job or shutdown
  /// Bumped per submitted job.
  uint64_t generation DIVA_GUARDED_BY(mutex) = 0;
  /// Null between jobs.
  std::shared_ptr<Job> current_job DIVA_GUARDED_BY(mutex);
  bool shutdown DIVA_GUARDED_BY(mutex) = false;

  Mutex submit_mutex;                    // one fork-join loop at a time
  std::vector<std::thread> workers;

  void WorkerLoop() {
    uint64_t seen = 0;
    while (true) {
      std::shared_ptr<Job> job;
      {
        MutexLock lock(mutex);
        while (!shutdown && generation == seen) work_cv.Wait(lock);
        if (shutdown) return;
        seen = generation;
        job = current_job;  // may be null if the job already retired
      }
      if (job != nullptr) job->RunChunks(/*is_worker=*/true);
    }
  }
};

ThreadPool::ThreadPool(size_t threads) : impl_(new Impl) {
  impl_->threads = ResolveThreadCount(threads);
  impl_->workers.reserve(impl_->threads - 1);
  for (size_t i = 0; i + 1 < impl_->threads; ++i) {
    impl_->workers.emplace_back([impl = impl_] { impl->WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(impl_->mutex);
    impl_->shutdown = true;
  }
  impl_->work_cv.NotifyAll();
  for (std::thread& worker : impl_->workers) worker.join();
  delete impl_;
}

size_t ThreadPool::threads() const { return impl_->threads; }

void ThreadPool::ParallelFor(
    size_t count, size_t grain,
    const std::function<void(size_t, size_t)>& body) {
  if (count == 0) return;
  if (tl_in_parallel_body) {
    throw std::logic_error(
        "nested ParallelFor: a parallel body may not start another "
        "parallel loop (the inner loop would block a worker the outer "
        "loop owns)");
  }
  DIVA_COUNTER_ADD_EXEC("pool.loops", 1);
  if (grain == 0) grain = AutoGrain(count, impl_->threads);
  size_t chunks = (count + grain - 1) / grain;
  // One span per loop on the submitting thread; its range is the loop's
  // chunk indices [0, chunks).
  DIVA_TRACE_SPAN_RANGE("pool/loop", 0, static_cast<int64_t>(chunks));
  if (impl_->threads == 1 || chunks == 1) {
    RunInline(count, grain, body);
    return;
  }
  if (!impl_->submit_mutex.TryLock()) {
    // Another thread is mid-loop on this pool (e.g. two portfolio
    // searches enumerating concurrently): degrade to inline execution of
    // the identical chunks rather than queueing behind it.
    RunInline(count, grain, body);
    return;
  }
  // Adopt the try-acquired submit lock so every exit path below —
  // including the rethrow — releases it.
  MutexLock submit(impl_->submit_mutex, kAdoptLock);
  auto job = std::make_shared<Job>();
  job->body = &body;
  job->count = count;
  job->grain = grain;
  job->chunks = chunks;
  {
    MutexLock lock(impl_->mutex);
    impl_->current_job = job;
    ++impl_->generation;
  }
  impl_->work_cv.NotifyAll();
  job->RunChunks(/*is_worker=*/false);  // the submitter participates
  job->Join();
  {
    MutexLock lock(impl_->mutex);
    impl_->current_job = nullptr;
  }
  if (std::exception_ptr error = job->FirstError()) {
    std::rethrow_exception(error);
  }
}

namespace {

Mutex g_pool_mutex;
std::shared_ptr<ThreadPool> g_pool
    DIVA_GUARDED_BY(g_pool_mutex);  // created lazily

std::shared_ptr<ThreadPool> GlobalPool() {
  MutexLock lock(g_pool_mutex);
  if (g_pool == nullptr) {
    g_pool = std::make_shared<ThreadPool>(EnvThreads());
  }
  return g_pool;
}

}  // namespace

size_t ParallelThreads() { return GlobalPool()->threads(); }

void SetParallelThreads(size_t threads) {
  size_t resolved = ResolveThreadCount(threads);
  std::shared_ptr<ThreadPool> retired;  // joined after the lock drops
  {
    MutexLock lock(g_pool_mutex);
    if (g_pool != nullptr && g_pool->threads() == resolved) return;
    retired = std::move(g_pool);
    g_pool = std::make_shared<ThreadPool>(resolved);
  }
}

void ParallelFor(size_t count, size_t grain,
                 const std::function<void(size_t, size_t)>& body) {
  GlobalPool()->ParallelFor(count, grain, body);
}

struct TaskGroup::Impl {
  enum class State { kPending, kClaimed, kDone };

  struct Item {
    std::function<void()> fn;
    State state = State::kPending;
    std::exception_ptr error;
  };

  size_t worker_count = 0;

  Mutex mutex;
  CondVar work_cv;  // workers: pending item arrived or shutdown
  CondVar done_cv;  // waiters: an item transitioned to kDone
  std::map<uint64_t, Item> items DIVA_GUARDED_BY(mutex);
  /// Tickets of kPending items, FIFO. The front is always the lowest
  /// outstanding ticket, which is what makes claim order deterministic.
  std::deque<uint64_t> pending DIVA_GUARDED_BY(mutex);
  uint64_t next_ticket DIVA_GUARDED_BY(mutex) = 0;
  bool shutdown DIVA_GUARDED_BY(mutex) = false;

  std::vector<std::thread> threads;

  /// Pops the FIFO-front pending item and marks it claimed. Caller must
  /// then RunItem it. Requires !pending.empty().
  std::pair<uint64_t, std::function<void()>> ClaimFrontLocked()
      DIVA_REQUIRES(mutex) {
    uint64_t ticket = pending.front();
    pending.pop_front();
    Item& item = items.at(ticket);
    item.state = State::kClaimed;
    return {ticket, std::move(item.fn)};
  }

  void RunItem(uint64_t ticket, const std::function<void()>& fn) {
    std::exception_ptr error;
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
    MutexLock lock(mutex);
    Item& item = items.at(ticket);
    item.state = State::kDone;
    item.error = error;
    done_cv.NotifyAll();
  }

  void WorkerLoop() {
    while (true) {
      uint64_t ticket;
      std::function<void()> fn;
      {
        MutexLock lock(mutex);
        while (!shutdown && pending.empty()) {
          work_cv.Wait(lock);
        }
        if (shutdown && pending.empty()) return;
        std::tie(ticket, fn) = ClaimFrontLocked();
      }
      DIVA_COUNTER_ADD_EXEC("taskgroup.claimed_by_worker", 1);
      RunItem(ticket, fn);
    }
  }
};

TaskGroup::TaskGroup(size_t workers) : impl_(new Impl) {
  impl_->worker_count = workers;
  impl_->threads.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    impl_->threads.emplace_back([impl = impl_] { impl->WorkerLoop(); });
  }
}

TaskGroup::~TaskGroup() {
  {
    MutexLock lock(impl_->mutex);
    // Retract everything nobody claimed; claimed items drain in the
    // worker that owns them before it observes shutdown.
    impl_->pending.clear();
    impl_->shutdown = true;
  }
  impl_->work_cv.NotifyAll();
  for (std::thread& thread : impl_->threads) thread.join();
  delete impl_;
}

size_t TaskGroup::workers() const { return impl_->worker_count; }

uint64_t TaskGroup::Submit(std::function<void()> fn) {
  DIVA_COUNTER_ADD_EXEC("taskgroup.submitted", 1);
  uint64_t ticket;
  {
    MutexLock lock(impl_->mutex);
    ticket = impl_->next_ticket++;
    impl_->items[ticket].fn = std::move(fn);
    impl_->pending.push_back(ticket);
  }
  impl_->work_cv.NotifyOne();
  return ticket;
}

void TaskGroup::Wait(uint64_t ticket) {
  while (true) {
    uint64_t help_ticket;
    std::function<void()> help_fn;
    {
      MutexLock lock(impl_->mutex);
      auto it = impl_->items.find(ticket);
      DIVA_CHECK_MSG(it != impl_->items.end(),
                     "TaskGroup::Wait on unknown ticket");
      if (it->second.state == Impl::State::kDone) {
        std::exception_ptr error = it->second.error;
        if (error != nullptr) std::rethrow_exception(error);
        return;
      }
      if (impl_->pending.empty()) {
        // Our item is claimed (or another helper beat us to the queue):
        // park until something settles.
        impl_->done_cv.Wait(lock);
        continue;
      }
      std::tie(help_ticket, help_fn) = impl_->ClaimFrontLocked();
    }
    DIVA_COUNTER_ADD_EXEC("taskgroup.claimed_by_waiter", 1);
    impl_->RunItem(help_ticket, help_fn);
  }
}

}  // namespace diva
