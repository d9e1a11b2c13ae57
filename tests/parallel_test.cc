#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>


namespace diva {
namespace {

/// Marks every index in [begin, end) exactly once; duplicate or missing
/// marks show up as a count mismatch.
void MarkRange(std::vector<std::atomic<int>>* marks, size_t begin,
               size_t end) {
  for (size_t i = begin; i < end; ++i) {
    (*marks)[i].fetch_add(1, std::memory_order_relaxed);
  }
}

void ExpectAllMarkedOnce(const std::vector<std::atomic<int>>& marks) {
  for (size_t i = 0; i < marks.size(); ++i) {
    EXPECT_EQ(marks[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelTest, ResolveThreadCountSemantics) {
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(7), 7u);
  EXPECT_EQ(ResolveThreadCount(0), HardwareConcurrency());
  EXPECT_GE(HardwareConcurrency(), 1u);
}

TEST(ParallelTest, EnvThreadsParsesKnob) {
  ASSERT_EQ(unsetenv("DIVA_THREADS"), 0);
  EXPECT_EQ(EnvThreads(), 1u);  // unset => sequential
  ASSERT_EQ(setenv("DIVA_THREADS", "6", 1), 0);
  EXPECT_EQ(EnvThreads(), 6u);
  ASSERT_EQ(setenv("DIVA_THREADS", "0", 1), 0);
  EXPECT_EQ(EnvThreads(), 0u);  // 0 = hardware, resolved later
  ASSERT_EQ(setenv("DIVA_THREADS", "banana", 1), 0);
  EXPECT_EQ(EnvThreads(), 1u);  // unparsable => sequential
  ASSERT_EQ(unsetenv("DIVA_THREADS"), 0);
}

TEST(ParallelTest, PoolCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  std::vector<std::atomic<int>> marks(1000);
  pool.ParallelFor(marks.size(), /*grain=*/7, [&](size_t begin, size_t end) {
    MarkRange(&marks, begin, end);
  });
  ExpectAllMarkedOnce(marks);
}

TEST(ParallelTest, GrainEdgeCases) {
  ThreadPool pool(3);
  // count == 0: body never runs.
  size_t calls = 0;
  pool.ParallelFor(0, 1, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  // grain > count: one inline chunk covering everything.
  std::vector<std::atomic<int>> marks(5);
  pool.ParallelFor(5, 100, [&](size_t begin, size_t end) {
    MarkRange(&marks, begin, end);
  });
  ExpectAllMarkedOnce(marks);
  // grain == 1 with count == 1.
  std::vector<std::atomic<int>> one(1);
  pool.ParallelFor(1, 1, [&](size_t begin, size_t end) {
    MarkRange(&one, begin, end);
  });
  ExpectAllMarkedOnce(one);
  // grain == 0 resolves to an automatic chunk size.
  std::vector<std::atomic<int>> autos(317);
  pool.ParallelFor(autos.size(), 0, [&](size_t begin, size_t end) {
    MarkRange(&autos, begin, end);
  });
  ExpectAllMarkedOnce(autos);
}

TEST(ParallelTest, WidthOnePoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<std::atomic<int>> marks(64);
  pool.ParallelFor(marks.size(), 5, [&](size_t begin, size_t end) {
    MarkRange(&marks, begin, end);
  });
  ExpectAllMarkedOnce(marks);
}

TEST(ParallelTest, PoolShutdownJoinsCleanly) {
  // Construction + immediate destruction, with and without work, must
  // not hang or leak (tsan/asan presets watch this test closely).
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(4);
    if (round % 2 == 0) {
      std::atomic<size_t> sum{0};
      pool.ParallelFor(100, 3, [&](size_t begin, size_t end) {
        sum.fetch_add(end - begin, std::memory_order_relaxed);
      });
      EXPECT_EQ(sum.load(), 100u);
    }
  }
}

TEST(ParallelTest, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(1000, 1,
                       [&](size_t begin, size_t) {
                         if (begin == 500) {
                           throw std::runtime_error("chunk failed");
                         }
                       }),
      std::runtime_error);
  // The pool must still be fully usable after a failed loop.
  std::vector<std::atomic<int>> marks(200);
  pool.ParallelFor(marks.size(), 9, [&](size_t begin, size_t end) {
    MarkRange(&marks, begin, end);
  });
  ExpectAllMarkedOnce(marks);
}

TEST(ParallelTest, ExceptionMessageIsPreserved) {
  ThreadPool pool(2);
  try {
    pool.ParallelFor(10, 1, [](size_t begin, size_t) {
      if (begin == 3) throw std::runtime_error("specific failure");
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "specific failure");
  }
}

TEST(ParallelTest, NestedUseIsRejected) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100, 1,
                                [&](size_t, size_t) {
                                  pool.ParallelFor(10, 1,
                                                   [](size_t, size_t) {});
                                }),
               std::logic_error);
}

TEST(ParallelTest, NestedUseIsRejectedAcrossPools) {
  // Nesting is rejected per thread, not per pool: a body may not start a
  // loop on ANY pool, including the global one.
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(
                   100, 1,
                   [&](size_t, size_t) { ParallelFor(4, 1, [](size_t, size_t) {}); }),
               std::logic_error);
}

TEST(ParallelTest, NestedUseIsRejectedOnWidthOnePool) {
  // The inline path runs through the same guard.
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(10, 1,
                                [&](size_t, size_t) {
                                  pool.ParallelFor(2, 1,
                                                   [](size_t, size_t) {});
                                }),
               std::logic_error);
}

TEST(ParallelTest, GlobalPoolReconfigures) {
  SetParallelThreads(3);
  EXPECT_EQ(ParallelThreads(), 3u);
  std::vector<std::atomic<int>> marks(128);
  ParallelFor(marks.size(), 4, [&](size_t begin, size_t end) {
    MarkRange(&marks, begin, end);
  });
  ExpectAllMarkedOnce(marks);
  SetParallelThreads(1);
  EXPECT_EQ(ParallelThreads(), 1u);
}

TEST(ParallelTest, ParallelMapGathersByIndex) {
  SetParallelThreads(4);
  std::vector<int> squares = ParallelMap<int>(
      100, 1, [](size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(squares.size(), 100u);
  for (size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], static_cast<int>(i * i));
  }
  SetParallelThreads(1);
}

TEST(ParallelTest, ParallelReduceCombinesInChunkOrder) {
  // String concatenation is non-commutative: any out-of-order combine
  // would scramble the digits.
  std::string expected;
  for (int i = 0; i < 200; ++i) expected += std::to_string(i) + ",";
  for (size_t threads : {1u, 2u, 5u}) {
    SetParallelThreads(threads);
    std::string joined = ParallelReduce<std::string>(
        200, /*grain=*/7, std::string(),
        [](size_t begin, size_t end) {
          std::string chunk;
          for (size_t i = begin; i < end; ++i) {
            chunk += std::to_string(i) + ",";
          }
          return chunk;
        },
        [](std::string a, std::string b) { return a + b; });
    EXPECT_EQ(joined, expected) << "threads = " << threads;
  }
  SetParallelThreads(1);
}

TEST(ParallelTest, ParallelReduceSumsExactly) {
  SetParallelThreads(8);
  size_t total = ParallelReduce<size_t>(
      10000, /*grain=*/0, size_t{0},
      [](size_t begin, size_t end) {
        size_t sum = 0;
        for (size_t i = begin; i < end; ++i) sum += i;
        return sum;
      },
      [](size_t a, size_t b) { return a + b; });
  EXPECT_EQ(total, 10000u * 9999u / 2);
  SetParallelThreads(1);
}

TEST(ParallelTest, TasksMayUseTheDataParallelLayer) {
  // Concurrent tasks racing for the global pool: one wins it, the rest
  // degrade to inline execution of identical chunks — results match
  // either way.
  SetParallelThreads(2);
  std::vector<size_t> sums(4, 0);
  {
    TaskGroup group(sums.size() - 1);
    std::vector<uint64_t> tickets;
    for (size_t task = 0; task < sums.size(); ++task) {
      tickets.push_back(group.Submit([&, task] {
        sums[task] = ParallelReduce<size_t>(
            1000, /*grain=*/0, size_t{0},
            [](size_t begin, size_t end) {
              size_t sum = 0;
              for (size_t i = begin; i < end; ++i) sum += i;
              return sum;
            },
            [](size_t a, size_t b) { return a + b; });
      }));
    }
    for (uint64_t ticket : tickets) group.Wait(ticket);
  }
  for (size_t sum : sums) EXPECT_EQ(sum, 1000u * 999u / 2);
  SetParallelThreads(1);
}

// ------------------------------------------------------------ TaskGroup

TEST(TaskGroupTest, SubmitAndWaitRunsEverything) {
  TaskGroup group(3);
  EXPECT_EQ(group.workers(), 3u);
  std::vector<std::atomic<int>> ran(64);
  std::vector<uint64_t> tickets;
  for (size_t i = 0; i < ran.size(); ++i) {
    tickets.push_back(group.Submit(
        [&ran, i] { ran[i].fetch_add(1, std::memory_order_relaxed); }));
  }
  // Tickets are dense and ascending in submission order.
  for (size_t i = 1; i < tickets.size(); ++i) {
    EXPECT_EQ(tickets[i], tickets[i - 1] + 1);
  }
  for (uint64_t ticket : tickets) group.Wait(ticket);
  for (size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "item " << i;
  }
}

TEST(TaskGroupTest, ZeroWorkersRunEverythingInTheWaiter) {
  // workers == 0 is the degenerate sequential mode: nothing runs until
  // a Wait, and then the waiting thread runs it inline via helping.
  TaskGroup group(0);
  EXPECT_EQ(group.workers(), 0u);
  std::atomic<int> ran{0};
  uint64_t ticket =
      group.Submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ran.load(), 0);
  group.Wait(ticket);
  EXPECT_EQ(ran.load(), 1);
}

TEST(TaskGroupTest, WaiterHelpsPendingItemsInFifoOrder) {
  // With no workers, Wait on the last ticket must claim and run every
  // pending item in submission order before reaching it — the claim
  // order is FIFO by construction.
  TaskGroup group(0);
  std::vector<size_t> order;
  uint64_t last = 0;
  for (size_t i = 0; i < 8; ++i) {
    last = group.Submit([&order, i] { order.push_back(i); });
  }
  group.Wait(last);
  ASSERT_EQ(order.size(), 8u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(TaskGroupTest, ExceptionPropagatesThroughWait) {
  TaskGroup group(0);
  uint64_t ticket = group.Submit(
      [] { throw std::runtime_error("task group test failure"); });
  EXPECT_THROW(group.Wait(ticket), std::runtime_error);
}

TEST(TaskGroupTest, DestructorAbandonsPendingAndJoins) {
  std::atomic<int> ran{0};
  {
    TaskGroup group(1);
    uint64_t first =
        group.Submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    group.Wait(first);
    // Pending-at-destruction items are abandoned, claimed ones drain;
    // either way the dtor joins cleanly and `ran` is coherent after.
    for (int i = 0; i < 16; ++i) {
      group.Submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 17);

  // With no workers nothing is ever claimed, so the destructor retracts
  // every item: none of them runs.
  ran.store(0);
  {
    TaskGroup group(0);
    for (int i = 0; i < 5; ++i) {
      group.Submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelTest, ManyConcurrentLoopsStressThePool) {
  // Hammer one pool from several top-level tasks; exercised under tsan
  // in CI, this is the data-race canary for the submit/claim protocol.
  SetParallelThreads(4);
  {
    TaskGroup group(2);
    std::vector<uint64_t> tickets;
    for (int task = 0; task < 3; ++task) {
      tickets.push_back(group.Submit([] {
        for (int round = 0; round < 20; ++round) {
          std::atomic<size_t> count{0};
          ParallelFor(500, 11, [&](size_t begin, size_t end) {
            count.fetch_add(end - begin, std::memory_order_relaxed);
          });
          ASSERT_EQ(count.load(), 500u);
        }
      }));
    }
    for (uint64_t ticket : tickets) group.Wait(ticket);
  }
  SetParallelThreads(1);
}

}  // namespace
}  // namespace diva
