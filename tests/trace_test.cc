// Tests for the observability layer (common/trace.h, common/counters.h):
// span nesting and collection order, ring-buffer overflow policy,
// deterministic Chrome-trace serialization, phase coverage across thread
// widths, and counter exactness against the pipeline's own report.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/trace.h"
#include "constraint/parser.h"
#include "core/diva.h"
#include "relation/relation.h"
#include "relation/schema.h"
#include "tests/test_util.h"

namespace diva {
namespace {

using diva::testing::FuzzWorkload;
using diva::testing::MakeWorkload;

/// Looks up a counter sample by name; fails the test when absent.
const counters::Sample* Find(const std::vector<counters::Sample>& samples,
                             const std::string& name) {
  for (const counters::Sample& sample : samples) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

TEST(TraceTest, DisabledPathRecordsNothing) {
  trace::SetRingCapacity(1024);
  trace::Enable();
  trace::Disable();
  EXPECT_FALSE(trace::IsEnabled());
  EXPECT_EQ(trace::Collect().size(), 0u);
  EXPECT_EQ(trace::ActiveBufferCount(), 0u);
  {
    DIVA_TRACE_SPAN("disabled/span");
    DIVA_TRACE_SPAN_RANGE("disabled/range", 0, 10);
  }
  // Disabled spans never open: no buffer registration, no events.
  EXPECT_EQ(trace::ActiveBufferCount(), 0u);
  EXPECT_EQ(trace::Collect().size(), 0u);
  EXPECT_EQ(trace::DroppedEvents(), 0u);
}

TEST(TraceTest, SpanNestingAndCollectionOrder) {
  trace::SetRingCapacity(1024);
  trace::Enable();
  {
    DIVA_TRACE_SPAN("outer");
    {
      DIVA_TRACE_SPAN("inner");
    }
  }
  {
    DIVA_TRACE_SPAN("tail");
  }
  trace::Disable();

  std::vector<trace::SpanEvent> events = trace::Collect();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by (tid, begin_us, depth): parents before their children,
  // siblings in wall-clock order.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_STREQ(events[2].name, "tail");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].depth, 0u);
  // The parent's interval contains the child's.
  EXPECT_LE(events[0].begin_us, events[1].begin_us);
  EXPECT_GE(events[0].begin_us + events[0].dur_us,
            events[1].begin_us + events[1].dur_us);
  // All events share the single capture thread.
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_EQ(events[1].tid, events[2].tid);
  EXPECT_EQ(trace::ActiveBufferCount(), 1u);
}

TEST(TraceTest, RangeSpanCarriesPayload) {
  trace::SetRingCapacity(1024);
  trace::Enable();
  {
    DIVA_TRACE_SPAN_RANGE("chunk", 128, 256);
  }
  trace::Disable();
  std::vector<trace::SpanEvent> events = trace::Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].has_range);
  EXPECT_EQ(events[0].arg_begin, 128);
  EXPECT_EQ(events[0].arg_end, 256);
}

TEST(TraceTest, RingOverflowDropsNewestAndCounts) {
  trace::SetRingCapacity(4);
  trace::Enable();
  for (int i = 0; i < 10; ++i) {
    DIVA_TRACE_SPAN("overflow/span");
  }
  trace::Disable();
  // Drop-newest: the first `capacity` closed spans survive, the rest are
  // counted, never silently lost.
  EXPECT_EQ(trace::Collect().size(), 4u);
  EXPECT_EQ(trace::DroppedEvents(), 6u);
  trace::SetRingCapacity(65536);
}

TEST(TraceTest, EnableClearsThePreviousCapture) {
  trace::SetRingCapacity(1024);
  trace::Enable();
  {
    DIVA_TRACE_SPAN("first/capture");
  }
  trace::Disable();
  ASSERT_EQ(trace::Collect().size(), 1u);
  trace::Enable();
  trace::Disable();
  EXPECT_EQ(trace::Collect().size(), 0u);
  EXPECT_EQ(trace::DroppedEvents(), 0u);
}

TEST(TraceTest, ChromeJsonIsByteStableAndWellFormed) {
  trace::SetRingCapacity(1024);
  trace::Enable();
  {
    DIVA_TRACE_SPAN("json/\"quoted\"\\name");
    DIVA_TRACE_SPAN_RANGE("json/range", 3, 9);
  }
  trace::Disable();
  std::vector<trace::SpanEvent> events = trace::Collect();
  ASSERT_EQ(events.size(), 2u);

  std::string once = trace::ToChromeJson(events);
  std::string twice = trace::ToChromeJson(events);
  // Same events, same bytes — serialization holds no hidden state.
  EXPECT_EQ(once, twice);

  EXPECT_EQ(once.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_EQ(once.substr(once.size() - 4), "\n]}\n");
  EXPECT_NE(once.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(once.find("\"cat\":\"diva\""), std::string::npos);
  // Quotes and backslashes in names are escaped.
  EXPECT_NE(once.find("json/\\\"quoted\\\"\\\\name"), std::string::npos);
  // The range payload is rendered as args.
  EXPECT_NE(once.find("\"args\":{\"begin\":3,\"end\":9}"),
            std::string::npos);

  std::string path =
      ::testing::TempDir() + "/diva_trace_test_trace.json";
  ASSERT_TRUE(trace::WriteChromeTrace(path).ok());
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::fclose(file);
  std::remove(path.c_str());
  EXPECT_FALSE(
      trace::WriteChromeTrace("/nonexistent-dir/trace.json").ok());
}

TEST(TraceTest, PipelineSpansAgreeAcrossThreadWidths) {
  FuzzWorkload workload = MakeWorkload(5);
  ASSERT_GE(workload.relation.NumRows(), workload.k);

  // Span-name multiset per width, pool/* spans excluded: how work is
  // chunked across threads legitimately varies, which phases ran (and
  // how often) must not.
  std::map<size_t, std::multiset<std::string>> phase_spans;
  trace::SetRingCapacity(65536);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    DivaOptions options;
    options.k = workload.k;
    options.seed = 7;
    options.threads = threads;
    options.audit = true;
    trace::Enable();
    auto result = RunDiva(workload.relation, workload.constraints, options);
    trace::Disable();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(trace::DroppedEvents(), 0u);
    for (const trace::SpanEvent& event : trace::Collect()) {
      if (std::string(event.name).rfind("pool/", 0) == 0) continue;
      phase_spans[threads].insert(event.name);
    }
  }

  for (const char* phase :
       {"diva/run", "diva/clustering", "diva/suppress", "diva/anonymize",
        "diva/integrate", "diva/audit"}) {
    EXPECT_EQ(phase_spans[1].count(phase), 1u) << phase;
  }
  EXPECT_EQ(phase_spans[1], phase_spans[2]);
  EXPECT_EQ(phase_spans[1], phase_spans[8]);
}

TEST(TraceTest, OnePoolLoopSpanPerParallelLoop) {
  // Each parallel loop leaves one pool/loop span on the thread that
  // submitted it, with its chunk indices [0, chunks) as the range, and
  // no span per chunk.
  FuzzWorkload workload = MakeWorkload(5);
  ASSERT_GE(workload.relation.NumRows(), workload.k);
  DivaOptions options;
  options.k = workload.k;
  options.seed = 7;
  options.threads = 4;
  options.audit = true;
  trace::SetRingCapacity(65536);
  trace::Enable();
  const std::vector<counters::Sample> before = counters::Snapshot();
  auto result = RunDiva(workload.relation, workload.constraints, options);
  const std::vector<counters::Sample> delta =
      counters::Delta(before, counters::Snapshot());
  trace::Disable();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(trace::DroppedEvents(), 0u);

  uint64_t loop_spans = 0;
  for (const trace::SpanEvent& event : trace::Collect()) {
    const std::string name = event.name;
    if (name.rfind("pool/", 0) != 0) continue;
    EXPECT_EQ(name, "pool/loop");
    EXPECT_TRUE(event.has_range);
    EXPECT_EQ(event.arg_begin, 0);
    EXPECT_GE(event.arg_end, 1);
    ++loop_spans;
  }
  const counters::Sample* loops = Find(delta, "pool.loops");
  ASSERT_NE(loops, nullptr);
  EXPECT_GT(loops->value, 0u);
  EXPECT_EQ(loop_spans, loops->value);
  SetParallelThreads(1);
}

TEST(TraceTest, CountersMatchTheReportExactly) {
  FuzzWorkload workload = MakeWorkload(11);
  ASSERT_GE(workload.relation.NumRows(), workload.k);

  DivaOptions options;
  options.k = workload.k;
  options.seed = 13;
  options.threads = 1;
  auto result = RunDiva(workload.relation, workload.constraints, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // suppress.stars is the published star count: cells suppressed in the
  // output that were not already suppressed in the input.
  size_t stars = 0;
  for (RowId row = 0; row < workload.relation.NumRows(); ++row) {
    for (size_t col = 0; col < workload.relation.NumAttributes(); ++col) {
      if (result->relation.At(row, col) == kSuppressed &&
          workload.relation.At(row, col) != kSuppressed) {
        ++stars;
      }
    }
  }
  const std::vector<counters::Sample>& delta = result->report.counters;
  const counters::Sample* sample = Find(delta, "suppress.stars");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->value, stars);

  sample = Find(delta, "coloring.steps");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->value, result->report.coloring_steps);

  sample = Find(delta, "coloring.backtracks");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->value, result->report.backtracks);

  sample = Find(delta, "integrate.suppressed_cells");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->value, result->report.repair_cells);
}

TEST(TraceTest, ShardSpansNestOnTheThreadThatRanThem) {
  // Eight disjoint per-region constraints: eight conflict components, so
  // the shard driver fans the coloring out over four TaskGroup workers.
  auto schema = Schema::Make({
      {"REG", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"AGE", AttributeRole::kQuasiIdentifier, AttributeKind::kNumeric},
      {"JOB", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"DIAG", AttributeRole::kSensitive, AttributeKind::kCategorical},
  });
  ASSERT_TRUE(schema.ok());
  Rng rng(2024);
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < 24000; ++i) {
    rows.push_back({"r" + std::to_string(i % 8),
                    std::to_string(18 + rng.NextBounded(60)),
                    "j" + std::to_string(rng.NextBounded(8)),
                    "d" + std::to_string(rng.NextBounded(5))});
  }
  auto relation = RelationFromRows(schema.value(), rows);
  ASSERT_TRUE(relation.ok());
  std::string text;
  for (size_t r = 0; r < 8; ++r) {
    text += "REG[r" + std::to_string(r) + "] in [1800,3000]\n";
  }
  auto constraints = ParseConstraintSet(*schema.value(), text);
  ASSERT_TRUE(constraints.ok());

  DivaOptions options;
  options.k = 5;
  options.threads = 4;
  trace::SetRingCapacity(65536);
  trace::Enable();
  auto result = RunDiva(*relation, *constraints, options);
  trace::Disable();
  SetParallelThreads(1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->report.shards, 8u);
  EXPECT_EQ(trace::DroppedEvents(), 0u);

  // A timeline is only readable when every thread's spans form a forest:
  // on one tid, two spans are either disjoint or one contains the other.
  // Sweeping each tid's spans by (begin, longest first) with a stack of
  // open ends finds every span that crosses an enclosing one. The slack
  // absorbs rounding of begin + dur, never a real overlap.
  constexpr double kSlackUs = 1e-3;
  std::map<uint32_t, std::vector<trace::SpanEvent>> by_tid;
  size_t shard_spans = 0;
  for (const trace::SpanEvent& event : trace::Collect()) {
    by_tid[event.tid].push_back(event);
    if (std::string(event.name) == "diva/shard") ++shard_spans;
  }
  EXPECT_EQ(shard_spans, result->report.shards);
  size_t crossing = 0;
  for (auto& [tid, events] : by_tid) {
    std::sort(events.begin(), events.end(),
              [](const trace::SpanEvent& a, const trace::SpanEvent& b) {
                if (a.begin_us != b.begin_us) return a.begin_us < b.begin_us;
                return a.dur_us > b.dur_us;
              });
    std::vector<double> open_ends;
    for (const trace::SpanEvent& event : events) {
      double end = event.begin_us + event.dur_us;
      while (!open_ends.empty() &&
             open_ends.back() <= event.begin_us + kSlackUs) {
        open_ends.pop_back();
      }
      if (!open_ends.empty() && end > open_ends.back() + kSlackUs) {
        ++crossing;
        continue;
      }
      open_ends.push_back(end);
    }
  }
  EXPECT_EQ(crossing, 0u) << "spans cross on one thread";
}

TEST(CountersTest, AddAndSnapshotAndDelta) {
  std::vector<counters::Sample> before = counters::Snapshot();
  DIVA_COUNTER_ADD("test.counters.alpha", 3);
  DIVA_COUNTER_ADD("test.counters.alpha", 4);
  DIVA_HISTOGRAM_RECORD("test.counters.sizes", 10);
  DIVA_HISTOGRAM_RECORD("test.counters.sizes", 2);
  std::vector<counters::Sample> delta =
      counters::Delta(before, counters::Snapshot());

  const counters::Sample* alpha = Find(delta, "test.counters.alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->value, 7u);
  EXPECT_EQ(alpha->kind, counters::Kind::kCounter);
  EXPECT_EQ(alpha->scope, counters::Scope::kDeterministic);

  const counters::Sample* sizes = Find(delta, "test.counters.sizes");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->kind, counters::Kind::kHistogram);
  EXPECT_EQ(sizes->value, 2u);   // observation count
  EXPECT_EQ(sizes->sum, 12u);
  EXPECT_EQ(sizes->min, 2u);    // cumulative, copied from `after`
  EXPECT_EQ(sizes->max, 10u);

  // Snapshots are sorted by name, so deltas are too.
  for (size_t i = 1; i < delta.size(); ++i) {
    EXPECT_LT(delta[i - 1].name, delta[i].name);
  }
}

TEST(CountersTest, ScopeFilterAndJson) {
  DIVA_COUNTER_ADD("test.scope.det", 1);
  DIVA_COUNTER_ADD_EXEC("test.scope.exec", 1);
  std::vector<counters::Sample> all = counters::Snapshot();
  std::vector<counters::Sample> deterministic =
      counters::FilterScope(all, counters::Scope::kDeterministic);
  std::vector<counters::Sample> execution =
      counters::FilterScope(all, counters::Scope::kExecution);
  EXPECT_NE(Find(deterministic, "test.scope.det"), nullptr);
  EXPECT_EQ(Find(deterministic, "test.scope.exec"), nullptr);
  EXPECT_NE(Find(execution, "test.scope.exec"), nullptr);
  EXPECT_EQ(Find(execution, "test.scope.det"), nullptr);

  std::vector<counters::Sample> two;
  two.push_back(*Find(all, "test.scope.det"));
  DIVA_HISTOGRAM_RECORD("test.scope.hist", 5);
  two.push_back(*Find(counters::Snapshot(), "test.scope.hist"));
  std::string json = counters::ToJson(two);
  EXPECT_NE(json.find("\"test.scope.det\":"), std::string::npos);
  EXPECT_NE(json.find("\"test.scope.hist\":{\"count\":"),
            std::string::npos);
  EXPECT_EQ(json, counters::ToJson(two));  // byte-stable
}

TEST(CountersTest, BufferCommitAppliesAndDiscardDrops) {
  // The deferred-telemetry primitive: deterministic-scope updates made
  // under a redirect stay invisible until Commit, and Discard erases
  // them as if the work never ran. Execution-scope updates bypass the
  // redirect on purpose (they are allowed to see unadopted work).
  counters::Buffer buffer;
  auto before = counters::Snapshot();
  {
    counters::ScopedBufferedCounters redirect(&buffer);
    DIVA_COUNTER_ADD("test.buffer.det", 5);
    DIVA_HISTOGRAM_RECORD("test.buffer.hist", 9);
    DIVA_COUNTER_ADD_EXEC("test.buffer.exec", 2);
  }
  auto delta = counters::Delta(before, counters::Snapshot());
  const counters::Sample* det = Find(delta, "test.buffer.det");
  ASSERT_NE(det, nullptr);
  EXPECT_EQ(det->value, 0u) << "buffered update leaked before Commit";
  const counters::Sample* exec = Find(delta, "test.buffer.exec");
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(exec->value, 2u) << "execution scope must bypass the redirect";

  EXPECT_FALSE(buffer.empty());
  buffer.Commit();
  EXPECT_TRUE(buffer.empty());
  delta = counters::Delta(before, counters::Snapshot());
  det = Find(delta, "test.buffer.det");
  ASSERT_NE(det, nullptr);
  EXPECT_EQ(det->value, 5u);
  const counters::Sample* hist = Find(delta, "test.buffer.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->value, 1u);
  EXPECT_EQ(hist->sum, 9u);

  // A second batch, discarded: nothing moves.
  before = counters::Snapshot();
  {
    counters::ScopedBufferedCounters redirect(&buffer);
    DIVA_COUNTER_ADD("test.buffer.det", 100);
  }
  buffer.Discard();
  EXPECT_TRUE(buffer.empty());
  delta = counters::Delta(before, counters::Snapshot());
  det = Find(delta, "test.buffer.det");
  ASSERT_NE(det, nullptr);
  EXPECT_EQ(det->value, 0u);
}

TEST(CountersTest, ScopedBufferRedirectNests) {
  counters::Buffer outer;
  counters::Buffer inner;
  auto before = counters::Snapshot();
  {
    counters::ScopedBufferedCounters outer_scope(&outer);
    DIVA_COUNTER_ADD("test.nest.counter", 1);
    {
      counters::ScopedBufferedCounters inner_scope(&inner);
      DIVA_COUNTER_ADD("test.nest.counter", 10);
    }
    // Inner scope gone: updates land in the outer buffer again.
    DIVA_COUNTER_ADD("test.nest.counter", 100);
  }
  inner.Discard();
  outer.Commit();
  auto delta = counters::Delta(before, counters::Snapshot());
  const counters::Sample* sample = Find(delta, "test.nest.counter");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->value, 101u) << "only the outer batch was committed";
}

TEST(CountersTest, ResetZeroesEveryCell) {
  DIVA_COUNTER_ADD("test.reset.counter", 42);
  counters::ResetForTest();
  std::vector<counters::Sample> snapshot = counters::Snapshot();
  const counters::Sample* sample = Find(snapshot, "test.reset.counter");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->value, 0u);
}

}  // namespace
}  // namespace diva
