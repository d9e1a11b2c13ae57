#ifndef DIVA_BENCH_SPANS_H_
#define DIVA_BENCH_SPANS_H_

// The benchmark's own span recorder. Spans are opened by the harness
// around each call into a layer's public function (never inside the
// program, whose tracer stays off), kept in memory with name, start,
// end, parent and operation id, and written out when the run ends. A
// layer's self time is its span's duration minus the time its direct
// child spans cover. Single-threaded: every span is opened and closed on
// the harness thread, which makes the synchronous layer calls.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace diva_bench {

class SpanRecorder {
 public:
  /// Starts a new operation (one publish, update or request); spans
  /// opened afterwards carry its id. Returns the id.
  uint64_t BeginOperation();

  size_t Open(const char* name);
  void Close(size_t index);

  /// Self seconds per span name within operation `op` (names repeated
  /// inside one operation accumulate).
  std::map<std::string, double> SelfSeconds(uint64_t op) const;

  /// Wall seconds of the outermost spans of operation `op`.
  double OperationSeconds(uint64_t op) const;

  /// Writes every span as JSON (name, op, parent, start, end, self).
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1;
    uint64_t op = 0;
  };
  std::vector<double> SelfTimes() const;

  std::vector<Span> spans_;
  std::vector<size_t> open_;
  uint64_t op_ = 0;
};

/// Opens a span for the enclosing scope; a null recorder makes it a
/// no-op, so traced and untraced code paths share one implementation.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Open(name) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  size_t index_;
};

}  // namespace diva_bench

#endif  // DIVA_BENCH_SPANS_H_
