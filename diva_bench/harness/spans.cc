#include "spans.h"

#include <fstream>

#include "common/timer.h"
#include "report.h"

namespace diva_bench {

uint64_t SpanRecorder::BeginOperation() { return ++op_; }

size_t SpanRecorder::Open(const char* name) {
  Span span;
  span.name = name;
  span.op = op_;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  span.start = diva::MonotonicSeconds();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::Close(size_t index) {
  spans_[index].end = diva::MonotonicSeconds();
  // Scoped spans close in LIFO order, so `index` is the innermost one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> SpanRecorder::SelfTimes() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end - spans_[i].start;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          spans_[i].end - spans_[i].start;
    }
  }
  return self;
}

std::map<std::string, double> SpanRecorder::SelfSeconds(uint64_t op) const {
  const std::vector<double> self = SelfTimes();
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].op == op) by_name[spans_[i].name] += self[i];
  }
  return by_name;
}

double SpanRecorder::OperationSeconds(uint64_t op) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.op == op && span.parent < 0) total += span.end - span.start;
  }
  return total;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::vector<double> self = SelfTimes();
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i > 0 ? ",\n" : "") << "{\"id\": " << i
        << ", \"name\": " << JsonString(span.name) << ", \"op\": " << span.op
        << ", \"parent\": " << span.parent
        << ", \"start_s\": " << JsonNumber(span.start - origin)
        << ", \"end_s\": " << JsonNumber(span.end - origin)
        << ", \"self_s\": " << JsonNumber(self[i]) << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace diva_bench
