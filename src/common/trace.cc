#include "common/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/timer.h"

namespace diva {
namespace trace {

namespace internal {

std::atomic<bool> g_enabled{false};

/// Single-writer ring: the owning thread writes events_[size_] and then
/// release-stores the new size; readers acquire-load size_ and touch only
/// that prefix. Slots never move (the vector is sized once), so a
/// published slot is immutable from the reader's point of view.
struct ThreadBuffer {
  explicit ThreadBuffer(size_t capacity, uint32_t tid, uint64_t generation)
      : events(capacity), tid(tid), generation(generation) {}

  std::vector<SpanEvent> events;
  std::atomic<size_t> size{0};
  std::atomic<uint64_t> dropped{0};
  uint32_t tid = 0;
  uint64_t generation = 0;
  /// Capture start on the monotonic clock, copied under the registry
  /// mutex at registration so the writer thread never reads shared
  /// capture state on the span path.
  double capture_start_s = 0.0;
};

namespace {

constexpr size_t kDefaultRingCapacity = 65536;

Mutex g_registry_mutex;
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers
    DIVA_GUARDED_BY(g_registry_mutex);
size_t g_ring_capacity DIVA_GUARDED_BY(g_registry_mutex) =
    kDefaultRingCapacity;
uint32_t g_next_tid DIVA_GUARDED_BY(g_registry_mutex) = 0;
double g_capture_start_s DIVA_GUARDED_BY(g_registry_mutex) = 0.0;

/// Bumped by Enable(); a thread whose cached buffer carries an older
/// generation re-registers. Relaxed reads are fine: a stale value only
/// sends events to a retired (never collected, still alive) buffer.
std::atomic<uint64_t> g_generation{0};

struct TlsState {
  std::shared_ptr<ThreadBuffer> buffer;
  uint32_t depth = 0;
};

TlsState& Tls() {
  thread_local TlsState state;
  return state;
}

}  // namespace

std::shared_ptr<ThreadBuffer> AcquireThreadBuffer() {
  TlsState& tls = Tls();
  uint64_t generation = g_generation.load(std::memory_order_relaxed);
  if (tls.buffer == nullptr || tls.buffer->generation != generation) {
    MutexLock lock(g_registry_mutex);
    generation = g_generation.load(std::memory_order_relaxed);
    tls.buffer = std::make_shared<ThreadBuffer>(g_ring_capacity,
                                                g_next_tid++, generation);
    tls.buffer->capture_start_s = g_capture_start_s;
    g_buffers.push_back(tls.buffer);
  }
  return tls.buffer;
}

void AppendEvent(ThreadBuffer* buffer, const SpanEvent& event) {
  size_t size = buffer->size.load(std::memory_order_relaxed);
  if (size >= buffer->events.size()) {
    buffer->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->events[size] = event;
  buffer->size.store(size + 1, std::memory_order_release);
}

uint32_t EnterSpan() { return Tls().depth++; }

void LeaveSpan() { --Tls().depth; }

uint32_t BufferTid(const ThreadBuffer* buffer) { return buffer->tid; }

}  // namespace internal

void Enable() {
  MutexLock lock(internal::g_registry_mutex);
  internal::g_buffers.clear();
  internal::g_next_tid = 0;
  internal::g_capture_start_s = MonotonicSeconds();
  internal::g_generation.fetch_add(1, std::memory_order_relaxed);
  internal::g_enabled.store(true, std::memory_order_relaxed);
}

void Disable() {
  internal::g_enabled.store(false, std::memory_order_relaxed);
}

bool IsEnabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

void SetRingCapacity(size_t events_per_thread) {
  MutexLock lock(internal::g_registry_mutex);
  internal::g_ring_capacity =
      events_per_thread > 0 ? events_per_thread : 1;
}

uint64_t DroppedEvents() {
  std::vector<std::shared_ptr<internal::ThreadBuffer>> buffers;
  {
    MutexLock lock(internal::g_registry_mutex);
    buffers = internal::g_buffers;
  }
  uint64_t dropped = 0;
  for (const auto& buffer : buffers) {
    dropped += buffer->dropped.load(std::memory_order_relaxed);
  }
  return dropped;
}

size_t ActiveBufferCount() {
  MutexLock lock(internal::g_registry_mutex);
  return internal::g_buffers.size();
}

std::vector<SpanEvent> Collect() {
  std::vector<std::shared_ptr<internal::ThreadBuffer>> buffers;
  {
    MutexLock lock(internal::g_registry_mutex);
    buffers = internal::g_buffers;
  }
  std::vector<SpanEvent> events;
  for (const auto& buffer : buffers) {
    size_t size = buffer->size.load(std::memory_order_acquire);
    events.insert(events.end(), buffer->events.begin(),
                  buffer->events.begin() + static_cast<ptrdiff_t>(size));
  }
  std::sort(events.begin(), events.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.begin_us != b.begin_us) return a.begin_us < b.begin_us;
              if (a.depth != b.depth) return a.depth < b.depth;
              return a.dur_us > b.dur_us;  // parents outlive children
            });
  return events;
}

namespace {

void AppendEscaped(std::string* out, const char* text) {
  for (const char* p = text; *p != '\0'; ++p) {
    char c = *p;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(c));
      out->append(buffer);
    } else {
      out->push_back(c);
    }
  }
}

void AppendMicros(std::string* out, double us) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", us);
  out->append(buffer);
}

}  // namespace

std::string ToChromeJson(const std::vector<SpanEvent>& events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& event = events[i];
    if (i > 0) out += ",";
    out += "\n{\"name\":\"";
    AppendEscaped(&out, event.name);
    out += "\",\"cat\":\"diva\",\"ph\":\"X\",\"ts\":";
    AppendMicros(&out, event.begin_us);
    out += ",\"dur\":";
    AppendMicros(&out, event.dur_us);
    out += ",\"pid\":1,\"tid\":" + std::to_string(event.tid);
    if (event.has_range) {
      out += ",\"args\":{\"begin\":" + std::to_string(event.arg_begin) +
             ",\"end\":" + std::to_string(event.arg_end) + "}";
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

Status WriteChromeTrace(const std::string& path) {
  std::string json = ToChromeJson(Collect());
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return Status::IoError("cannot open trace output file: " + path);
  }
  file.write(json.data(), static_cast<std::streamsize>(json.size()));
  file.flush();
  if (!file) {
    return Status::IoError("failed writing trace output file: " + path);
  }
  return Status::OK();
}

void Span::Open(const char* name, int64_t range_begin, int64_t range_end,
                bool has_range) {
  buffer_ = internal::AcquireThreadBuffer();
  depth_ = internal::EnterSpan();
  name_ = name;
  arg_begin_ = range_begin;
  arg_end_ = range_end;
  has_range_ = has_range;
  begin_s_ = MonotonicSeconds();
}

void Span::Close() {
  double end_s = MonotonicSeconds();
  SpanEvent event;
  event.name = name_;
  event.dur_us = (end_s - begin_s_) * 1e6;
  event.depth = depth_;
  event.arg_begin = arg_begin_;
  event.arg_end = arg_end_;
  event.has_range = has_range_;
  internal::LeaveSpan();
  event.begin_us = (begin_s_ - buffer_->capture_start_s) * 1e6;
  event.tid = buffer_->tid;
  internal::AppendEvent(buffer_.get(), event);
  buffer_.reset();
}

}  // namespace trace
}  // namespace diva
