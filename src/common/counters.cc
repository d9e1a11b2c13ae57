#include "common/counters.h"

#include <algorithm>
#include <map>
#include <memory>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace diva {
namespace counters {

namespace {

struct Entry {
  Kind kind = Kind::kCounter;
  Scope scope = Scope::kDeterministic;
  std::unique_ptr<Cell> cell;
};

Mutex g_mutex;

/// name -> entry, ordered so Snapshot() is sorted for free. Entries are
/// never removed: a Cell* handed to a macro site stays valid for the
/// process lifetime.
std::map<std::string, Entry>& Registry() DIVA_REQUIRES(g_mutex) {
  static auto* registry = new std::map<std::string, Entry>();
  return *registry;
}

}  // namespace

constinit thread_local Buffer* tl_deterministic_buffer = nullptr;

void Buffer::Add(Cell* cell, uint64_t delta) {
  // Coalesce counter bumps per cell: a buffered shard run touches only
  // a handful of distinct deterministic counters, so a linear scan beats
  // a hash map here.
  for (Op& op : ops_) {
    if (op.cell == cell && !op.histogram) {
      op.value += delta;
      return;
    }
  }
  ops_.push_back(Op{cell, false, delta});
}

void Buffer::Record(Cell* cell, uint64_t value) {
  // Histogram observations carry min/max, so each one is kept verbatim.
  ops_.push_back(Op{cell, true, value});
}

void Buffer::Commit() {
  for (const Op& op : ops_) {
    if (op.histogram) {
      counters::Record(op.cell, op.value);
    } else {
      counters::Add(op.cell, op.value);
    }
  }
  ops_.clear();
}

void Buffer::Discard() { ops_.clear(); }

Cell* Register(const char* name, Kind kind, Scope scope) {
  MutexLock lock(g_mutex);
  auto& registry = Registry();
  auto it = registry.find(name);
  if (it == registry.end()) {
    Entry entry;
    entry.kind = kind;
    entry.scope = scope;
    entry.cell = std::make_unique<Cell>();
    it = registry.emplace(name, std::move(entry)).first;
  }
  return it->second.cell.get();
}

std::vector<Sample> Snapshot() {
  MutexLock lock(g_mutex);
  std::vector<Sample> samples;
  const auto& registry = Registry();
  samples.reserve(registry.size());
  for (const auto& [name, entry] : registry) {
    Sample sample;
    sample.name = name;
    sample.kind = entry.kind;
    sample.scope = entry.scope;
    sample.value = entry.cell->value.load(std::memory_order_relaxed);
    if (entry.kind == Kind::kHistogram) {
      sample.sum = entry.cell->sum.load(std::memory_order_relaxed);
      uint64_t min = entry.cell->min.load(std::memory_order_relaxed);
      sample.min = sample.value == 0 ? 0 : min;
      sample.max = entry.cell->max.load(std::memory_order_relaxed);
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

std::vector<Sample> Delta(const std::vector<Sample>& before,
                          const std::vector<Sample>& after) {
  std::vector<Sample> delta;
  delta.reserve(after.size());
  size_t b = 0;
  for (const Sample& sample : after) {
    while (b < before.size() && before[b].name < sample.name) ++b;
    Sample d = sample;
    if (b < before.size() && before[b].name == sample.name) {
      d.value -= before[b].value;
      d.sum -= before[b].sum;
    }
    delta.push_back(std::move(d));
  }
  return delta;
}

std::string ToJson(const std::vector<Sample>& samples) {
  std::string out = "{";
  bool first = true;
  for (const Sample& sample : samples) {
    if (!first) out += ",";
    first = false;
    out += "\"" + sample.name + "\":";
    if (sample.kind == Kind::kHistogram) {
      out += "{\"count\":" + std::to_string(sample.value) +
             ",\"sum\":" + std::to_string(sample.sum) +
             ",\"min\":" + std::to_string(sample.min) +
             ",\"max\":" + std::to_string(sample.max) + "}";
    } else {
      out += std::to_string(sample.value);
    }
  }
  out += "}";
  return out;
}

std::vector<Sample> FilterScope(const std::vector<Sample>& samples,
                                Scope scope) {
  std::vector<Sample> filtered;
  for (const Sample& sample : samples) {
    if (sample.scope == scope) filtered.push_back(sample);
  }
  return filtered;
}

void ResetForTest() {
  MutexLock lock(g_mutex);
  for (auto& [name, entry] : Registry()) {
    entry.cell->value.store(0, std::memory_order_relaxed);
    entry.cell->sum.store(0, std::memory_order_relaxed);
    entry.cell->min.store(UINT64_MAX, std::memory_order_relaxed);
    entry.cell->max.store(0, std::memory_order_relaxed);
  }
}

}  // namespace counters
}  // namespace diva
