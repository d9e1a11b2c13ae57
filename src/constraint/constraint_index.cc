#include "constraint/constraint_index.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>

#include "common/parallel.h"

namespace diva {

namespace {

/// The distinct hit lists of one row chunk: open addressing (linear
/// probing, power-of-two capacity) over a flat arena of lists, so a row
/// whose list was seen before costs one hash and one compare.
class HitListSet {
 public:
  void Insert(const std::vector<uint32_t>& hits) {
    if (2 * (hashes_.size() + 1) > slots_.size()) Grow();
    const uint64_t hash = Hash(hits.data(), hits.size());
    const size_t mask = slots_.size() - 1;
    for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
      const uint32_t id = slots_[slot];
      if (id == kEmpty) {
        slots_[slot] = static_cast<uint32_t>(hashes_.size());
        hashes_.push_back(hash);
        arena_.insert(arena_.end(), hits.begin(), hits.end());
        ends_.push_back(arena_.size());
        return;
      }
      if (hashes_[id] == hash &&
          std::equal(hits.begin(), hits.end(), List(id).begin(),
                     List(id).end())) {
        return;
      }
    }
  }

  /// The distinct lists, in ascending order.
  std::vector<std::vector<uint32_t>> SortedLists() const {
    std::vector<std::vector<uint32_t>> lists;
    lists.reserve(hashes_.size());
    for (size_t id = 0; id < hashes_.size(); ++id) {
      lists.emplace_back(List(id).begin(), List(id).end());
    }
    std::sort(lists.begin(), lists.end());
    return lists;
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  static uint64_t Hash(const uint32_t* ids, size_t n) {
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ n;
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ ids[i]) * 0xff51afd7ed558ccdULL;
      h ^= h >> 29;
    }
    return h;
  }

  std::span<const uint32_t> List(size_t id) const {
    const size_t begin = id == 0 ? 0 : ends_[id - 1];
    return {arena_.data() + begin, ends_[id] - begin};
  }

  void Grow() {
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), kEmpty);
    const size_t mask = slots_.size() - 1;
    for (size_t id = 0; id < hashes_.size(); ++id) {
      size_t slot = hashes_[id] & mask;
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<uint32_t>(id);
    }
  }

  std::vector<uint32_t> slots_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> arena_;
  std::vector<size_t> ends_;
};

}  // namespace

ConstraintIndex::ConstraintIndex(const Relation& relation,
                                 const ConstraintSet& constraints)
    : relation_(&relation) {
  target_begin_.reserve(constraints.size() + 1);
  target_begin_.push_back(0);
  std::vector<std::vector<uint32_t>> by_first(relation.NumAttributes());
  for (size_t c = 0; c < constraints.size(); ++c) {
    const std::vector<size_t>& attrs = constraints[c].attribute_indices();
    const size_t first = targets_.size();
    for (size_t i = 0; i < attrs.size(); ++i) {
      auto code = relation.FindCode(attrs[i], constraints[c].values()[i]);
      if (!code.has_value()) {
        targets_.resize(first);
        break;
      }
      targets_.push_back({static_cast<uint32_t>(attrs[i]), *code});
    }
    if (targets_.size() > first) {
      by_first[attrs.front()].push_back(static_cast<uint32_t>(c));
    }
    target_begin_.push_back(static_cast<uint32_t>(targets_.size()));
  }
  for (size_t attr = 0; attr < by_first.size(); ++attr) {
    const std::vector<uint32_t>& ids = by_first[attr];
    if (ids.empty()) continue;
    Table table;
    table.attr = attr;
    table.begin.assign(relation.dictionary(attr).size() + 1, 0);
    auto first_code = [&](uint32_t c) {
      return static_cast<size_t>(targets_[target_begin_[c]].code);
    };
    for (uint32_t c : ids) ++table.begin[first_code(c) + 1];
    for (size_t v = 1; v < table.begin.size(); ++v) {
      table.begin[v] += table.begin[v - 1];
    }
    table.entries.resize(ids.size());
    std::vector<uint32_t> next(table.begin.begin(), table.begin.end() - 1);
    for (uint32_t c : ids) {
      table.entries[next[first_code(c)]++] = {c, target_begin_[c] + 1,
                                              target_begin_[c + 1]};
    }
    tables_.push_back(std::move(table));
  }
}

template <typename Fn>
void ConstraintIndex::ForEachMatch(RowId row, Fn&& fn) const {
  const std::span<const ValueCode> cells = relation_->Row(row);
  for (const Table& table : tables_) {
    // kSuppressed wraps to 2^32 - 1, past the end of every table.
    const size_t code = static_cast<uint32_t>(cells[table.attr]);
    if (code + 1 >= table.begin.size()) continue;
    for (uint32_t k = table.begin[code]; k < table.begin[code + 1]; ++k) {
      const Entry& entry = table.entries[k];
      bool match = true;
      for (uint32_t i = entry.rest_begin; i < entry.rest_end && match; ++i) {
        match = cells[targets_[i].attr] == targets_[i].code;
      }
      if (match) fn(entry.constraint);
    }
  }
}

bool ConstraintIndex::Matches(size_t c, RowId row) const {
  const std::span<const ValueCode> cells = relation_->Row(row);
  const uint32_t begin = target_begin_[c];
  const uint32_t end = target_begin_[c + 1];
  if (begin == end) return false;
  for (uint32_t i = begin; i < end; ++i) {
    if (cells[targets_[i].attr] != targets_[i].code) return false;
  }
  return true;
}

std::vector<size_t> ConstraintIndex::CountAll() const {
  const size_t n = NumConstraints();
  return ParallelReduce<std::vector<size_t>>(
      tables_.empty() ? 0 : relation_->NumRows(), /*grain=*/0,
      std::vector<size_t>(n, 0),
      [&](size_t begin, size_t end) {
        std::vector<size_t> local(n, 0);
        for (size_t row = begin; row < end; ++row) {
          ForEachMatch(static_cast<RowId>(row),
                       [&](uint32_t c) { ++local[c]; });
        }
        return local;
      },
      [](std::vector<size_t> acc, std::vector<size_t> chunk) {
        for (size_t c = 0; c < acc.size(); ++c) acc[c] += chunk[c];
        return acc;
      });
}

std::vector<std::vector<RowId>> ConstraintIndex::Targets(
    std::vector<std::vector<size_t>>* adjacency) const {
  const size_t n = NumConstraints();
  const size_t rows = relation_->NumRows();
  std::vector<std::vector<RowId>> targets(n);
  if (adjacency != nullptr) adjacency->assign(n, {});
  if (tables_.empty() || rows == 0) return targets;
  // Row chunks are a pure function of the row count, so each chunk's
  // slice of every I_c is the same at every thread width.
  const size_t grain = rows / 64 + 1;
  const size_t chunks = (rows + grain - 1) / grain;

  // Pass 1: per-chunk hit counts, plus the chunk's distinct hit lists of
  // two or more constraints when the graph is wanted.
  struct ChunkScan {
    std::vector<uint32_t> counts;
    std::vector<std::vector<uint32_t>> shared;
  };
  std::vector<ChunkScan> scans =
      ParallelMap<ChunkScan>(chunks, /*grain=*/1, [&](size_t chunk) {
        ChunkScan scan;
        scan.counts.assign(n, 0);
        HitListSet seen;
        std::vector<uint32_t> hits;
        const size_t end = std::min(rows, (chunk + 1) * grain);
        for (size_t row = chunk * grain; row < end; ++row) {
          hits.clear();
          ForEachMatch(static_cast<RowId>(row), [&](uint32_t c) {
            ++scan.counts[c];
            hits.push_back(c);
          });
          if (adjacency != nullptr && hits.size() >= 2) {
            std::sort(hits.begin(), hits.end());
            seen.Insert(hits);
          }
        }
        scan.shared = seen.SortedLists();
        return scan;
      });

  // Turn the counts into each chunk's first slot in I_c, then fill the
  // slices (pass 2): chunks write disjoint ranges in ascending row order.
  // Constraints are independent here, so the lists are sized (and their
  // pages first touched) in parallel.
  ParallelFor(n, /*grain=*/1, [&](size_t c_begin, size_t c_end) {
    for (size_t c = c_begin; c < c_end; ++c) {
      uint32_t total = 0;
      for (ChunkScan& scan : scans) {
        const uint32_t count = scan.counts[c];
        scan.counts[c] = total;
        total += count;
      }
      targets[c].resize(total);
    }
  });
  ParallelFor(chunks, /*grain=*/1, [&](size_t chunk_begin, size_t chunk_end) {
    for (size_t chunk = chunk_begin; chunk < chunk_end; ++chunk) {
      std::vector<uint32_t>& next = scans[chunk].counts;
      const size_t end = std::min(rows, (chunk + 1) * grain);
      for (size_t row = chunk * grain; row < end; ++row) {
        ForEachMatch(static_cast<RowId>(row), [&](uint32_t c) {
          targets[c][next[c]++] = static_cast<RowId>(row);
        });
      }
    }
  });

  if (adjacency != nullptr) {
    std::vector<std::vector<uint32_t>> shared;
    for (ChunkScan& scan : scans) {
      std::move(scan.shared.begin(), scan.shared.end(),
                std::back_inserter(shared));
    }
    std::sort(shared.begin(), shared.end());
    shared.erase(std::unique(shared.begin(), shared.end()), shared.end());
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (const std::vector<uint32_t>& hits : shared) {
      for (size_t i = 0; i < hits.size(); ++i) {
        for (size_t j = i + 1; j < hits.size(); ++j) {
          edges.emplace_back(hits[i], hits[j]);
        }
      }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    // Pairs ascend by (i, j) with i < j, so every neighbor list fills in
    // ascending order: first the smaller endpoints, then the larger.
    for (const auto& [i, j] : edges) {
      (*adjacency)[i].push_back(j);
      (*adjacency)[j].push_back(i);
    }
  }
  return targets;
}

}  // namespace diva
