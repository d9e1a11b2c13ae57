#include "relation/qi_groups.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "common/parallel.h"

namespace diva {

namespace {

/// FNV-1a over the QI codes of a row — the hash GroupRows buckets by.
uint64_t QiProjectionHash(const Relation& relation, RowId row) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t col : relation.schema().qi_indices()) {
    uint64_t v =
        static_cast<uint64_t>(static_cast<uint32_t>(relation.At(row, col)));
    h ^= v;
    h *= 1099511628211ULL;
  }
  return h;
}

/// True when rows a and b agree on every quasi-identifier attribute.
bool SameQiProjection(const Relation& relation, RowId a, RowId b) {
  for (size_t col : relation.schema().qi_indices()) {
    if (relation.At(a, col) != relation.At(b, col)) return false;
  }
  return true;
}

QiGroups GroupRows(const Relation& relation, std::span<const RowId> rows) {
  // Hash-then-verify: one 64-bit QI-projection hash per row, computed up
  // front (in parallel above the cutoff — a pure per-row function, so
  // identical at every thread width), then a sequential grouping pass
  // that touches full projections only when two hashes collide. The old
  // scheme re-hashed a row's projection on every map probe and compared
  // projections along whole collision chains.
  constexpr size_t kMinParallelRows = 4096;
  std::vector<uint64_t> hashes;
  if (rows.size() < kMinParallelRows) {
    hashes.reserve(rows.size());
    for (RowId row : rows) hashes.push_back(QiProjectionHash(relation, row));
  } else {
    hashes = ParallelMap<uint64_t>(rows.size(), /*grain=*/1024, [&](size_t i) {
      return QiProjectionHash(relation, rows[i]);
    });
  }

  // Group ids are assigned at first occurrence and rows appended in scan
  // order, so the grouping (and its order) is exactly what a pairwise
  // projection-comparing pass would produce. Determinism audit: by_hash
  // is probe-only — operator[] lookups keyed by the row's projection
  // hash; it is never iterated, so hash-map order cannot leak into the
  // group numbering.
  QiGroups out;
  std::unordered_map<uint64_t, std::vector<size_t>> by_hash;  // -> group ids
  by_hash.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::vector<size_t>& bucket = by_hash[hashes[i]];
    size_t group = out.groups.size();
    for (size_t candidate : bucket) {
      if (SameQiProjection(relation, out.groups[candidate].front(), rows[i])) {
        group = candidate;
        break;
      }
    }
    if (group == out.groups.size()) {
      out.groups.emplace_back();
      bucket.push_back(group);
    }
    out.groups[group].push_back(rows[i]);
  }
  return out;
}

}  // namespace

size_t QiGroups::MinGroupSize() const {
  if (groups.empty()) return 0;
  size_t min_size = groups[0].size();
  for (const auto& g : groups) {
    if (g.size() < min_size) min_size = g.size();
  }
  return min_size;
}

QiGroups ComputeQiGroups(const Relation& relation) {
  std::vector<RowId> all(relation.NumRows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<RowId>(i);
  return GroupRows(relation, all);
}

QiGroups ComputeQiGroups(const Relation& relation,
                         std::span<const RowId> rows) {
  return GroupRows(relation, rows);
}

bool IsKAnonymous(const Relation& relation, size_t k) {
  if (relation.NumRows() == 0) return true;
  QiGroups groups = ComputeQiGroups(relation);
  return groups.MinGroupSize() >= k;
}

size_t CountDistinctQiProjections(const Relation& relation) {
  QiGroups groups = ComputeQiGroups(relation);
  return groups.groups.size();
}

}  // namespace diva
