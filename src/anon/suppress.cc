#include "anon/suppress.h"

#include "common/counters.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace diva {

namespace {

/// True if all rows of `cluster` share one non-suppressed value on `col`.
bool Unanimous(const Relation& relation, std::span<const RowId> cluster,
               size_t col) {
  if (cluster.empty()) return true;
  ValueCode first = relation.At(cluster[0], col);
  if (first == kSuppressed) return false;
  for (size_t i = 1; i < cluster.size(); ++i) {
    if (relation.At(cluster[i], col) != first) return false;
  }
  return true;
}

/// True when no row appears in two clusters. Clusterings produced by the
/// pipeline are partitions, but callers may hand in anything; only a
/// verified-disjoint clustering is safe to suppress concurrently.
bool ClustersAreDisjoint(const Relation& relation,
                         const Clustering& clustering) {
  std::vector<bool> seen(relation.NumRows(), false);
  for (const Cluster& cluster : clustering) {
    for (RowId row : cluster) {
      if (row >= relation.NumRows() || seen[row]) return false;
      seen[row] = true;
    }
  }
  return true;
}

/// The per-cluster body of SuppressClustersInPlace: reads and writes only
/// `cluster`'s rows.
void SuppressOneCluster(Relation* relation, const Cluster& cluster,
                        const std::vector<size_t>& qi) {
  for (size_t col : qi) {
    if (!Unanimous(*relation, cluster, col)) {
      for (RowId row : cluster) relation->Set(row, col, kSuppressed);
      // Cells *written* by this subsystem, including rewrites of cells
      // already suppressed (leftover folds, privacy merges) — a work
      // measure, not the published-star count (that is suppress.stars,
      // counted once against the input in RunDiva).
      DIVA_COUNTER_ADD("suppress.cells", cluster.size());
    }
  }
}

}  // namespace

void SuppressClustersInPlace(Relation* relation,
                             const Clustering& clustering) {
  DIVA_TRACE_SPAN("suppress/clusters");
  const auto& qi = relation->schema().qi_indices();
  // Disjoint clusters touch disjoint rows, so suppressing them
  // concurrently is literally the sequential computation re-ordered over
  // independent cells: same reads, same writes, same final relation.
  // Overlapping clusters (possible through the public API) would make a
  // later cluster's Unanimous check observe an earlier cluster's writes,
  // so they keep the ordered sequential path.
  if (ClustersAreDisjoint(*relation, clustering)) {
    ParallelFor(clustering.size(), /*grain=*/0, [&](size_t begin, size_t end) {
      for (size_t c = begin; c < end; ++c) {
        SuppressOneCluster(relation, clustering[c], qi);
      }
    });
    return;
  }
  for (const Cluster& cluster : clustering) {
    SuppressOneCluster(relation, cluster, qi);
  }
}

Relation Suppress(const Relation& relation, const Clustering& clustering) {
  Relation out = relation.EmptyLike();
  const auto& qi = relation.schema().qi_indices();
  for (const Cluster& cluster : clustering) {
    // Which QI columns survive for this cluster.
    std::vector<bool> keep(relation.NumAttributes(), true);
    for (size_t col : qi) {
      keep[col] = Unanimous(relation, cluster, col);
    }
    std::vector<ValueCode> row_codes(relation.NumAttributes());
    for (RowId row : cluster) {
      for (size_t col = 0; col < relation.NumAttributes(); ++col) {
        ValueCode code = relation.At(row, col);
        bool is_qi = relation.schema().IsQuasiIdentifier(col);
        row_codes[col] = (is_qi && !keep[col]) ? kSuppressed : code;
      }
      out.AppendRow(row_codes);
    }
  }
  return out;
}

void SuppressIdentifiers(Relation* relation) {
  for (size_t col : relation->schema().identifier_indices()) {
    for (RowId row = 0; row < relation->NumRows(); ++row) {
      relation->Set(row, col, kSuppressed);
    }
  }
}

uint8_t StarMask(const Relation& relation, std::span<const RowId> cluster) {
  if (cluster.empty()) return 0;
  const auto& qi = relation.schema().qi_indices();
  const std::span<const ValueCode> first = relation.Row(cluster[0]);
  uint8_t mask = 0;
  for (size_t q = 0; q < qi.size(); ++q) {
    mask |= static_cast<uint8_t>(first[qi[q]] == kSuppressed) << q;
  }
  for (size_t i = 1; i < cluster.size(); ++i) {
    const std::span<const ValueCode> cells = relation.Row(cluster[i]);
    for (size_t q = 0; q < qi.size(); ++q) {
      mask |= static_cast<uint8_t>(cells[qi[q]] != first[qi[q]]) << q;
    }
  }
  return mask;
}

size_t SuppressionCost(const Relation& relation,
                       std::span<const RowId> cluster) {
  size_t suppressed_columns = 0;
  for (size_t col : relation.schema().qi_indices()) {
    if (!Unanimous(relation, cluster, col)) ++suppressed_columns;
  }
  return suppressed_columns * cluster.size();
}

}  // namespace diva
