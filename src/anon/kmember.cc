#include "anon/kmember.h"

#include <algorithm>
#include <limits>

#include "common/counters.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/trace.h"

namespace diva {

KMemberPool::KMemberPool(const Relation& relation,
                         const DistanceMetric& metric,
                         std::span<const RowId> rows)
    : metric_(&metric),
      qi_(relation.schema().qi_indices()),
      rows_(rows.begin(), rows.end()) {
  codes_.reserve(rows_.size() * qi_.size());
  for (RowId row : rows_) {
    for (size_t col : qi_) codes_.push_back(relation.At(row, col));
  }
  size_t table_size = 0;
  for (size_t col : qi_) {
    domain_.push_back(static_cast<ValueCode>(relation.dictionary(col).size()));
    table_size += static_cast<size_t>(domain_.back()) + 1;
  }
  term_table_.resize(table_size);
  double* slice = term_table_.data();
  for (ValueCode domain : domain_) {
    anchor_terms_.push_back(slice + 1);  // slot 0 is kSuppressed's term
    slice += static_cast<size_t>(domain) + 1;
  }
}

RowId KMemberPool::TakeAt(size_t i) {
  // Always-on: an out-of-range take would read and swap stale memory in
  // release builds.
  DIVA_CHECK_MSG(i < rows_.size(), "KMemberPool::TakeAt index out of range");
  RowId row = rows_[i];
  size_t last = rows_.size() - 1;
  rows_[i] = rows_[last];
  rows_.pop_back();
  size_t width = qi_.size();
  std::copy_n(codes_.begin() + last * width, width,
              codes_.begin() + i * width);
  codes_.resize(last * width);
  return row;
}

void KMemberPool::SetAnchor(std::span<const ValueCode> anchor) {
  for (size_t j = 0; j < qi_.size(); ++j) {
    for (ValueCode code = kSuppressed; code < domain_[j]; ++code) {
      anchor_terms_[j][code] = metric_->Term(qi_[j], anchor[j], code);
    }
  }
}

namespace {

/// Number of pool indices a greedy step scans: all of them in exact
/// mode, or `sample_size` random ones.
size_t ScanCount(const KMemberPool& pool, size_t sample_size) {
  if (sample_size == 0 || pool.size() <= sample_size) return pool.size();
  return sample_size;
}

size_t PickIndex(const KMemberPool& pool, size_t scan, size_t step,
                 Rng* rng) {
  if (scan == pool.size()) return step;  // exact scan
  return static_cast<size_t>(rng->NextBounded(pool.size()));
}

/// Seed step: the first scanned index furthest from the pool's anchor.
size_t FurthestIndex(const KMemberPool& pool, size_t sample_size, Rng* rng) {
  size_t scan = ScanCount(pool, sample_size);
  double best_distance = -1.0;
  size_t best_index = 0;
  for (size_t s = 0; s < scan; ++s) {
    size_t i = PickIndex(pool, scan, s, rng);
    double d = pool.DistanceToAnchor(i);
    if (d > best_distance) {
      best_distance = d;
      best_index = i;
    }
  }
  return best_index;
}

/// Grow step: the first scanned index with the least divergence from the
/// cluster's live columns, i.e. the least ★ increase.
size_t CheapestIndex(const KMemberPool& pool,
                     const ClusterCostTracker& tracker, size_t sample_size,
                     Rng* rng) {
  std::span<const ValueCode> common = tracker.common();
  std::vector<size_t> live;
  for (size_t j = 0; j < common.size(); ++j) {
    if (common[j] != kSuppressed) live.push_back(j);
  }
  size_t scan = ScanCount(pool, sample_size);
  bool exact = scan == pool.size();
  size_t best_divergence = std::numeric_limits<size_t>::max();
  size_t best_index = 0;
  for (size_t s = 0; s < scan; ++s) {
    size_t i = PickIndex(pool, scan, s, rng);
    size_t d = pool.Divergence(common, live, i);
    if (d < best_divergence) {
      best_divergence = d;
      best_index = i;
      if (exact && d == 0) break;  // nothing later is strictly cheaper
    }
  }
  return best_index;
}

}  // namespace

Result<Clustering> KMemberAnonymizer::BuildClusters(
    const Relation& relation, std::span<const RowId> rows, size_t k) {
  DIVA_TRACE_SPAN("baseline/kmember");
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("kmember.build"));
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (rows.empty()) return Clustering{};
  if (rows.size() < k) {
    return Status::Infeasible(
        "cannot form a k-anonymous group from " +
        std::to_string(rows.size()) + " < k = " + std::to_string(k) +
        " tuples");
  }

  DistanceMetric metric(relation);
  Rng rng(options_.seed);
  KMemberPool pool(relation, metric, rows);
  Clustering clusters;
  std::vector<ClusterCostTracker> trackers;

  // Seed anchor: a random record (the paper's k-member starts from a
  // randomly chosen record and then picks the furthest one each round).
  pool.SetAnchor(
      pool.codes(static_cast<size_t>(rng.NextBounded(pool.size()))));

  while (pool.size() >= k) {
    // One deadline poll per greedy cluster: a half-built clustering is
    // useless, so the caller (RunDiva) discards it and falls back to the
    // single-pass Mondrian baseline.
    if (options_.cancel.Cancelled()) {
      return DeadlineExceededStatus("k-member clustering");
    }
    size_t seed_index = FurthestIndex(pool, options_.sample_size, &rng);
    pool.SetAnchor(pool.codes(seed_index));  // the next seed's anchor
    RowId seed = pool.TakeAt(seed_index);

    ClusterCostTracker tracker(relation);
    tracker.Reset(seed);
    Cluster cluster = {seed};

    while (cluster.size() < k) {
      RowId added =
          pool.TakeAt(CheapestIndex(pool, tracker, options_.sample_size, &rng));
      tracker.Add(added);
      cluster.push_back(added);
    }
    clusters.push_back(std::move(cluster));
    trackers.push_back(std::move(tracker));
  }

  // Distribute the (< k) leftovers to their cheapest clusters.
  while (!pool.empty()) {
    RowId row = pool.TakeAt(pool.size() - 1);
    size_t cheapest = std::numeric_limits<size_t>::max();
    size_t target = 0;
    for (size_t c = 0; c < clusters.size(); ++c) {
      size_t cost = trackers[c].CostIncrease(row);
      if (cost < cheapest) {
        cheapest = cost;
        target = c;
      }
    }
    trackers[target].Add(row);
    clusters[target].push_back(row);
  }

  DIVA_COUNTER_ADD("kmember.clusters", clusters.size());
  return clusters;
}

}  // namespace diva
