#include "anon/oka.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>

#include "anon/distance.h"
#include "common/counters.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/trace.h"

namespace diva {

namespace {

/// Mutable cluster centroid: per categorical QI attribute a value
/// histogram (distance = 1 - relative frequency of the record's value),
/// per numeric QI attribute a running mean (distance = normalized |v-mean|).
class Centroid {
 public:
  Centroid(const Relation& relation, const DistanceMetric& metric)
      : relation_(&relation), metric_(&metric) {
    const auto& qi = relation.schema().qi_indices();
    histograms_.resize(qi.size());
    sums_.assign(qi.size(), 0.0);
  }

  void Add(RowId row) {
    const auto& qi = relation_->schema().qi_indices();
    for (size_t i = 0; i < qi.size(); ++i) {
      ValueCode code = relation_->At(row, qi[i]);
      if (metric_->IsNumericColumn(qi[i])) {
        sums_[i] += NumericValue(qi[i], code);
      } else {
        ++histograms_[i][code];
      }
    }
    ++size_;
  }

  void Remove(RowId row) {
    // Always-on: removing from an empty centroid would wrap size_ and
    // poison every later Distance() call in release builds.
    DIVA_CHECK_MSG(size_ > 0, "Centroid::Remove on empty centroid");
    const auto& qi = relation_->schema().qi_indices();
    for (size_t i = 0; i < qi.size(); ++i) {
      ValueCode code = relation_->At(row, qi[i]);
      if (metric_->IsNumericColumn(qi[i])) {
        sums_[i] -= NumericValue(qi[i], code);
      } else {
        auto it = histograms_[i].find(code);
        // Always-on: dereferencing end() here is immediate UB in release
        // builds, so the DCHECK was load-bearing.
        DIVA_CHECK_MSG(it != histograms_[i].end() && it->second > 0,
                       "Centroid::Remove of a row that was never added");
        if (--it->second == 0) histograms_[i].erase(it);
      }
    }
    --size_;
  }

  double Distance(RowId row) const {
    if (size_ == 0) return 0.0;
    const auto& qi = relation_->schema().qi_indices();
    double total = 0.0;
    for (size_t i = 0; i < qi.size(); ++i) {
      ValueCode code = relation_->At(row, qi[i]);
      if (metric_->IsNumericColumn(qi[i])) {
        double mean = sums_[i] / static_cast<double>(size_);
        total += NormalizedGap(qi[i], NumericValue(qi[i], code), mean);
      } else {
        auto it = histograms_[i].find(code);
        double freq =
            it == histograms_[i].end()
                ? 0.0
                : static_cast<double>(it->second) / static_cast<double>(size_);
        total += 1.0 - freq;
      }
    }
    return total;
  }

  size_t size() const { return size_; }

  /// Distance() only reads; concurrent evaluations against the same
  /// centroid set are safe as long as no Add/Remove interleaves.

 private:
  double NumericValue(size_t col, ValueCode code) const {
    if (code == kSuppressed) return 0.0;
    return metric_->NumericValue(col, code);
  }

  double NormalizedGap(size_t col, double a, double b) const {
    return std::fabs(a - b) * metric_->InvRange(col);
  }

  const Relation* relation_;
  const DistanceMetric* metric_;
  std::vector<std::unordered_map<ValueCode, uint32_t>> histograms_;
  std::vector<double> sums_;
  size_t size_ = 0;
};

}  // namespace

Result<Clustering> OkaAnonymizer::BuildClusters(const Relation& relation,
                                                std::span<const RowId> rows,
                                                size_t k) {
  DIVA_TRACE_SPAN("baseline/oka");
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("oka.build"));
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
  size_t num_clusters = rows.size() / k;
  DIVA_CHECK_MSG(num_clusters >= 1, "OKA: zero clusters for |rows| >= k");

  std::vector<RowId> shuffled(rows.begin(), rows.end());
  rng.Shuffle(&shuffled);

  Clustering clusters(num_clusters);
  std::vector<Centroid> centroids;
  centroids.reserve(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    centroids.emplace_back(relation, metric);
    centroids[c].Add(shuffled[c]);
    clusters[c].push_back(shuffled[c]);
  }

  // Nearest centroid to `row` under an optional deficit filter. The scan
  // only reads centroids, so it chunks over the centroid index: chunk
  // minima found with the same strict < and merged in ascending chunk
  // order give the sequential first-minimum for every thread count.
  // Below the threshold the single-chunk form of the identical
  // computation runs in place.
  constexpr size_t kMinParallelCentroidScan = 128;
  struct NearestHit {
    double distance = std::numeric_limits<double>::max();
    std::optional<size_t> target;
  };
  auto nearest = [&](RowId row, bool deficit_only) -> std::optional<size_t> {
    auto scan_chunk = [&](size_t begin, size_t end) {
      NearestHit local;
      for (size_t c = begin; c < end; ++c) {
        if (deficit_only && clusters[c].size() >= k) continue;
        double d = centroids[c].Distance(row);
        if (d < local.distance) {
          local.distance = d;
          local.target = c;
        }
      }
      return local;
    };
    NearestHit best;
    if (num_clusters < kMinParallelCentroidScan) {
      best = scan_chunk(0, num_clusters);
    } else {
      best = ParallelReduce<NearestHit>(
          num_clusters, /*grain=*/0, NearestHit{}, scan_chunk,
          [](NearestHit a, NearestHit b) {
            if (!b.target.has_value()) return a;
            if (!a.target.has_value() || b.distance < a.distance) return b;
            return a;
          });
    }
    return best.target;
  };

  // Phase 1: one pass, assign to nearest centroid, update immediately.
  // Rows stay sequential (each assignment moves a centroid); the centroid
  // scan inside `nearest` carries the parallelism.
  for (size_t i = num_clusters; i < shuffled.size(); ++i) {
    // One deadline poll per assignment: an abandoned half-assignment is
    // useless, so fail and let RunDiva fall back to Mondrian.
    if (options_.cancel.Cancelled()) {
      return DeadlineExceededStatus("OKA clustering");
    }
    RowId row = shuffled[i];
    auto target = nearest(row, /*deficit_only=*/false);
    DIVA_CHECK(target.has_value());
    centroids[*target].Add(row);
    clusters[*target].push_back(row);
  }

  // Phase 2a: trim oversized clusters, farthest-from-centroid first.
  // Each cluster's trim touches only its own rows and centroid, so the
  // clusters trim concurrently; per-cluster overflow lists concatenated
  // in cluster order equal the sequential overflow order.
  std::vector<std::vector<RowId>> trimmed =
      ParallelMap<std::vector<RowId>>(num_clusters, /*grain=*/1, [&](size_t c) {
        std::vector<RowId> evicted;
        while (clusters[c].size() > k) {
          size_t worst = 0;
          double worst_distance = -1.0;
          for (size_t i = 0; i < clusters[c].size(); ++i) {
            double d = centroids[c].Distance(clusters[c][i]);
            if (d > worst_distance) {
              worst_distance = d;
              worst = i;
            }
          }
          RowId row = clusters[c][worst];
          clusters[c][worst] = clusters[c].back();
          clusters[c].pop_back();
          centroids[c].Remove(row);
          evicted.push_back(row);
        }
        return evicted;
      });
  std::vector<RowId> overflow;
  for (const std::vector<RowId>& evicted : trimmed) {
    overflow.insert(overflow.end(), evicted.begin(), evicted.end());
  }

  // Phase 2b: refill deficit clusters first, then spread the surplus.

  for (RowId row : overflow) {
    auto target = nearest(row, /*deficit_only=*/true);
    if (!target.has_value()) target = nearest(row, /*deficit_only=*/false);
    DIVA_CHECK(target.has_value());
    centroids[*target].Add(row);
    clusters[*target].push_back(row);
  }

  // Phase 1 seeds every cluster with one record, so deficits are covered:
  // total rows >= num_clusters * k guarantees enough overflow existed.
  for (const Cluster& c : clusters) {
    DIVA_CHECK_MSG(c.size() >= k, "OKA adjustment left an undersized cluster");
  }
  DIVA_COUNTER_ADD("oka.clusters", clusters.size());
  return clusters;
}

}  // namespace diva
