#include "anon/privacy.h"

#include <algorithm>
#include <limits>
#include <cmath>
#include <map>
#include <unordered_set>

#include "anon/suppress.h"
#include "common/counters.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/trace.h"
#include "relation/qi_groups.h"

namespace diva {

namespace {

/// FNV-1a hash of a row's sensitive projection.
uint64_t SensitiveKey(const Relation& relation, RowId row) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t col : relation.schema().sensitive_indices()) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(relation.At(row, col)));
    h *= 1099511628211ULL;
  }
  return h;
}

size_t DistinctSensitive(const Relation& relation,
                         const std::vector<RowId>& rows) {
  std::unordered_set<uint64_t> keys;
  for (RowId row : rows) keys.insert(SensitiveKey(relation, row));
  return keys.size();
}

/// The cluster other than clusters[i] whose union with it costs the
/// fewest stars (SuppressionCost), the first one on ties. Needs at least
/// two clusters.
size_t CheapestPartner(const Relation& relation, const Clustering& clusters,
                       size_t i) {
  size_t best = clusters.size();
  size_t best_cost = std::numeric_limits<size_t>::max();
  for (size_t j = 0; j < clusters.size(); ++j) {
    if (j == i) continue;
    Cluster merged = clusters[i];
    merged.insert(merged.end(), clusters[j].begin(), clusters[j].end());
    size_t cost = SuppressionCost(relation, merged);
    if (cost < best_cost) {
      best_cost = cost;
      best = j;
    }
  }
  DIVA_CHECK_MSG(best < clusters.size(), "no merge partner");
  return best;
}

}  // namespace

bool IsDistinctLDiverse(const Relation& relation, size_t l) {
  if (l <= 1) return true;
  QiGroups groups = ComputeQiGroups(relation);
  for (const auto& group : groups.groups) {
    if (DistinctSensitive(relation, group) < l) return false;
  }
  return true;
}

size_t CountDistinctSensitiveProjections(const Relation& relation) {
  std::unordered_set<uint64_t> keys;
  for (RowId row = 0; row < relation.NumRows(); ++row) {
    keys.insert(SensitiveKey(relation, row));
  }
  return keys.size();
}

Result<Clustering> EnforceLDiversity(Relation* relation, Clustering clusters,
                                     size_t l, CancellationToken cancel) {
  DIVA_TRACE_SPAN("privacy/l_diversity");
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("privacy.ldiversity"));
  if (l <= 1 || clusters.empty()) return clusters;
  if (CountDistinctSensitiveProjections(*relation) < l) {
    return Status::Infeasible(
        "relation has fewer than l = " + std::to_string(l) +
        " distinct sensitive projections");
  }

  // Merge the first violating cluster into the other cluster whose union
  // costs the fewest additional stars, until none violates. Each merge
  // strictly reduces the cluster count, so this terminates. Clusters
  // before the merged index were already l-diverse and a merge only
  // grows its target, so the scan resumes there instead of at 0. A
  // tripped deadline token truncates the loop: merges done so far are
  // kept (every intermediate state is a valid partition) and the caller
  // re-verifies diversity.
  size_t i = 0;
  while (clusters.size() > 1 && !cancel.Cancelled()) {
    while (i < clusters.size() &&
           DistinctSensitive(*relation, clusters[i]) >= l) {
      ++i;
    }
    if (i == clusters.size()) break;
    Cluster& target = clusters[CheapestPartner(*relation, clusters, i)];
    target.insert(target.end(), clusters[i].begin(), clusters[i].end());
    clusters.erase(clusters.begin() + static_cast<long>(i));
    DIVA_COUNTER_ADD("privacy.merges", 1);
  }

  // One cluster left but still short on sensitive variety is impossible:
  // the feasibility precheck guaranteed enough distinct projections.
  SuppressClustersInPlace(relation, clusters);
  return clusters;
}

namespace {

/// Distribution of sensitive attribute `col` over a set of rows, as
/// (code -> probability). Codes are ordered, which matters for the
/// numeric (ordered-EMD) case.
std::map<ValueCode, double> SensitiveDistribution(
    const Relation& relation, size_t col, const std::vector<RowId>& rows) {
  std::map<ValueCode, double> distribution;
  if (rows.empty()) return distribution;
  double unit = 1.0 / static_cast<double>(rows.size());
  for (RowId row : rows) distribution[relation.At(row, col)] += unit;
  return distribution;
}

/// Distance between a group's and the global distribution of sensitive
/// attribute `col`: ordered EMD for numeric attributes (normalized by
/// m - 1 positions over the union support), variational distance for
/// categorical ones.
double DistributionDistance(const Relation& relation, size_t col,
                            const std::map<ValueCode, double>& group,
                            const std::map<ValueCode, double>& global) {
  // Union support in value order. For numeric attributes order by the
  // parsed numeric value; categorical order is irrelevant (variational).
  std::vector<ValueCode> support;
  for (const auto& [code, p] : global) support.push_back(code);
  for (const auto& [code, p] : group) {
    if (!global.count(code)) support.push_back(code);
  }

  bool numeric = relation.schema().attribute(col).kind ==
                     AttributeKind::kNumeric &&
                 relation.dictionary(col).AllNumeric();
  auto prob = [](const std::map<ValueCode, double>& d, ValueCode c) {
    auto it = d.find(c);
    return it == d.end() ? 0.0 : it->second;
  };

  if (!numeric) {
    double total = 0.0;
    for (ValueCode code : support) {
      total += std::abs(prob(group, code) - prob(global, code));
    }
    return total / 2.0;
  }

  std::sort(support.begin(), support.end(), [&](ValueCode a, ValueCode b) {
    double va = a == kSuppressed ? -1e300
                                 : *relation.dictionary(col).NumericValueOf(a);
    double vb = b == kSuppressed ? -1e300
                                 : *relation.dictionary(col).NumericValueOf(b);
    return va < vb;
  });
  if (support.size() <= 1) return 0.0;
  double cumulative = 0.0;
  double emd = 0.0;
  for (ValueCode code : support) {
    cumulative += prob(group, code) - prob(global, code);
    emd += std::abs(cumulative);
  }
  return emd / static_cast<double>(support.size() - 1);
}

/// The whole relation's distribution of each sensitive attribute, in
/// sensitive_indices() order.
std::vector<std::map<ValueCode, double>> GlobalDistributions(
    const Relation& relation) {
  std::vector<RowId> all(relation.NumRows());
  for (RowId i = 0; i < relation.NumRows(); ++i) all[i] = i;
  std::vector<std::map<ValueCode, double>> globals;
  for (size_t col : relation.schema().sensitive_indices()) {
    globals.push_back(SensitiveDistribution(relation, col, all));
  }
  return globals;
}

/// Largest distance of any group from the global distributions, over
/// every sensitive attribute.
double MaxGroupDistance(
    const Relation& relation,
    const std::vector<std::map<ValueCode, double>>& globals,
    const std::vector<std::vector<RowId>>& groups) {
  double worst = 0.0;
  const std::vector<size_t>& sensitive = relation.schema().sensitive_indices();
  for (size_t s = 0; s < sensitive.size(); ++s) {
    for (const auto& group : groups) {
      auto local = SensitiveDistribution(relation, sensitive[s], group);
      worst = std::max(worst, DistributionDistance(relation, sensitive[s],
                                                   local, globals[s]));
    }
  }
  return worst;
}

}  // namespace

double TClosenessDistance(const Relation& relation) {
  if (relation.NumRows() == 0 ||
      relation.schema().sensitive_indices().empty()) {
    return 0.0;
  }
  QiGroups groups = ComputeQiGroups(relation);
  return MaxGroupDistance(relation, GlobalDistributions(relation),
                          groups.groups);
}

bool IsTClose(const Relation& relation, double t) {
  return TClosenessDistance(relation) <= t + 1e-12;
}

Result<Clustering> EnforceTCloseness(Relation* relation, Clustering clusters,
                                     double t, CancellationToken cancel) {
  DIVA_TRACE_SPAN("privacy/t_closeness");
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("privacy.tcloseness"));
  if (t < 0.0) {
    return Status::InvalidArgument("t must be non-negative");
  }
  if (clusters.empty() ||
      relation->schema().sensitive_indices().empty()) {
    return clusters;
  }

  // The relation does not change inside the merge loop, so the global
  // distributions are built once and each cluster's distance is kept
  // until a merge grows that cluster. A tripped deadline token truncates
  // the loop (see EnforceLDiversity); the caller re-verifies closeness.
  const auto globals = GlobalDistributions(*relation);
  auto cluster_distance = [&](const Cluster& cluster) {
    return MaxGroupDistance(*relation, globals, {cluster});
  };
  std::vector<double> distance;
  distance.reserve(clusters.size());
  for (const Cluster& cluster : clusters) {
    distance.push_back(cluster_distance(cluster));
  }
  while (clusters.size() > 1 && !cancel.Cancelled()) {
    // Find the worst cluster.
    size_t worst = clusters.size();
    double worst_distance = t;
    for (size_t i = 0; i < clusters.size(); ++i) {
      if (distance[i] > worst_distance + 1e-12) {
        worst_distance = distance[i];
        worst = i;
      }
    }
    if (worst == clusters.size()) break;  // all within t

    size_t best = CheapestPartner(*relation, clusters, worst);
    Cluster& target = clusters[best];
    target.insert(target.end(), clusters[worst].begin(),
                  clusters[worst].end());
    distance[best] = cluster_distance(target);
    clusters.erase(clusters.begin() + static_cast<long>(worst));
    distance.erase(distance.begin() + static_cast<long>(worst));
    DIVA_COUNTER_ADD("privacy.merges", 1);
  }

  SuppressClustersInPlace(relation, clusters);
  return clusters;
}

}  // namespace diva
