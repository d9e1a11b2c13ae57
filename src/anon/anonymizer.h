#ifndef DIVA_ANON_ANONYMIZER_H_
#define DIVA_ANON_ANONYMIZER_H_

#include <memory>
#include <span>
#include <string>

#include "anon/cluster.h"
#include "common/deadline.h"
#include "common/result.h"
#include "relation/relation.h"

namespace diva {

/// Shared knobs for the clustering-based k-anonymizers.
struct AnonymizerOptions {
  /// Seed for any randomized choice (seed selection, tie breaks).
  uint64_t seed = 42;

  /// Cooperative cancellation. The iterative baselines (k-member, OKA)
  /// poll it once per outer greedy step and fail with kDeadlineExceeded
  /// when it trips — their half-built clusterings are useless, so RunDiva
  /// falls back to the single-pass Mondrian instead. Mondrian itself
  /// ignores the token (it is the fallback and near-linear). Default
  /// token never trips.
  CancellationToken cancel;
};

/// A clustering-based k-anonymization algorithm: partitions rows into
/// clusters of size >= k; suppression then turns each cluster into a
/// QI-group (Definition 2.2 via Algorithm 2).
class Anonymizer {
 public:
  virtual ~Anonymizer() = default;

  /// Algorithm name for reports ("k-member", "OKA", "Mondrian").
  virtual std::string name() const = 0;

  /// Partitions `rows` (row ids into `relation`) into clusters, each of
  /// size >= k, covering every row exactly once. Fails with Infeasible if
  /// 0 < |rows| < k.
  [[nodiscard]] virtual Result<Clustering> BuildClusters(const Relation& relation,
                                           std::span<const RowId> rows,
                                           size_t k) = 0;
};

/// Runs `anonymizer` over all rows of `relation` and applies suppression,
/// returning the k-anonymous relation R* (row ids preserved).
[[nodiscard]] Result<Relation> Anonymize(Anonymizer* anonymizer, const Relation& relation,
                           size_t k);

/// Factory helpers.
std::unique_ptr<Anonymizer> MakeKMember(const AnonymizerOptions& options = {});
std::unique_ptr<Anonymizer> MakeOka(const AnonymizerOptions& options = {});
std::unique_ptr<Anonymizer> MakeMondrian(
    const AnonymizerOptions& options = {});

}  // namespace diva

#endif  // DIVA_ANON_ANONYMIZER_H_
