#ifndef DIVA_CORE_INTEGRATE_H_
#define DIVA_CORE_INTEGRATE_H_

#include "anon/cluster.h"
#include "constraint/diversity_constraint.h"
#include "relation/relation.h"

namespace diva {

/// Statistics of the Integrate repair phase.
struct IntegrateStats {
  /// Constraints whose upper bound had to be repaired.
  size_t repaired_constraints = 0;
  /// Cells suppressed by the repair.
  size_t suppressed_cells = 0;
};

/// The Integrate phase (paper Fig. 1): R' = R_Sigma ∪ R_k may exceed a
/// constraint's upper bound because of occurrences contributed by R_k;
/// this routine suppresses the minimal number of additional cells in the
/// R_k side of `relation` to restore every upper bound.
///
/// `rk_clusters` are the QI-groups produced by the Anonymize phase
/// (repair never touches R_Sigma rows, so lower bounds guaranteed by the
/// diverse clustering are preserved). For targets made of QI attributes
/// only, one target attribute is suppressed across whole R_k clusters
/// (keeping them uniform QI-groups of unchanged size, so k-anonymity is
/// preserved); clusters are chosen greedily to minimize overshoot. For
/// targets involving a sensitive attribute, single sensitive cells are
/// suppressed — exactly `excess` of them.
IntegrateStats IntegrateRepair(Relation* relation,
                               const ConstraintSet& constraints,
                               const Clustering& rk_clusters);

/// Folds the < k rows the baseline could not cluster into the non-empty
/// `clusters`, one row at a time, suppressing each grown cluster in
/// `relation`. A row joins the first cluster whose merge adds the fewest
/// *new* constraint violations, then the fewest ★s. Candidates are scored
/// from their own rows against one occurrence count per row: O(|R|) per
/// row.
void FoldLeftoverRows(Relation* relation, Clustering* clusters,
                      const std::vector<RowId>& leftover,
                      const ConstraintSet& constraints);

}  // namespace diva

#endif  // DIVA_CORE_INTEGRATE_H_
