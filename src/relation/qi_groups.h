#ifndef DIVA_RELATION_QI_GROUPS_H_
#define DIVA_RELATION_QI_GROUPS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "relation/relation.h"

namespace diva {

/// Partition of (a subset of) a relation's rows into QI-groups: maximal
/// sets of rows that agree on every quasi-identifier attribute
/// (a suppressed cell only matches another suppressed cell).
struct QiGroups {
  /// Each group is a list of row ids; groups are disjoint and cover the
  /// rows that were passed in.
  std::vector<std::vector<RowId>> groups;

  /// Size of the smallest group (0 when there are no rows).
  size_t MinGroupSize() const;
};

/// Groups all rows of `relation` by their QI projection.
QiGroups ComputeQiGroups(const Relation& relation);

/// Groups only the rows in `rows`.
QiGroups ComputeQiGroups(const Relation& relation,
                         std::span<const RowId> rows);

/// True iff every tuple lies in a QI-group of size >= k (Definition 2.1).
/// An empty relation is k-anonymous for any k.
bool IsKAnonymous(const Relation& relation, size_t k);

/// Number of distinct QI projections |Pi_QI(R)| (Table 4 statistic).
/// Counts suppressed patterns as distinct values.
size_t CountDistinctQiProjections(const Relation& relation);

}  // namespace diva

#endif  // DIVA_RELATION_QI_GROUPS_H_
