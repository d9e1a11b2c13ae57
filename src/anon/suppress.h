#ifndef DIVA_ANON_SUPPRESS_H_
#define DIVA_ANON_SUPPRESS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "anon/cluster.h"
#include "relation/relation.h"

namespace diva {

/// Suppression operator (paper Algorithm 2) applied in place: for every
/// cluster, each quasi-identifier attribute on which the cluster's tuples
/// disagree is replaced by kSuppressed in all of the cluster's rows, so
/// each cluster becomes a QI-group. Rows outside the clusters are
/// untouched. Sensitive and identifier attributes are never suppressed
/// here.
void SuppressClustersInPlace(Relation* relation, const Clustering& clustering);

/// Blanks every identifier-attribute cell (SSN-like columns uniquely
/// identify an individual and must never be published). Called by the
/// anonymizers on their final output.
void SuppressIdentifiers(Relation* relation);

/// The widest QI projection StarMask describes.
inline constexpr size_t kStarMaskColumns = 7;

/// The QI columns suppressing `cluster` stars, as bit q for column
/// qi_indices()[q]: those on which its rows disagree or one holds a ★
/// (SuppressClustersInPlace's rule). Requires at most kStarMaskColumns
/// QI columns.
uint8_t StarMask(const Relation& relation, std::span<const RowId> cluster);

/// Number of ★s that suppressing `cluster` would introduce:
/// |cluster| x (number of QI attributes without a unanimous,
/// non-suppressed value).
size_t SuppressionCost(const Relation& relation, std::span<const RowId> cluster);

}  // namespace diva

#endif  // DIVA_ANON_SUPPRESS_H_
