#ifndef DIVA_ANON_PRIVACY_H_
#define DIVA_ANON_PRIVACY_H_

#include "anon/cluster.h"
#include "common/deadline.h"
#include "common/result.h"
#include "relation/relation.h"

namespace diva {

/// Distinct l-diversity (Machanavajjhala et al.): every QI-group must
/// contain at least l distinct sensitive-attribute projections. The
/// paper lists l-diversity as the first privacy semantics DIVA extends
/// to ("DIVA is extensible to re-define the clustering criteria
/// according to these privacy semantics", Section 5).
///
/// True iff every QI-group of `relation` carries >= l distinct sensitive
/// projections. l <= 1 is trivially satisfied.
bool IsDistinctLDiverse(const Relation& relation, size_t l);

/// Number of distinct sensitive projections in the whole relation — the
/// upper limit of enforceable l.
size_t CountDistinctSensitiveProjections(const Relation& relation);

/// Post-processing enforcement: greedily merges clusters whose rows
/// carry fewer than l distinct sensitive projections into the cheapest
/// (fewest additional ★s) other cluster, re-suppressing merged clusters,
/// until every cluster is l-diverse. `clusters` must partition the rows
/// of `relation` into QI-groups (as produced by the anonymizers or by
/// DIVA). Fails with Infeasible when the relation holds fewer than l
/// distinct sensitive projections overall.
///
/// Merging only adds suppression, so k-anonymity is preserved and
/// diversity-constraint upper bounds cannot be violated; lower bounds
/// may lose occurrences (callers should re-verify).
///
/// `cancel` is polled once per merge: when it trips, the merges done so
/// far are kept and the (possibly still non-l-diverse) clustering is
/// returned — every intermediate state is a valid k-anonymous partition,
/// so truncation degrades privacy enforcement, never correctness. Callers
/// running under a deadline must re-check IsDistinctLDiverse.
[[nodiscard]] Result<Clustering> EnforceLDiversity(Relation* relation, Clustering clusters,
                                     size_t l,
                                     CancellationToken cancel = {});

/// t-closeness (Li, Li, Venkatasubramanian — ICDE 2007): the distribution
/// of each sensitive attribute within every QI-group must be within
/// distance t of its distribution in the whole relation. Categorical
/// attributes use the variational distance (equal-ground EMD); numeric
/// attributes the ordered earth-mover's distance over the value order.
///
/// Largest distance between any QI-group's sensitive distribution and
/// the global one, maximized over sensitive attributes — the smallest t
/// for which the relation is t-close. 0 for relations without rows,
/// QI-groups, or sensitive attributes.
double TClosenessDistance(const Relation& relation);

/// True iff TClosenessDistance(relation) <= t.
bool IsTClose(const Relation& relation, double t);

/// Post-processing enforcement mirroring EnforceLDiversity: merges the
/// cluster farthest from the global sensitive distribution into its
/// cheapest partner until every cluster is within t. Fails with
/// Infeasible if `t` cannot be met even by a single all-row cluster
/// (never happens for t >= 0: one cluster has distance 0).
/// `cancel` truncates the merge loop exactly as in EnforceLDiversity;
/// callers under a deadline must re-check IsTClose.
[[nodiscard]] Result<Clustering> EnforceTCloseness(Relation* relation, Clustering clusters,
                                     double t,
                                     CancellationToken cancel = {});

}  // namespace diva

#endif  // DIVA_ANON_PRIVACY_H_
