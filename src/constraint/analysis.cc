#include "constraint/analysis.h"

#include <algorithm>

#include "constraint/conflict.h"
#include "constraint/constraint_index.h"

namespace diva {

const char* ConstraintIssueKindToString(ConstraintIssueKind kind) {
  switch (kind) {
    case ConstraintIssueKind::kDuplicateTarget:
      return "duplicate-target";
    case ConstraintIssueKind::kContradictoryBounds:
      return "contradictory-bounds";
    case ConstraintIssueKind::kInsufficientSupport:
      return "insufficient-support";
    case ConstraintIssueKind::kUnclusterableRange:
      return "unclusterable-range";
    case ConstraintIssueKind::kNestedConflict:
      return "nested-conflict";
  }
  return "unknown";
}

namespace {

/// True when the constraints target the same attributes and values
/// (order-insensitive on the attribute list).
bool SameTarget(const DiversityConstraint& a, const DiversityConstraint& b) {
  if (a.attribute_indices().size() != b.attribute_indices().size()) {
    return false;
  }
  // Pair up (attribute, value) and compare as sets.
  std::vector<std::pair<size_t, std::string>> ta;
  std::vector<std::pair<size_t, std::string>> tb;
  for (size_t i = 0; i < a.attribute_indices().size(); ++i) {
    ta.emplace_back(a.attribute_indices()[i], a.values()[i]);
    tb.emplace_back(b.attribute_indices()[i], b.values()[i]);
  }
  std::sort(ta.begin(), ta.end());
  std::sort(tb.begin(), tb.end());
  return ta == tb;
}

}  // namespace

std::vector<ConstraintIssue> AnalyzeConstraintSet(
    const Relation& relation, const ConstraintSet& constraints, size_t k) {
  std::vector<ConstraintIssue> issues;
  std::vector<std::vector<size_t>> adjacency;
  const std::vector<std::vector<RowId>> targets =
      ConstraintIndex(relation, constraints).Targets(&adjacency);

  for (size_t i = 0; i < constraints.size(); ++i) {
    const DiversityConstraint& c = constraints[i];

    if (c.lower() > 0 && targets[i].size() < c.lower()) {
      issues.push_back(
          {ConstraintIssueKind::kInsufficientSupport, i,
           ConstraintIssue::kNoOther,
           c.ToString() + ": only " + std::to_string(targets[i].size()) +
               " target tuples exist, lower bound is " +
               std::to_string(c.lower())});
    }
    if (c.lower() > 0 && std::max<size_t>(k, c.lower()) > c.upper()) {
      issues.push_back(
          {ConstraintIssueKind::kUnclusterableRange, i,
           ConstraintIssue::kNoOther,
           c.ToString() + ": preserving the lower bound requires a cluster"
                          " of >= max(k=" +
               std::to_string(k) + ", " + std::to_string(c.lower()) +
               ") target tuples, which exceeds the upper bound"});
    }

    for (size_t j = i + 1; j < constraints.size(); ++j) {
      const DiversityConstraint& d = constraints[j];
      if (SameTarget(c, d)) {
        bool disjoint_ranges =
            c.upper() < d.lower() || d.upper() < c.lower();
        if (disjoint_ranges) {
          issues.push_back({ConstraintIssueKind::kContradictoryBounds, i, j,
                            c.ToString() + " and " + d.ToString() +
                                " target the same tuples with disjoint"
                                " frequency ranges"});
        } else {
          issues.push_back({ConstraintIssueKind::kDuplicateTarget, i, j,
                            c.ToString() + " duplicates the target of " +
                                d.ToString()});
        }
        continue;
      }
      // Nesting: child's target tuples a subset of the parent's. Every
      // preserved child occurrence is also a parent occurrence, so
      // child.lower > parent.upper is unsatisfiable.
      if (!std::binary_search(adjacency[i].begin(), adjacency[i].end(), j)) {
        continue;
      }
      size_t overlap = SortedIntersectionSize(targets[i], targets[j]);
      const bool i_in_j = overlap == targets[i].size();
      const bool j_in_i = overlap == targets[j].size();
      if (i_in_j && c.lower() > d.upper()) {
        issues.push_back({ConstraintIssueKind::kNestedConflict, i, j,
                          c.ToString() + " is nested inside " + d.ToString() +
                              " but demands more occurrences than the outer"
                              " upper bound allows"});
      } else if (j_in_i && d.lower() > c.upper()) {
        issues.push_back({ConstraintIssueKind::kNestedConflict, j, i,
                          d.ToString() + " is nested inside " + c.ToString() +
                              " but demands more occurrences than the outer"
                              " upper bound allows"});
      }
    }
  }
  return issues;
}

}  // namespace diva
