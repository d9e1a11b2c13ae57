#ifndef DIVA_CONSTRAINT_CONSTRAINT_INDEX_H_
#define DIVA_CONSTRAINT_CONSTRAINT_INDEX_H_

#include <cstdint>
#include <vector>

#include "constraint/diversity_constraint.h"
#include "relation/relation.h"

namespace diva {

/// Sigma resolved once against one relation's dictionaries, so "which
/// constraints does row r match" is a table read instead of a scan per
/// constraint. Every pipeline question about target tuples (I_sigma, the
/// conflict graph, occurrence counts, repair bookkeeping) reads it.
///
/// Each constraint keeps its target codes. Per attribute, a dense
/// code -> constraint-id table is keyed on each constraint's *first*
/// target attribute; a multi-attribute constraint checks its other
/// attributes after the first one hits. kSuppressed, codes past a table's
/// end, and constraints with a target value absent from the dictionaries
/// never match.
///
/// An index is built per call and reads the relation's cells live, so it
/// stays exact while cells are suppressed in place. The relation must
/// outlive it, and its dictionaries must not grow while the index is in
/// use (a value interned later is unknown to it).
class ConstraintIndex {
 public:
  ConstraintIndex(const Relation& relation, const ConstraintSet& constraints);
  // The index keeps a pointer to the relation: a temporary would dangle.
  ConstraintIndex(Relation&&, const ConstraintSet&) = delete;

  size_t NumConstraints() const { return target_begin_.size() - 1; }

  /// True iff `row` carries constraint `c`'s target values. False for
  /// every row when some target value of `c` is absent from the
  /// relation's dictionaries.
  bool Matches(size_t c, RowId row) const;

  /// counts[c] = |I_c|, in one chunked pass over the rows. Exact integer
  /// sums, so the result is identical at every thread width.
  std::vector<size_t> CountAll() const;

  /// targets[c] = I_c, ascending row ids. When `adjacency` is non-null it
  /// also receives the conflict graph's sorted neighbor lists: i and j
  /// are adjacent iff some row matches both. Two chunked passes (count,
  /// then fill each chunk's exact slice), so the lists are byte-equal to
  /// a sequential scan at every thread width. Edges come from each
  /// distinct hit list of two or more constraints, once, not from every
  /// row that carries it. Rows below `first_row` are skipped: the lists
  /// and edges then come from rows first_row, first_row + 1, ... only.
  std::vector<std::vector<RowId>> Targets(
      std::vector<std::vector<size_t>>* adjacency = nullptr,
      RowId first_row = 0) const;

 private:
  /// One target cell: attribute and resolved code.
  struct Cell {
    uint32_t attr = 0;
    ValueCode code = 0;
  };
  /// A constraint filed under its first target cell, with the range of
  /// its other target cells in targets_.
  struct Entry {
    uint32_t constraint = 0;
    uint32_t rest_begin = 0;
    uint32_t rest_end = 0;
  };
  /// code -> entries for one attribute, in CSR form: the entries of
  /// code v are entries[begin[v] .. begin[v + 1]), ascending by
  /// constraint id.
  struct Table {
    size_t attr = 0;
    std::vector<uint32_t> begin;
    std::vector<Entry> entries;
  };

  template <typename Fn>
  void ForEachMatch(RowId row, Fn&& fn) const;

  const Relation* relation_;
  /// Constraint c's target cells are targets_[target_begin_[c] ..
  /// target_begin_[c + 1]), in attribute_indices() order; none when the
  /// constraint is unresolved.
  std::vector<Cell> targets_;
  std::vector<uint32_t> target_begin_;
  /// One table per first attribute, ascending by attribute.
  std::vector<Table> tables_;
};

}  // namespace diva

#endif  // DIVA_CONSTRAINT_CONSTRAINT_INDEX_H_
