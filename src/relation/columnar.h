#ifndef DIVA_RELATION_COLUMNAR_H_
#define DIVA_RELATION_COLUMNAR_H_

/// The shard driver's row source (core/shard.h): a non-owning view of
/// the input whose gather is Relation::SelectRows, so slices share the
/// input's schema and dictionaries.

#include <span>

#include "relation/relation.h"

namespace diva {

class ColumnStore {
 public:
  /// A view of `relation`, which must outlive it. Copies nothing.
  static ColumnStore FromRelation(const Relation& relation) {
    return ColumnStore(relation);
  }

  /// The given rows in the given order; aborts on an out-of-range id.
  Relation GatherRows(std::span<const RowId> rows) const {
    return relation_->SelectRows(rows);
  }

 private:
  explicit ColumnStore(const Relation& relation) : relation_(&relation) {}

  const Relation* relation_;
};

}  // namespace diva

#endif  // DIVA_RELATION_COLUMNAR_H_
