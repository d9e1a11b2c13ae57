#ifndef DIVA_RELATION_RELATION_H_
#define DIVA_RELATION_RELATION_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relation/dictionary.h"
#include "relation/schema.h"
#include "relation/value.h"

namespace diva {

/// std::allocator, except that a value-less construct default-initializes:
/// resizing a vector of codes leaves the new cells unwritten, so a copy
/// can fill them in parallel and each thread takes the page faults of the
/// pages it writes, instead of one thread zeroing the buffer first.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A dictionary-encoded relation: row-major int32 codes over a shared
/// immutable schema. Suppressed cells hold kSuppressed.
///
/// Relations derived from one another (e.g., R and its anonymization R*)
/// share dictionaries until one of them interns a value, and row ids are
/// stable: row i of R* is the anonymized row i of R. Interning never
/// writes a dictionary another relation shares: the interning relation
/// copies it first (see Encode). So codes below the source's dictionary
/// size mean the same value in both relations, and deriving R* never
/// changes R.
class Relation {
 public:
  /// Creates an empty relation over `schema` with fresh dictionaries.
  explicit Relation(std::shared_ptr<const Schema> schema);

  /// Copies fill the cells in parallel (ParallelFor) once they exceed
  /// one copy chunk, so a large copy may not start inside a ParallelFor
  /// body.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  const Schema& schema() const { return *schema_; }
  const std::shared_ptr<const Schema>& schema_ptr() const { return schema_; }

  size_t NumRows() const { return num_rows_; }
  size_t NumAttributes() const { return schema_->NumAttributes(); }

  ValueCode At(RowId row, size_t col) const {
    return data_[static_cast<size_t>(row) * stride_ + col];
  }
  void Set(RowId row, size_t col, ValueCode value) {
    data_[static_cast<size_t>(row) * stride_ + col] = value;
  }
  bool IsSuppressed(RowId row, size_t col) const {
    return At(row, col) == kSuppressed;
  }

  /// Read-only view of a row's codes.
  std::span<const ValueCode> Row(RowId row) const {
    return {data_.data() + static_cast<size_t>(row) * stride_, stride_};
  }

  /// Appends a row of pre-encoded codes; must have NumAttributes entries.
  RowId AppendRow(std::span<const ValueCode> codes);

  /// Appends rows of pre-encoded codes laid out row-major; the size must
  /// be a multiple of NumAttributes.
  void AppendRows(std::span<const ValueCode> codes);

  /// Reserves room for `rows` rows in all, so appends up to that many do
  /// not reallocate.
  void ReserveRows(size_t rows) { data_.reserve(rows * stride_); }

  /// Encodes `fields` through the dictionaries and appends; "*"/"★" map to
  /// kSuppressed. Must have NumAttributes entries.
  [[nodiscard]] Result<RowId> AppendRowStrings(const std::vector<std::string>& fields);

  /// Textual value of a cell ("*" when suppressed).
  std::string ValueString(RowId row, size_t col) const;

  /// Dictionary of attribute `col` (possibly shared with derived
  /// relations, hence read-only).
  const Dictionary& dictionary(size_t col) const {
    return *dictionaries_[col];
  }

  /// An empty relation sharing this relation's schema and dictionaries.
  /// Rows appended to it use compatible codes.
  Relation EmptyLike() const;

  /// A relation containing copies of the given rows (in the given order),
  /// sharing schema and dictionaries. Like a copy, it gathers in parallel
  /// above one copy chunk.
  /// `spare_rows` reserves room for that many rows appended afterwards,
  /// so the appends do not reallocate the copied rows.
  Relation SelectRows(std::span<const RowId> rows,
                      size_t spare_rows = 0) const;

  /// Cells one parallel copy chunk moves (256 KiB of codes). A copy or
  /// gather of at most this many cells runs inline on the calling thread.
  static constexpr size_t kCopyChunkCells = size_t{1} << 16;

  /// Interns `value` in attribute `col`'s dictionary and returns its code.
  /// A dictionary that another relation shares and that lacks `value` is
  /// copied first, so the other relation never sees the new value; a sole
  /// owner interns in place. A use count of 1 cannot rise while this runs:
  /// only a copy of this relation could share the dictionary, and copying
  /// a relation while it is being written is already a data race.
  ValueCode Encode(size_t col, std::string_view value) {
    if (dictionaries_[col].use_count() > 1) return EncodeShared(col, value);
    // The count may have just dropped to 1 on another thread: pair with
    // that owner's releasing decrement so its reads precede this write.
    std::atomic_thread_fence(std::memory_order_acquire);
    return dictionaries_[col]->GetOrInsert(value);
  }

  /// Looks up the code of `value` in attribute `col` without interning.
  std::optional<ValueCode> FindCode(size_t col, std::string_view value) const {
    return dictionaries_[col]->Find(value);
  }

 private:
  ValueCode EncodeShared(size_t col, std::string_view value);

  std::shared_ptr<const Schema> schema_;
  std::vector<std::shared_ptr<Dictionary>> dictionaries_;
  std::vector<ValueCode, DefaultInitAllocator<ValueCode>> data_;
  size_t stride_ = 0;
  size_t num_rows_ = 0;
};

/// Convenience test/demo builder: encodes `rows` of strings over `schema`.
[[nodiscard]] Result<Relation> RelationFromRows(
    std::shared_ptr<const Schema> schema,
    const std::vector<std::vector<std::string>>& rows);

}  // namespace diva

#endif  // DIVA_RELATION_RELATION_H_
