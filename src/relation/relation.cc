#include "relation/relation.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/parallel.h"

namespace diva {

namespace {

/// Runs copy(begin, end) over row ranges that partition [0, rows), each
/// at most one copy chunk of `stride`-cell rows: inline for one chunk,
/// across the pool otherwise. The cell bytes do not depend on the
/// partition, so the result is the same at every width.
template <typename CopyFn>
void ForEachCopyChunk(size_t rows, size_t stride, const CopyFn& copy) {
  const size_t chunk_rows = std::max<size_t>(
      1, Relation::kCopyChunkCells / std::max<size_t>(1, stride));
  if (rows <= chunk_rows) {
    if (rows > 0) copy(size_t{0}, rows);
    return;
  }
  const size_t chunks = (rows + chunk_rows - 1) / chunk_rows;
  ParallelFor(chunks, /*grain=*/0, [&](size_t chunk_begin, size_t chunk_end) {
    copy(chunk_begin * chunk_rows, std::min(rows, chunk_end * chunk_rows));
  });
}

}  // namespace

Relation::Relation(std::shared_ptr<const Schema> schema)
    : schema_(std::move(schema)), stride_(schema_->NumAttributes()) {
  DIVA_CHECK_MSG(schema_ != nullptr, "Relation requires a schema");
  dictionaries_.reserve(stride_);
  for (size_t i = 0; i < stride_; ++i) {
    dictionaries_.push_back(std::make_shared<Dictionary>());
  }
}

Relation::Relation(const Relation& other)
    : schema_(other.schema_),
      dictionaries_(other.dictionaries_),
      stride_(other.stride_),
      num_rows_(other.num_rows_) {
  data_.resize(other.data_.size());
  ForEachCopyChunk(num_rows_, stride_, [&](size_t begin, size_t end) {
    std::copy_n(other.data_.data() + begin * stride_,
                (end - begin) * stride_, data_.data() + begin * stride_);
  });
}

Relation& Relation::operator=(const Relation& other) {
  if (this != &other) *this = Relation(other);
  return *this;
}

RowId Relation::AppendRow(std::span<const ValueCode> codes) {
  DIVA_CHECK_MSG(codes.size() == stride_, "row arity mismatch");
  data_.insert(data_.end(), codes.begin(), codes.end());
  return static_cast<RowId>(num_rows_++);
}

void Relation::AppendRows(std::span<const ValueCode> codes) {
  if (stride_ == 0) return;
  DIVA_CHECK_MSG(codes.size() % stride_ == 0, "row arity mismatch");
  data_.insert(data_.end(), codes.begin(), codes.end());
  num_rows_ += codes.size() / stride_;
}

Result<RowId> Relation::AppendRowStrings(
    const std::vector<std::string>& fields) {
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("relation.append_row"));
  if (fields.size() != stride_) {
    return Status::InvalidArgument(
        "row has " + std::to_string(fields.size()) + " fields, schema has " +
        std::to_string(stride_));
  }
  for (size_t i = 0; i < stride_; ++i) {
    const std::string& f = fields[i];
    if (f == kStarToken || f == kStarTokenUnicode) {
      data_.push_back(kSuppressed);
    } else {
      data_.push_back(Encode(i, f));
    }
  }
  return static_cast<RowId>(num_rows_++);
}

ValueCode Relation::EncodeShared(size_t col, std::string_view value) {
  std::shared_ptr<Dictionary>& dictionary = dictionaries_[col];
  if (std::optional<ValueCode> code = dictionary->Find(value)) return *code;
  dictionary = std::make_shared<Dictionary>(*dictionary);
  return dictionary->GetOrInsert(value);
}

std::string Relation::ValueString(RowId row, size_t col) const {
  ValueCode code = At(row, col);
  if (code == kSuppressed) return std::string(kStarToken);
  return dictionaries_[col]->ValueOf(code);
}

Relation Relation::EmptyLike() const {
  Relation out(schema_);
  out.dictionaries_ = dictionaries_;  // share
  return out;
}

Relation Relation::SelectRows(std::span<const RowId> rows,
                              size_t spare_rows) const {
  Relation out = EmptyLike();
  out.data_.reserve((rows.size() + spare_rows) * stride_);
  out.data_.resize(rows.size() * stride_);
  ForEachCopyChunk(rows.size(), stride_, [&](size_t begin, size_t end) {
    // Runs of consecutive ids (a delta's survivors, a shard's row range)
    // copy as one block.
    for (size_t i = begin; i < end;) {
      size_t j = i + 1;
      while (j < end && rows[j] == size_t{rows[j - 1]} + 1) ++j;
      // Load-bearing bounds check: a stale RowId would read out of bounds
      // in release builds, so this must not compile away. The run
      // ascends, so its last id bounds all of it.
      DIVA_CHECK_MSG(static_cast<size_t>(rows[j - 1]) < num_rows_,
                     "SelectRows: row id out of range");
      std::copy_n(data_.data() + static_cast<size_t>(rows[i]) * stride_,
                  (j - i) * stride_, out.data_.data() + i * stride_);
      i = j;
    }
  });
  out.num_rows_ = rows.size();
  return out;
}

Result<Relation> RelationFromRows(
    std::shared_ptr<const Schema> schema,
    const std::vector<std::vector<std::string>>& rows) {
  Relation relation(std::move(schema));
  for (const auto& row : rows) {
    DIVA_RETURN_IF_ERROR(relation.AppendRowStrings(row));
  }
  return relation;
}

}  // namespace diva
