#include "relation/relation.h"

#include "common/failpoint.h"
#include "common/logging.h"

namespace diva {

Relation::Relation(std::shared_ptr<const Schema> schema)
    : schema_(std::move(schema)), stride_(schema_->NumAttributes()) {
  DIVA_CHECK_MSG(schema_ != nullptr, "Relation requires a schema");
  dictionaries_.reserve(stride_);
  for (size_t i = 0; i < stride_; ++i) {
    dictionaries_.push_back(std::make_shared<Dictionary>());
  }
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
  // Runs of consecutive ids (a delta's survivors, a shard's row range)
  // copy as one block.
  for (size_t i = 0; i < rows.size();) {
    size_t j = i + 1;
    while (j < rows.size() && rows[j] == size_t{rows[j - 1]} + 1) ++j;
    // Load-bearing bounds check: a stale RowId would read out of bounds
    // in release builds, so this must not compile away. The run ascends,
    // so its last id bounds all of it.
    DIVA_CHECK_MSG(static_cast<size_t>(rows[j - 1]) < num_rows_,
                   "SelectRows: row id out of range");
    const auto first =
        data_.begin() + static_cast<ptrdiff_t>(rows[i] * stride_);
    out.data_.insert(out.data_.end(), first,
                     first + static_cast<ptrdiff_t>((j - i) * stride_));
    i = j;
  }
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
