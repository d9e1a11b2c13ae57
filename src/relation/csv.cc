#include "relation/csv.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <string_view>
#include <vector>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace diva {

namespace {

using csv_internal::kBlockBytes;
using csv_internal::kChunkBytes;
using csv_internal::kWriteBatchChunks;
using csv_internal::kWriteChunkRows;

Status FieldCapError(size_t max_field_bytes) {
  return Status::InvalidArgument("CSV field exceeds max_field_bytes = " +
                                 std::to_string(max_field_bytes));
}

std::string LinePrefix(size_t line) {
  return "line " + std::to_string(line) + ": ";
}

bool IsStar(std::string_view field) {
  return field == kStarToken || field == kStarTokenUnicode;
}

/// The stream, read in blocks. Bytes no record has consumed yet sit in
/// [begin_, end_) of the buffer; Refill moves them to the front and reads
/// the next block behind them.
class BlockReader {
 public:
  explicit BlockReader(std::istream& input) : input_(input) {}

  std::string_view Unconsumed() const {
    return {buffer_.get() + begin_, end_ - begin_};
  }
  void Consume(size_t bytes) { begin_ += bytes; }
  /// True once the stream has no more bytes: Unconsumed() is all there is.
  bool eof() const { return eof_; }
  /// Bytes the stream holds past the last block, when it told its size
  /// (a file does, a pipe does not: 0).
  size_t StreamBytesLeft() const { return stream_left_.value_or(0); }

  void Refill() {
    if (capacity_ == 0) stream_left_ = StreamSize();
    const size_t tail = end_ - begin_;
    // A record longer than a block grows the read, so re-scanning its
    // prefix after each refill stays linear in the record's length. A
    // stream shorter than a block gets a buffer its own size (and one
    // byte to see its end): a small input never makes the allocator
    // hand out, and then take back, a whole block.
    size_t want = std::max(kBlockBytes, tail);
    if (stream_left_) want = std::min(want, *stream_left_ + 1);
    if (capacity_ < tail + want) {
      // Left uninitialized: only the bytes read are touched.
      auto grown = std::make_unique_for_overwrite<char[]>(tail + want);
      if (tail > 0) std::memcpy(grown.get(), buffer_.get() + begin_, tail);
      buffer_ = std::move(grown);
      capacity_ = tail + want;
    } else {
      std::memmove(buffer_.get(), buffer_.get() + begin_, tail);
    }
    input_.read(buffer_.get() + tail, static_cast<std::streamsize>(want));
    const size_t got = static_cast<size_t>(input_.gcount());
    eof_ = got < want;
    begin_ = 0;
    end_ = tail + got;
    if (stream_left_) {
      // A stream that outgrew its size stops being sized.
      if (got > *stream_left_) {
        stream_left_.reset();
      } else {
        *stream_left_ -= got;
      }
    }
  }

 private:
  /// The stream's remaining size, if it can tell. Seeks the buffer
  /// directly, so the stream's state never changes.
  std::optional<size_t> StreamSize() {
    std::streambuf* buffer = input_.rdbuf();
    const std::streampos here =
        buffer->pubseekoff(0, std::ios::cur, std::ios::in);
    if (here == std::streampos(-1)) return std::nullopt;
    const std::streampos end =
        buffer->pubseekoff(0, std::ios::end, std::ios::in);
    buffer->pubseekpos(here, std::ios::in);
    if (end == std::streampos(-1)) return std::nullopt;
    return end > here ? static_cast<size_t>(end - here) : 0;
  }

  std::istream& input_;
  std::unique_ptr<char[]> buffer_;
  size_t capacity_ = 0;
  size_t begin_ = 0;
  size_t end_ = 0;
  bool eof_ = false;
  std::optional<size_t> stream_left_;
};

enum class Scan { kRecord, kEnd, kNeedMore, kError };

/// One record's unescaped fields, back to back in one buffer.
struct Fields {
  std::string bytes;
  std::vector<size_t> ends;  // where each field ends in `bytes`

  size_t size() const { return ends.size(); }
  std::string_view operator[](size_t i) const {
    const size_t begin = i == 0 ? 0 : ends[i - 1];
    return std::string_view(bytes).substr(begin, ends[i] - begin);
  }
};

/// The record state machine: splits the record starting at text[*pos]
/// into `fields`, handling quoted fields that may contain delimiters,
/// newlines and "" escapes, and "\n", "\r\n" or a lone "\r" as the
/// terminator. kEnd: no record starts at *pos and the input is done.
/// kNeedMore: the record (or a one-byte lookahead) runs past the text
/// and `eof` is false. Malformed input — an embedded NUL byte (CSV is a
/// text format; a NUL means binary garbage that would silently truncate
/// C-string handling downstream), a field longer than `max_field_bytes`
/// or an unterminated quote — sets *error and returns kError. *pos
/// advances past the terminator only on kRecord.
Scan ScanRecord(std::string_view text, bool eof, char delimiter,
                size_t max_field_bytes, size_t* pos, Fields* fields,
                Status* error) {
  std::string& bytes = fields->bytes;
  bytes.clear();
  fields->ends.clear();
  const size_t n = text.size();
  size_t p = *pos;
  if (p == n) return eof ? Scan::kEnd : Scan::kNeedMore;

  size_t field_begin = 0;  // the current field is bytes[field_begin, end)
  bool in_quotes = false;
  // Appends the run of plain bytes starting at text[p - 1] (everything up
  // to the next byte `special` flags) in one go: the byte-at-a-time
  // machine would have rejected the field at its (max_field_bytes + 1)-th
  // byte, and no NUL can sit inside the run.
  auto append_run = [&](auto special) {
    size_t end = p;
    while (end < n && !special(text[end])) ++end;
    const size_t run = end - (p - 1);
    if (max_field_bytes > 0 &&
        bytes.size() - field_begin + run > max_field_bytes) {
      *error = FieldCapError(max_field_bytes);
      return false;
    }
    bytes.append(text.data() + p - 1, run);
    p = end;
    return true;
  };
  auto quoted_special = [](char c) { return c == '"' || c == '\0'; };
  auto plain_special = [delimiter](char c) {
    return c == delimiter || c == '"' || c == '\r' || c == '\n' ||
           c == '\0';
  };
  while (true) {
    if (p == n) {
      if (!eof) return Scan::kNeedMore;
      if (in_quotes) {
        *error = Status::InvalidArgument("unterminated quoted CSV field");
        return Scan::kError;
      }
      break;
    }
    const char c = text[p++];
    if (c == '\0') {
      *error = Status::InvalidArgument(
          "CSV input contains an embedded NUL byte (binary data?)");
      return Scan::kError;
    }
    if (in_quotes) {
      if (c != '"') {
        if (!append_run(quoted_special)) return Scan::kError;
        continue;
      }
      // A quote that ends the text closes the field here, and the check
      // at the top of the loop then asks for more: the record restarts.
      if (p < n && text[p] == '"') {
        ++p;
        if (max_field_bytes > 0 &&
            bytes.size() - field_begin >= max_field_bytes) {
          *error = FieldCapError(max_field_bytes);
          return Scan::kError;
        }
        bytes.push_back('"');
      } else {
        in_quotes = false;
      }
    } else if (c == '"' && bytes.size() == field_begin) {
      in_quotes = true;
    } else if (c == delimiter) {
      fields->ends.push_back(bytes.size());
      field_begin = bytes.size();
    } else if (c == '\r') {
      if (p == n && !eof) return Scan::kNeedMore;
      if (p < n && text[p] == '\n') ++p;
      break;
    } else if (c == '\n') {
      break;
    } else if (!append_run(plain_special)) {
      return Scan::kError;
    }
  }
  fields->ends.push_back(bytes.size());
  *pos = p;
  return Scan::kRecord;
}

/// True if the fast chunk scanner may split `region`: no quote, no NUL,
/// and every "\r" is the first half of a "\r\n".
bool IsQuoteFree(std::string_view region) {
  const char* begin = region.data();
  const char* end = begin + region.size();
  if (std::memchr(begin, '"', region.size()) != nullptr) return false;
  if (std::memchr(begin, '\0', region.size()) != nullptr) return false;
  for (const char* p = begin;; ++p) {
    p = static_cast<const char*>(std::memchr(p, '\r', end - p));
    if (p == nullptr) return true;
    if (p + 1 == end || p[1] != '\n') return false;
  }
}

/// One column's values in the order a chunk first saw them: an
/// open-addressing table of views, so a repeated value costs one hash
/// and one compare and allocates nothing.
class LocalDictionary {
 public:
  void Clear() {
    values_.clear();
    std::fill(slots_.begin(), slots_.end(), -1);
  }

  /// The local code of `value`. A new value is kept as a view of its
  /// bytes, which must outlive the chunk's merge, or as a view of a copy
  /// pushed onto `owned` when that is given.
  ValueCode Intern(std::string_view value,
                   std::deque<std::string>* owned = nullptr) {
    if (2 * (values_.size() + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(value) & mask;; i = (i + 1) & mask) {
      const ValueCode slot = slots_[i];
      if (slot < 0) {
        if (owned != nullptr) value = owned->emplace_back(value);
        slots_[i] = static_cast<ValueCode>(values_.size());
        values_.push_back(value);
        return slots_[i];
      }
      if (values_[static_cast<size_t>(slot)] == value) return slot;
    }
  }

  const std::vector<std::string_view>& values() const { return values_; }

 private:
  static size_t Hash(std::string_view value) {
    return std::hash<std::string_view>{}(value);
  }

  void Grow() {
    slots_.assign(std::max<size_t>(64, 2 * slots_.size()), -1);
    const size_t mask = slots_.size() - 1;
    for (size_t code = 0; code < values_.size(); ++code) {
      size_t i = Hash(values_[code]) & mask;
      while (slots_[i] >= 0) i = (i + 1) & mask;
      slots_[i] = static_cast<ValueCode>(code);
    }
  }

  std::vector<std::string_view> values_;
  std::vector<ValueCode> slots_;  // -1 = empty, else a local code
};

/// A run of consecutive records parsed on its own: local codes per cell
/// and per-column first-appearance tables, merged into the relation in
/// chunk order. Parsing stops at the chunk's first bad record. Chunks
/// parse on different threads, so each starts on its own cache line.
struct alignas(64) Chunk {
  enum class Fault { kNone, kParse, kArity };

  void Reset(size_t columns) {
    codes.clear();
    dictionaries.resize(columns);
    for (LocalDictionary& dictionary : dictionaries) dictionary.Clear();
    owned.clear();
    records = 0;
    fault = Fault::kNone;
  }

  /// Interns one cell. `owned` is given for a value that does not live
  /// in the block (an unescaped quoted field): a new one is copied.
  void Append(size_t column, std::string_view value,
              std::deque<std::string>* owned = nullptr) {
    codes.push_back(IsStar(value) ? kSuppressed
                                  : dictionaries[column].Intern(value, owned));
  }

  std::vector<ValueCode> codes;  // row-major; the good records first
  std::vector<LocalDictionary> dictionaries;
  std::deque<std::string> owned;
  size_t records = 0;  // good records, in order
  // The record right after the good ones, when parsing stopped on it.
  Fault fault = Fault::kNone;
  Status parse_error;
  size_t arity_fields = 0;
};

/// Splits the quote-free records of `text` (see IsQuoteFree; each ends
/// in "\n" or "\r\n", except a last one at the end of the input) into
/// `chunk`, with memchr on the newline and the delimiter.
void ParseQuoteFree(std::string_view text, size_t columns, char delimiter,
                    size_t max_field_bytes, Chunk* chunk) {
  const char* const data = text.data();
  const size_t size = text.size();
  // Offsets into `data`, where memchr's null result means "to the end".
  auto find = [data](size_t from, size_t to, char byte) {
    const void* hit = std::memchr(data + from, byte, to - from);
    return hit != nullptr
               ? static_cast<size_t>(static_cast<const char*>(hit) - data)
               : to;
  };
  for (size_t pos = 0; pos != size;) {
    const size_t newline = find(pos, size, '\n');
    size_t record_end = newline;
    if (newline != size && newline != pos && data[newline - 1] == '\r') {
      --record_end;
    }
    size_t fields = 0;
    for (size_t field = pos;;) {
      const size_t field_end = find(field, record_end, delimiter);
      const size_t bytes = field_end - field;
      if (max_field_bytes > 0 && bytes > max_field_bytes) {
        chunk->fault = Chunk::Fault::kParse;
        chunk->parse_error = FieldCapError(max_field_bytes);
        return;
      }
      if (fields < columns) chunk->Append(fields, {data + field, bytes});
      ++fields;
      if (field_end == record_end) break;
      field = field_end + 1;
    }
    if (fields != columns) {
      chunk->fault = Chunk::Fault::kArity;
      chunk->arity_fields = fields;
      return;
    }
    ++chunk->records;
    pos = newline == size ? size : newline + 1;
  }
}

/// Parses a CSV stream into a relation, block by block.
class CsvReader {
 public:
  CsvReader(std::istream& input, std::shared_ptr<const Schema> schema,
            const CsvOptions& options)
      : blocks_(input),
        options_(options),
        columns_(schema->NumAttributes()),
        relation_(std::move(schema)),
        remap_(columns_) {}

  Result<Relation> Read() {
    if (options_.has_header) DIVA_RETURN_IF_ERROR(ReadHeader());
    while (true) {
      const std::string_view text = blocks_.Unconsumed();
      // Whole records only: up to the last newline, or to the end of
      // the input.
      size_t cut = text.size();
      if (!blocks_.eof()) {
        const size_t last = text.rfind('\n');
        cut = last == std::string_view::npos ? 0 : last + 1;
      }
      size_t consumed = 0;
      if (cut > 0 && IsQuoteFree(text.substr(0, cut))) {
        DIVA_RETURN_IF_ERROR(ReadQuoteFree(text.substr(0, cut)));
        consumed = cut;
      } else {
        DIVA_RETURN_IF_ERROR(ReadQuoted(text, &consumed));
      }
      blocks_.Consume(consumed);
      if (blocks_.eof()) return std::move(relation_);
      if (!reserved_ && relation_.NumRows() > 0 && consumed > 0) {
        // Size the relation once, extrapolating the rows per byte seen
        // so far, so the appends do not regrow (and recopy) it.
        reserved_ = true;
        const size_t left =
            blocks_.StreamBytesLeft() + (text.size() - consumed);
        const size_t rows = relation_.NumRows();
        relation_.ReserveRows(rows + (left / 8 + left) * rows / consumed);
      }
      blocks_.Refill();
    }
  }

 private:
  Status ReadHeader() {
    Fields fields;
    Status error;
    size_t pos = 0;
    Scan scan = Scan::kNeedMore;
    while (scan == Scan::kNeedMore) {
      blocks_.Refill();
      pos = 0;
      scan = ScanRecord(blocks_.Unconsumed(), blocks_.eof(),
                        options_.delimiter, options_.max_field_bytes, &pos,
                        &fields, &error);
    }
    if (scan == Scan::kError) return error;
    if (scan == Scan::kEnd) {
      return Status::InvalidArgument("CSV input is empty (expected header)");
    }
    blocks_.Consume(pos);
    ++line_;
    const Schema& schema = relation_.schema();
    if (fields.size() != schema.NumAttributes()) {
      return Status::InvalidArgument(
          "CSV header has " + std::to_string(fields.size()) +
          " columns, schema has " + std::to_string(schema.NumAttributes()));
    }
    for (size_t i = 0; i < fields.size(); ++i) {
      if (fields[i] != schema.attribute(i).name) {
        return Status::InvalidArgument(
            "CSV header column " + std::to_string(i) + " is '" +
            std::string(fields[i]) + "', schema expects '" +
            schema.attribute(i).name + "'");
      }
    }
    return Status::OK();
  }

  /// Cuts `region` (whole quote-free records) at newlines into chunks,
  /// parses them in parallel and merges them in order.
  Status ReadQuoteFree(std::string_view region) {
    std::vector<std::string_view> pieces;
    for (size_t begin = 0; begin < region.size();) {
      size_t end = region.size();
      if (region.size() - begin > kChunkBytes) {
        const size_t newline = region.find('\n', begin + kChunkBytes - 1);
        if (newline != std::string_view::npos) end = newline + 1;
      }
      pieces.push_back(region.substr(begin, end - begin));
      begin = end;
    }
    if (chunks_.size() < pieces.size()) chunks_.resize(pieces.size());
    ParallelFor(pieces.size(), 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        chunks_[i].Reset(columns_);
        ParseQuoteFree(pieces[i], columns_, options_.delimiter,
                       options_.max_field_bytes, &chunks_[i]);
      }
    });
    for (size_t i = 0; i < pieces.size(); ++i) {
      DIVA_RETURN_IF_ERROR(Merge(&chunks_[i]));
    }
    return Status::OK();
  }

  /// Runs the record state machine over `text` as one chunk, up to the
  /// first record that is cut off by the end of the block; *consumed is
  /// where that record starts.
  Status ReadQuoted(std::string_view text, size_t* consumed) {
    if (chunks_.empty()) chunks_.resize(1);
    Chunk& chunk = chunks_[0];
    chunk.Reset(columns_);
    Fields fields;
    size_t pos = 0;
    while (true) {
      const Scan scan =
          ScanRecord(text, blocks_.eof(), options_.delimiter,
                     options_.max_field_bytes, &pos, &fields,
                     &chunk.parse_error);
      if (scan == Scan::kError) {
        chunk.fault = Chunk::Fault::kParse;
        break;
      }
      if (scan != Scan::kRecord) break;
      if (fields.size() != columns_) {
        chunk.fault = Chunk::Fault::kArity;
        chunk.arity_fields = fields.size();
        break;
      }
      for (size_t col = 0; col < columns_; ++col) {
        chunk.Append(col, fields[col], &chunk.owned);
      }
      ++chunk.records;
    }
    *consumed = pos;
    return Merge(&chunk);
  }

  /// Counts the next `records` records and fires their failpoints, one
  /// record after another in file order.
  Status NextRecords(size_t records) {
    if (!failpoint::Active()) {
      line_ += records;
      return Status::OK();
    }
    for (size_t r = 0; r < records; ++r) {
      ++line_;
      DIVA_RETURN_IF_ERROR(DIVA_FAIL("csv.read.record"));
      // Row ingestion fires once per record, as in
      // Relation::AppendRowStrings.
      Status appended = DIVA_FAIL("relation.append_row");
      if (!appended.ok()) {
        return Status::InvalidArgument(LinePrefix(line_) +
                                       appended.message());
      }
    }
    return Status::OK();
  }

  /// Appends `chunk`'s good records, interning its new values in the
  /// order the chunk first saw them, then reports its bad record.
  Status Merge(Chunk* chunk) {
    DIVA_RETURN_IF_ERROR(NextRecords(chunk->records));
    if (chunk->records > 0) {
      for (size_t col = 0; col < columns_; ++col) {
        const std::vector<std::string_view>& values =
            chunk->dictionaries[col].values();
        remap_[col].resize(values.size());
        for (size_t code = 0; code < values.size(); ++code) {
          remap_[col][code] = relation_.Encode(col, values[code]);
        }
      }
      ValueCode* cell = chunk->codes.data();
      for (size_t r = 0; r < chunk->records; ++r) {
        for (size_t col = 0; col < columns_; ++col, ++cell) {
          if (*cell != kSuppressed) {
            *cell = remap_[col][static_cast<size_t>(*cell)];
          }
        }
      }
      relation_.AppendRows({chunk->codes.data(), chunk->records * columns_});
    }
    switch (chunk->fault) {
      case Chunk::Fault::kNone:
        return Status::OK();
      case Chunk::Fault::kArity:
        DIVA_RETURN_IF_ERROR(NextRecords(1));
        return Status::InvalidArgument(
            LinePrefix(line_) + "row has " +
            std::to_string(chunk->arity_fields) + " fields, schema has " +
            std::to_string(columns_));
      case Chunk::Fault::kParse:
        return Status(chunk->parse_error.code(),
                      LinePrefix(line_ + 1) + chunk->parse_error.message());
    }
    return Status::OK();
  }

  BlockReader blocks_;
  const CsvOptions& options_;
  const size_t columns_;
  Relation relation_;
  size_t line_ = 0;  // records consumed so far, the header included
  bool reserved_ = false;
  std::vector<Chunk> chunks_;
  std::vector<std::vector<ValueCode>> remap_;  // per column: local → code
};

bool NeedsQuoting(std::string_view field, char delimiter) {
  for (char c : field) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendField(std::string* out, std::string_view field, bool quote) {
  if (!quote) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

Result<Relation> ReadCsv(std::istream& input,
                         std::shared_ptr<const Schema> schema,
                         const CsvOptions& options) {
  DIVA_TRACE_SPAN("csv/read");
  CsvReader reader(input, std::move(schema), options);
  return reader.Read();
}

Result<Relation> ReadCsvFile(const std::string& path,
                             std::shared_ptr<const Schema> schema,
                             const CsvOptions& options) {
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("csv.open.read"));
  std::ifstream input(path);
  if (!input) {
    return Status::IoError("cannot open for reading: " + path);
  }
  return ReadCsv(input, std::move(schema), options);
}

Status WriteCsv(const Relation& relation, std::ostream& output,
                const CsvOptions& options) {
  DIVA_TRACE_SPAN("csv/write");
  const char delimiter = options.delimiter;
  const size_t columns = relation.NumAttributes();
  if (options.has_header) {
    std::string header;
    for (size_t i = 0; i < columns; ++i) {
      if (i > 0) header.push_back(delimiter);
      const std::string& name = relation.schema().attribute(i).name;
      AppendField(&header, name, NeedsQuoting(name, delimiter));
    }
    header.push_back('\n');
    output.write(header.data(), static_cast<std::streamsize>(header.size()));
  }

  // Which dictionary values need quoting, one byte per value, worked out
  // once per write instead of once per cell.
  std::vector<const Dictionary*> dictionaries(columns);
  std::vector<std::vector<uint8_t>> quote(columns);
  for (size_t col = 0; col < columns; ++col) {
    const Dictionary& dictionary = relation.dictionary(col);
    dictionaries[col] = &dictionary;
    quote[col].resize(dictionary.size());
    for (size_t code = 0; code < dictionary.size(); ++code) {
      quote[col][code] = NeedsQuoting(
          dictionary.ValueOf(static_cast<ValueCode>(code)), delimiter);
    }
  }

  // Chunks render on different threads, so each buffer starts on its own
  // cache line.
  struct alignas(64) Buffer {
    std::string bytes;
  };
  std::vector<Buffer> buffers(kWriteBatchChunks);
  const size_t rows = relation.NumRows();
  const size_t batch_rows = kWriteBatchChunks * kWriteChunkRows;
  for (size_t batch = 0; batch < rows; batch += batch_rows) {
    // The failpoint fires in row order before any row of the batch is
    // rendered; a firing cuts the batch so exactly the rows before it
    // are written.
    size_t limit = std::min(rows, batch + batch_rows);
    Status fired;
    for (size_t row = batch; row < limit && failpoint::Active(); ++row) {
      fired = DIVA_FAIL("csv.write.row");
      if (!fired.ok()) {
        limit = row;
        break;
      }
    }
    const size_t chunks =
        (limit - batch + kWriteChunkRows - 1) / kWriteChunkRows;
    ParallelFor(chunks, 1, [&](size_t begin, size_t end) {
      for (size_t c = begin; c < end; ++c) {
        std::string& out = buffers[c].bytes;
        out.clear();
        const size_t first = batch + c * kWriteChunkRows;
        const size_t last = std::min(limit, first + kWriteChunkRows);
        for (size_t row = first; row < last; ++row) {
          for (size_t col = 0; col < columns; ++col) {
            if (col > 0) out.push_back(delimiter);
            const ValueCode code = relation.At(static_cast<RowId>(row), col);
            if (code == kSuppressed) {
              out.append(kStarToken);
            } else {
              AppendField(&out, dictionaries[col]->ValueOf(code),
                          quote[col][static_cast<size_t>(code)] != 0);
            }
          }
          out.push_back('\n');
        }
      }
    });
    for (size_t c = 0; c < chunks; ++c) {
      output.write(buffers[c].bytes.data(),
                   static_cast<std::streamsize>(buffers[c].bytes.size()));
    }
    if (!fired.ok()) return fired;
  }
  if (!output) return Status::IoError("CSV write failed");
  return Status::OK();
}

Status WriteCsvFile(const Relation& relation, const std::string& path,
                    const CsvOptions& options) {
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("csv.open.write"));
  std::ofstream output(path, std::ios::trunc);
  if (!output) {
    return Status::IoError("cannot open for writing: " + path);
  }
  return WriteCsv(relation, output, options);
}

}  // namespace diva
