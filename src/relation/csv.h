#ifndef DIVA_RELATION_CSV_H_
#define DIVA_RELATION_CSV_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "common/result.h"
#include "relation/relation.h"

namespace diva {

/// Options shared by the CSV reader and writer.
struct CsvOptions {
  char delimiter = ',';
  /// Reader: first line holds attribute names which must match `schema`
  /// (in order). Writer: emit a header line.
  bool has_header = true;
  /// Reader: a single field longer than this many bytes (after quote
  /// unescaping) is rejected with InvalidArgument instead of growing
  /// without bound — malformed input (an unterminated quote swallowing
  /// the rest of the file, a binary blob) must not take the process down
  /// with it. The bound is inclusive: a field of exactly this many bytes
  /// is accepted wherever it sits. 0 disables the cap.
  size_t max_field_bytes = 1 << 20;
};

namespace csv_internal {

/// The reader pulls its stream in blocks of this many bytes (more only
/// when one record outgrows a block); it never holds the whole input.
inline constexpr size_t kBlockBytes = 1 << 20;
/// A block without quotes is cut at newlines into chunks of about this
/// many bytes, which parse in parallel on the global pool.
inline constexpr size_t kChunkBytes = 1 << 16;
/// The writer renders this many rows per chunk buffer, and fills this
/// many chunk buffers in parallel before writing them in row order.
inline constexpr size_t kWriteChunkRows = 4096;
inline constexpr size_t kWriteBatchChunks = 16;

}  // namespace csv_internal

/// Parses CSV text into a relation over `schema`. Supports RFC-4180
/// quoting ("" escapes a quote inside a quoted field) and both "*" and
/// "★" as suppressed-cell markers. Every record must have exactly
/// schema->NumAttributes() fields. Each dictionary interns its values in
/// first-appearance order at every thread width, so the codes (and
/// everything ordered by them) do not depend on the pool. The first bad
/// record in file order names its line in the error; the
/// `csv.read.record` failpoint fires once per record, in record order.
[[nodiscard]] Result<Relation> ReadCsv(std::istream& input,
                         std::shared_ptr<const Schema> schema,
                         const CsvOptions& options = {});

/// Reads a CSV file from `path`.
[[nodiscard]] Result<Relation> ReadCsvFile(const std::string& path,
                             std::shared_ptr<const Schema> schema,
                             const CsvOptions& options = {});

/// Writes `relation` as CSV (suppressed cells as "*"). Fields containing
/// the delimiter, quotes, or newlines are quoted. The bytes do not depend
/// on the thread width; `csv.write.row` fires once per row, in row order,
/// and a firing leaves exactly the rows before it written.
[[nodiscard]] Status WriteCsv(const Relation& relation, std::ostream& output,
                const CsvOptions& options = {});

/// Writes to a file at `path`, replacing any existing content.
[[nodiscard]] Status WriteCsvFile(const Relation& relation, const std::string& path,
                    const CsvOptions& options = {});

}  // namespace diva

#endif  // DIVA_RELATION_CSV_H_
