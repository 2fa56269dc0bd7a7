#ifndef GORDIAN_TABLE_CSV_H_
#define GORDIAN_TABLE_CSV_H_

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/column_chunk.h"
#include "table/table.h"

namespace gordian {

class ThreadPool;

struct CsvOptions {
  char delimiter = ',';
  // When true the first record provides column names; otherwise columns are
  // named c0, c1, ...
  bool has_header = true;
  // When true, fields that parse as integers/doubles become typed values;
  // empty fields become NULL. When false every field is a string.
  bool infer_types = true;
  // When > 1, field inference and dictionary encoding run column-at-a-time
  // on a thread pool of this many workers. 0/1 = serial. The result is
  // identical either way (per-column work is independent).
  int encode_threads = 0;
};

// Streaming, quote-aware CSV scanner that emits RowBatches.
//
// Unlike line-oriented readers, the scanner carries RFC-4180 quote state
// across line and batch boundaries, so quoted fields containing embedded
// newlines parse correctly. Each batch is produced in two passes: the
// scanner splits records into per-column raw field spans over a shared
// character arena (each span NUL-terminated so numeric inference runs in
// place), then each column is type-inferred and appended to its
// ColumnChunk — independently per column, hence parallelizable.
//
// Both passes do per-byte and per-field work only where the input needs
// it. A record whose line is already in the read buffer and holds no quote
// and no CR is split whole; every other record goes through the quote-aware
// state machine. A field that is an optional '-' and 1-18 digits becomes an
// int64 directly; every other field takes strtoll, then strtod. A field of
// more than ColumnChunk::kMaxStringBytes bytes is InvalidArgument naming
// its line.
class CsvBatchReader {
 public:
  // `in` must outlive the reader.
  CsvBatchReader(std::istream& in, const CsvOptions& options);

  // Consumes the header (or, without a header, stages the first record) to
  // establish the column count. Init returning OK with num_columns() == 0
  // means the input had no records at all; more than
  // AttributeSet::kMaxAttributes columns is InvalidArgument.
  Status Init();

  int num_columns() const { return static_cast<int>(names_.size()); }
  const std::vector<std::string>& column_names() const { return names_; }

  // Scans up to RowBatch::kDefaultRows records into `batch` (reshaped to
  // num_columns()). batch.num_rows() == 0 signals end of input. With a
  // pool, per-column inference runs concurrently.
  Status NextBatch(RowBatch* batch, ThreadPool* pool = nullptr);

  // Total data records emitted so far (header excluded).
  int64_t rows_read() const { return rows_read_; }

 private:
  enum class Scan { kRecord, kEof };

  static constexpr size_t kReadBufferBytes = 1 << 16;

  // Scans one non-blank record into rec_fields_ (spans over arena_).
  Status ScanRecord(Scan* result);
  // ScanRecord's whole-record path: when the next line is already buffered
  // and holds no quote and no CR, copies it into the arena in one piece
  // with each delimiter overwritten by the NUL sentinel, and returns true.
  // Otherwise consumes nothing and returns false.
  bool ScanPlainLine();
  void ParseColumnInto(int col, ColumnChunk* chunk) const;

  int NextChar() {
    if (pos_ < len_) return static_cast<unsigned char>(buf_[pos_++]);
    return Refill() ? static_cast<unsigned char>(buf_[pos_++]) : -1;
  }
  int PeekChar() {
    if (pos_ < len_) return static_cast<unsigned char>(buf_[pos_]);
    return Refill() ? static_cast<unsigned char>(buf_[pos_]) : -1;
  }
  bool Refill();

  std::istream& in_;
  CsvOptions options_;
  std::vector<std::string> names_;

  // Buffered input.
  std::vector<char> buf_;
  size_t pos_ = 0;
  size_t len_ = 0;

  int64_t line_ = 1;         // 1-based physical line being scanned
  int64_t record_line_ = 1;  // physical line the current record started on
  int64_t rows_read_ = 0;

  // Per-batch staging: field payload bytes (NUL-terminated) and, per
  // column, the (offset, length) spans of that column's fields.
  std::vector<char> arena_;
  std::vector<std::pair<uint64_t, uint32_t>> rec_fields_;
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> col_spans_;
  int64_t staged_rows_ = 0;  // rows already in staging (headerless first record)
};

// Reads a CSV file into a Table via CsvBatchReader + TableBuilder::AddBatch.
// Supports RFC-4180 quoting ("..." fields with "" escapes, embedded
// newlines). All records must have the same number of fields.
Status ReadCsv(const std::string& path, const CsvOptions& options, Table* out);

// Same, with a spill policy: encoded columns over the memory budget stream
// to GRDL files in spill.spill_dir as batches arrive, and the scanner's
// batch arena is released promptly after each encode, so peak ingest
// memory stays near budget + dictionaries + one batch. The resulting
// table's contents are identical to the unspilled overload's.
Status ReadCsv(const std::string& path, const CsvOptions& options,
               const SpillPolicy& spill, Table* out);

// Writes a table as CSV (header row + one record per entity), quoting fields
// that contain the delimiter, quotes, or newlines. NULLs are written as
// empty fields.
Status WriteCsv(const Table& table, const CsvOptions& options,
                const std::string& path);

}  // namespace gordian

#endif  // GORDIAN_TABLE_CSV_H_
