#ifndef GORDIAN_TABLE_TABLE_H_
#define GORDIAN_TABLE_TABLE_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/attribute_set.h"
#include "common/status.h"
#include "table/code_column.h"
#include "table/column_chunk.h"
#include "table/dictionary.h"
#include "table/schema.h"
#include "table/value.h"

namespace gordian {

class ThreadPool;

// An immutable, dictionary-encoded column collection — the "collection of
// entities" that GORDIAN profiles. Each column stores one uint32 code per
// row behind a CodeColumn, which is either heap-resident or an mmap of a
// spilled GRDL file; the per-column Dictionary maps codes back to Values.
// Row addressing works identically either way (both representations are
// one contiguous code array), so profiling code never branches on where a
// column lives.
//
// Row samples of a Table share the parent's dictionaries (codes keep their
// meaning), so a sample-discovered key can be re-validated against the full
// table cheaply.
class Table {
 public:
  Table() = default;

  const Schema& schema() const { return schema_; }
  int num_columns() const { return schema_.num_columns(); }
  int64_t num_rows() const { return num_rows_; }

  uint32_t code(int64_t row, int col) const { return columns_[col].codes[row]; }
  const Value& value(int64_t row, int col) const {
    return columns_[col].dict->Decode(code(row, col));
  }
  const CodeColumn& column_codes(int col) const {
    return columns_[col].codes;
  }
  const Dictionary& dictionary(int col) const { return *columns_[col].dict; }

  // Number of columns currently backed by spilled GRDL files.
  int spilled_column_count() const;

  // Number of distinct values of `col` among this table's rows. For a table
  // built directly by TableBuilder this equals dictionary(col).size(); for a
  // sample it is typically smaller. O(rows) on first call per column; cached.
  int64_t ColumnCardinality(int col) const;

  // Exact number of distinct rows of the projection onto `attrs`
  // (sort-based; no hashing, no collisions). Empty `attrs` yields
  // min(1, num_rows).
  int64_t DistinctCount(const AttributeSet& attrs) const;

  // Same count via 128-bit row fingerprints: O(rows) instead of
  // O(rows log rows), with an astronomically small (2^-64-ish) collision
  // risk. Used by strength validation over many keys; tests cross-check it
  // against DistinctCount.
  int64_t DistinctCountFast(const AttributeSet& attrs) const;

  // True iff no two rows agree on every attribute in `attrs`, i.e., `attrs`
  // is a (composite) key of this table. Equivalent to
  // DistinctCount(attrs) == num_rows but exits early on the first duplicate.
  bool IsUnique(const AttributeSet& attrs) const;

  // Strength of `attrs` as defined in Section 3.9 of the paper:
  // DistinctCount(attrs) / num_rows. 1.0 for true keys. Returns 1.0 for an
  // empty table.
  double Strength(const AttributeSet& attrs) const;

  // A new table containing `count` rows drawn uniformly without replacement
  // (deterministic in `seed`), sharing this table's dictionaries. `count` is
  // clamped to num_rows. Row order is preserved.
  Table SampleRows(int64_t count, uint64_t seed) const;

  // A new table with only the first `count` columns (shared dictionaries).
  // Used by the attribute-count sweeps (paper Figures 12 and 13).
  Table ProjectColumns(int num_cols) const;

  // A new table restricted to the given column positions, in the given
  // order (shared dictionaries).
  Table SelectColumns(const std::vector<int>& cols) const;

  // Approximate heap-resident footprint: resident code vectors +
  // dictionaries + the cardinality cache. Storage shared between columns
  // or tables (dictionaries, code vectors after SelectColumns/ProjectColumns)
  // is counted once per distinct object. Mmap-backed bytes of spilled
  // columns are deliberately excluded — the OS pages them in and out on
  // demand, so they don't compete for the same budget; MappedBytes()
  // reports them separately.
  int64_t ApproxBytes() const;

  // Bytes of spilled-column file mappings, counted once per distinct
  // mapping even when column views share it.
  int64_t MappedBytes() const;

  // Assembles a table directly from per-column dictionaries and code
  // vectors (all code vectors must have equal length; codes need not be
  // dense in their dictionary's code space — samples already have that
  // property). Used by consumers that maintain encoded rows themselves,
  // e.g. the streaming reservoir.
  static Table FromColumns(Schema schema,
                           std::vector<std::shared_ptr<Dictionary>> dicts,
                           std::vector<std::vector<uint32_t>> codes);

  // Same, from ready-made CodeColumns (resident or spilled). The artifact
  // store uses this to reattach persisted GRDL columns to their reloaded
  // dictionaries.
  static Table FromCodeColumns(Schema schema,
                               std::vector<std::shared_ptr<Dictionary>> dicts,
                               std::vector<CodeColumn> columns);

  // Renders row `row` as "v0|v1|...".
  std::string RowToString(int64_t row) const;

 private:
  friend class TableBuilder;

  struct ColumnData {
    std::shared_ptr<Dictionary> dict;
    CodeColumn codes;
  };

  Schema schema_;
  std::vector<ColumnData> columns_;
  int64_t num_rows_ = 0;
  mutable std::vector<int64_t> cardinality_cache_;
};

// Construction of a Table. The primary path is batch-wise: producers fill
// a RowBatch and AddBatch dictionary-encodes it column-at-a-time
// (optionally one ThreadPool task per column). AddRow survives as a thin
// row-at-a-time adapter; both paths assign identical dictionary codes
// because each column sees its values in the same first-seen order.
//
// With an enabled SpillPolicy, the builder watches its resident code bytes
// after every batch and, when over budget, converts the largest resident
// columns to streaming GRDL writers — subsequent batches append a chunk at
// a time and only a sub-chunk tail stays in memory per spilled column.
// Spilling never changes the table's contents: a spill-I/O failure falls
// back to a resident column with every code intact (recorded in
// spill_status()); only an unrecoverable loss poisons the builder, which
// the Status-returning Build overload reports.
class TableBuilder {
 public:
  explicit TableBuilder(Schema schema, SpillPolicy policy = SpillPolicy());

  // Appends one entity; `row` must have schema().num_columns() values.
  void AddRow(const std::vector<Value>& row);

  // Appends every row of `batch` (batch.num_columns() must match the
  // schema). With a pool, columns are encoded concurrently — per-column
  // dictionaries are independent, so the result is deterministic and
  // identical to the serial path.
  void AddBatch(const RowBatch& batch, ThreadPool* pool = nullptr);

  int64_t num_rows() const { return num_rows_; }

  const Schema& schema() const { return table_.schema(); }

  // Approximate heap footprint of the under-construction resident code
  // vectors and dictionaries (spilled bytes excluded, like
  // Table::ApproxBytes).
  int64_t ApproxBytes() const;

  // First spill problem encountered, if any. ok() when spilling is off or
  // healthy; an error here with a successful Build means the builder
  // degraded to resident columns without data loss.
  const Status& spill_status() const { return spill_status_; }

  // Columns currently being streamed to GRDL writers.
  int spilling_column_count() const;

  // Finalizes into *out. Fails when the schema is wider than
  // AttributeSet::kMaxAttributes (InvalidArgument) or when spilled data
  // could not be recovered (never for a clean degrade to resident). The
  // builder is left empty.
  Status Build(Table* out);

  // Legacy infallible form; asserts that no unrecoverable spill loss
  // occurred (always true when spilling is disabled).
  Table Build();

 private:
  struct BuildColumn {
    // Resident codes for an unspilled column; per-batch scratch (cleared
    // after each writer append) once spilling.
    std::vector<uint32_t> codes;
    std::unique_ptr<SpillColumnWriter> writer;
    // Spill problem found while encoding this column (possibly on a pool
    // thread); merged into spill_status_ after the batch latch.
    Status pending_status;
    bool lost_data = false;
  };

  void EncodeColumnBatch(const RowBatch& batch, int c);
  void MaybeSpill();
  void MergeColumnStatuses();
  uint32_t NullCode(int c) const;

  Table table_;
  std::vector<BuildColumn> cols_;
  SpillPolicy policy_;
  std::string spill_prefix_;
  Status spill_status_;
  bool poisoned_ = false;
  int64_t num_rows_ = 0;
};

// Row-shaped convenience over the batch path: callers append whole rows of
// raw typed values (integers, doubles, strings, or Values — one argument
// per column) and the writer flushes full RowBatches into the builder
// automatically. Generators use this to fill batches directly without
// materializing std::vector<Value> rows. Remaining rows flush on
// destruction (or an explicit Flush()).
class BatchWriter {
 public:
  explicit BatchWriter(TableBuilder* builder, ThreadPool* pool = nullptr)
      : builder_(builder),
        pool_(pool),
        batch_(builder->schema().num_columns()) {}

  ~BatchWriter() { Flush(); }

  BatchWriter(const BatchWriter&) = delete;
  BatchWriter& operator=(const BatchWriter&) = delete;

  template <typename... Args>
  void Append(Args&&... args) {
    assert(static_cast<int>(sizeof...(Args)) == batch_.num_columns());
    int c = 0;
    (internal::AppendToChunk(&batch_.column(c++), std::forward<Args>(args)),
     ...);
    if (batch_.full()) Flush();
  }

  void Flush() {
    if (batch_.num_rows() > 0) {
      builder_->AddBatch(batch_, pool_);
      batch_.Clear();
    }
  }

 private:
  TableBuilder* builder_;
  ThreadPool* pool_;
  RowBatch batch_;
};

}  // namespace gordian

#endif  // GORDIAN_TABLE_TABLE_H_
