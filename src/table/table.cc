#include "table/table.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <unordered_set>

#include "common/hashing.h"
#include "common/random.h"
#include "common/thread_pool.h"

namespace gordian {

namespace {

// Hoisted per-column code pointers for the sort/scan hot paths: both
// resident and spilled columns are contiguous arrays, so one indirection
// per column replaces one per access.
std::vector<const uint32_t*> ColumnPointers(const Table& t,
                                            const std::vector<int>& cols) {
  std::vector<const uint32_t*> ptrs;
  ptrs.reserve(cols.size());
  for (int c : cols) ptrs.push_back(t.column_codes(c).data());
  return ptrs;
}

// Sorts row indices lexicographically by the codes of the given columns.
void SortRowsBy(const std::vector<const uint32_t*>& ptrs,
                std::vector<int64_t>& rows) {
  std::sort(rows.begin(), rows.end(), [&](int64_t a, int64_t b) {
    for (const uint32_t* p : ptrs) {
      if (p[a] != p[b]) return p[a] < p[b];
    }
    return false;
  });
}

bool RowsEqualOn(const std::vector<const uint32_t*>& ptrs, int64_t a,
                 int64_t b) {
  for (const uint32_t* p : ptrs) {
    if (p[a] != p[b]) return false;
  }
  return true;
}

std::vector<int> ToColumnList(const AttributeSet& attrs) {
  std::vector<int> cols;
  attrs.ForEach([&](int a) { cols.push_back(a); });
  return cols;
}

}  // namespace

int Table::spilled_column_count() const {
  int n = 0;
  for (const ColumnData& col : columns_) n += col.codes.spilled() ? 1 : 0;
  return n;
}

int64_t Table::ColumnCardinality(int col) const {
  if (cardinality_cache_.empty()) {
    cardinality_cache_.assign(num_columns(), -1);
  }
  if (cardinality_cache_[col] >= 0) return cardinality_cache_[col];
  // Distinct codes via a presence bitmap over the (dense) code space.
  // Spilled columns validated every code < dict size at open, so the
  // bitmap index is in range for both representations.
  std::vector<bool> seen(columns_[col].dict->size(), false);
  int64_t distinct = 0;
  for (uint32_t c : columns_[col].codes) {
    if (!seen[c]) {
      seen[c] = true;
      ++distinct;
    }
  }
  cardinality_cache_[col] = distinct;
  return distinct;
}

int64_t Table::DistinctCount(const AttributeSet& attrs) const {
  if (num_rows_ == 0) return 0;
  std::vector<int> cols = ToColumnList(attrs);
  if (cols.empty()) return 1;
  if (cols.size() == 1) return ColumnCardinality(cols[0]);
  std::vector<const uint32_t*> ptrs = ColumnPointers(*this, cols);
  std::vector<int64_t> rows(num_rows_);
  std::iota(rows.begin(), rows.end(), int64_t{0});
  SortRowsBy(ptrs, rows);
  int64_t distinct = 1;
  for (int64_t i = 1; i < num_rows_; ++i) {
    if (!RowsEqualOn(ptrs, rows[i - 1], rows[i])) ++distinct;
  }
  return distinct;
}

int64_t Table::DistinctCountFast(const AttributeSet& attrs) const {
  if (num_rows_ == 0) return 0;
  std::vector<int> cols = ToColumnList(attrs);
  if (cols.empty()) return 1;
  if (cols.size() == 1) return ColumnCardinality(cols[0]);
  std::vector<const uint32_t*> ptrs = ColumnPointers(*this, cols);
  std::unordered_set<Fingerprint128, Fingerprint128Hash> seen;
  seen.reserve(static_cast<size_t>(num_rows_));
  for (int64_t r = 0; r < num_rows_; ++r) {
    Fingerprint128 fp;
    for (const uint32_t* p : ptrs) fp.Update(p[r]);
    seen.insert(fp);
  }
  return static_cast<int64_t>(seen.size());
}

bool Table::IsUnique(const AttributeSet& attrs) const {
  if (num_rows_ <= 1) return true;
  std::vector<int> cols = ToColumnList(attrs);
  if (cols.empty()) return false;
  std::vector<const uint32_t*> ptrs = ColumnPointers(*this, cols);
  std::unordered_set<Fingerprint128, Fingerprint128Hash> seen;
  seen.reserve(static_cast<size_t>(num_rows_));
  for (int64_t r = 0; r < num_rows_; ++r) {
    Fingerprint128 fp;
    for (const uint32_t* p : ptrs) fp.Update(p[r]);
    if (!seen.insert(fp).second) return false;
  }
  return true;
}

double Table::Strength(const AttributeSet& attrs) const {
  if (num_rows_ == 0) return 1.0;
  return static_cast<double>(DistinctCount(attrs)) /
         static_cast<double>(num_rows_);
}

Table Table::SampleRows(int64_t count, uint64_t seed) const {
  count = std::min(count, num_rows_);
  // Choose `count` distinct row positions via a partial Fisher-Yates over
  // the index array, then restore original order so the sample preserves
  // the table's row order.
  std::vector<int64_t> idx(num_rows_);
  std::iota(idx.begin(), idx.end(), int64_t{0});
  Random rng(seed);
  for (int64_t i = 0; i < count; ++i) {
    int64_t j = i + static_cast<int64_t>(
                        rng.Uniform(static_cast<uint64_t>(num_rows_ - i)));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(count);
  std::sort(idx.begin(), idx.end());

  Table out;
  out.schema_ = schema_;
  out.num_rows_ = count;
  out.columns_.reserve(columns_.size());
  for (const ColumnData& col : columns_) {
    ColumnData sc;
    sc.dict = col.dict;
    std::vector<uint32_t> codes;
    codes.reserve(count);
    for (int64_t r : idx) codes.push_back(col.codes[r]);
    sc.codes = CodeColumn::Resident(std::move(codes));
    out.columns_.push_back(std::move(sc));
  }
  return out;
}

Table Table::ProjectColumns(int num_cols) const {
  std::vector<int> cols(num_cols);
  std::iota(cols.begin(), cols.end(), 0);
  return SelectColumns(cols);
}

Table Table::SelectColumns(const std::vector<int>& cols) const {
  Table out;
  std::vector<ColumnDef> defs;
  defs.reserve(cols.size());
  for (int c : cols) defs.push_back(schema_.column(c));
  out.schema_ = Schema(std::move(defs));
  out.num_rows_ = num_rows_;
  for (int c : cols) out.columns_.push_back(columns_[c]);
  return out;
}

int64_t Table::ApproxBytes() const {
  int64_t b = 0;
  // Samples and column projections share Dictionary objects — and, since
  // CodeColumn copies share storage, code arrays — between tables and
  // (after SelectColumns with repeats) between columns; count each
  // distinct object once so sharing isn't double-billed.
  std::unordered_set<const Dictionary*> counted;
  std::unordered_set<const uint32_t*> counted_codes;
  for (const ColumnData& col : columns_) {
    if (col.codes.data() != nullptr &&
        counted_codes.insert(col.codes.data()).second) {
      b += col.codes.resident_bytes();
    }
    if (col.dict && counted.insert(col.dict.get()).second) {
      b += col.dict->ApproxBytes();
    }
  }
  b += static_cast<int64_t>(cardinality_cache_.capacity() * sizeof(int64_t));
  return b;
}

int64_t Table::MappedBytes() const {
  int64_t b = 0;
  std::unordered_set<const MappedRegion*> counted;
  for (const ColumnData& col : columns_) {
    const std::shared_ptr<MappedRegion>& region = col.codes.region();
    if (region && counted.insert(region.get()).second) {
      b += col.codes.mapped_bytes();
    }
  }
  return b;
}

Table Table::FromColumns(Schema schema,
                         std::vector<std::shared_ptr<Dictionary>> dicts,
                         std::vector<std::vector<uint32_t>> codes) {
  std::vector<CodeColumn> cols;
  cols.reserve(codes.size());
  for (std::vector<uint32_t>& c : codes) {
    cols.push_back(CodeColumn::Resident(std::move(c)));
  }
  return FromCodeColumns(std::move(schema), std::move(dicts),
                         std::move(cols));
}

Table Table::FromCodeColumns(Schema schema,
                             std::vector<std::shared_ptr<Dictionary>> dicts,
                             std::vector<CodeColumn> columns) {
  assert(dicts.size() == columns.size());
  assert(static_cast<int>(dicts.size()) == schema.num_columns());
  Table out;
  out.schema_ = std::move(schema);
  out.num_rows_ = columns.empty() ? 0 : columns.front().size();
  out.columns_.resize(dicts.size());
  for (size_t c = 0; c < dicts.size(); ++c) {
    assert(columns[c].size() == out.num_rows_);
    out.columns_[c].dict = std::move(dicts[c]);
    out.columns_[c].codes = std::move(columns[c]);
  }
  return out;
}

std::string Table::RowToString(int64_t row) const {
  std::string out;
  for (int c = 0; c < num_columns(); ++c) {
    if (c > 0) out += "|";
    out += value(row, c).ToString();
  }
  return out;
}

TableBuilder::TableBuilder(Schema schema, SpillPolicy policy)
    : policy_(std::move(policy)) {
  table_.schema_ = std::move(schema);
  table_.columns_.resize(table_.schema_.num_columns());
  for (auto& col : table_.columns_) {
    col.dict = std::make_shared<Dictionary>();
  }
  cols_.resize(table_.schema_.num_columns());
  // Distinct per-builder file names let several spilling builders share
  // one directory.
  static std::atomic<uint64_t> seq{0};
  spill_prefix_ = "tbl-" + std::to_string(seq.fetch_add(1));
}

uint32_t TableBuilder::NullCode(int c) const {
  return table_.columns_[c].dict->Lookup(Value::Null());
}

int TableBuilder::spilling_column_count() const {
  int n = 0;
  for (const BuildColumn& bc : cols_) n += bc.writer != nullptr ? 1 : 0;
  return n;
}

int64_t TableBuilder::ApproxBytes() const {
  int64_t b = 0;
  std::unordered_set<const Dictionary*> counted;
  for (size_t c = 0; c < cols_.size(); ++c) {
    b += static_cast<int64_t>(cols_[c].codes.capacity() * sizeof(uint32_t));
    const Dictionary* dict = table_.columns_[c].dict.get();
    if (dict && counted.insert(dict).second) b += dict->ApproxBytes();
  }
  return b;
}

// Encodes batch column `c`, routing the codes to the column's spill writer
// when one exists. Only touches column-local state plus the column's
// dictionary, so the pooled AddBatch runs one call per column concurrently;
// any spill problem is parked in the column and merged under no lock after
// the latch.
void TableBuilder::EncodeColumnBatch(const RowBatch& batch, int c) {
  BuildColumn& bc = cols_[c];
  Dictionary* dict = table_.columns_[c].dict.get();
  if (bc.writer == nullptr) {
    dict->EncodeBatch(batch.column(c), &bc.codes);
    return;
  }
  bc.codes.clear();  // scratch: capacity persists across batches
  dict->EncodeBatch(batch.column(c), &bc.codes);
  Status s = bc.writer->Append(bc.codes.data(),
                               static_cast<int64_t>(bc.codes.size()),
                               NullCode(c));
  if (s.ok()) {
    bc.codes.clear();
    return;
  }
  // Fall back to a resident column without losing a code: everything the
  // writer accepted (including this batch) comes back via Reabsorb.
  bc.pending_status = s;
  bc.codes.clear();
  Status r = bc.writer->Reabsorb(&bc.codes);
  if (!r.ok()) {
    bc.pending_status = r;
    bc.lost_data = true;
  }
  bc.writer.reset();
}

void TableBuilder::MaybeSpill() {
  if (!policy_.enabled() || poisoned_) return;
  auto resident_bytes = [&] {
    int64_t b = 0;
    for (const BuildColumn& bc : cols_) {
      b += static_cast<int64_t>(bc.codes.capacity() * sizeof(uint32_t));
    }
    return b;
  };
  if (resident_bytes() <= policy_.memory_budget_bytes) return;

  // Spill the largest resident columns first: fewest files for the most
  // reclaimed bytes.
  std::vector<int> order;
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (cols_[c].writer == nullptr) order.push_back(static_cast<int>(c));
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return cols_[a].codes.size() > cols_[b].codes.size();
  });
  FileSystem* fs = policy_.fs ? policy_.fs : DefaultFileSystem();
  for (int c : order) {
    if (resident_bytes() <= policy_.memory_budget_bytes) break;
    BuildColumn& bc = cols_[c];
    std::string path = policy_.spill_dir + "/" + spill_prefix_ + "-c" +
                       std::to_string(c) + ".grdl";
    auto writer = std::make_unique<SpillColumnWriter>(fs, std::move(path),
                                                      policy_.chunk_rows);
    Status s = writer->Append(bc.codes.data(),
                              static_cast<int64_t>(bc.codes.size()),
                              NullCode(c));
    if (!s.ok()) {
      // The codes are still intact in bc.codes; stay resident and stop
      // trying to spill (the directory is unhealthy).
      if (spill_status_.ok()) spill_status_ = s;
      return;
    }
    bc.writer = std::move(writer);
    bc.codes.clear();
    bc.codes.shrink_to_fit();
  }
}

void TableBuilder::AddRow(const std::vector<Value>& row) {
  assert(static_cast<int>(row.size()) == table_.schema_.num_columns());
  for (int c = 0; c < table_.schema_.num_columns(); ++c) {
    uint32_t code = table_.columns_[c].dict->Encode(row[c]);
    BuildColumn& bc = cols_[c];
    if (bc.writer == nullptr) {
      bc.codes.push_back(code);
      continue;
    }
    Status s = bc.writer->Append(&code, 1, NullCode(c));
    if (!s.ok()) {
      bc.pending_status = s;
      bc.codes.clear();
      // Reabsorb returns every accepted code — including this one, which
      // reached the writer's buffer before the flush failed.
      Status r = bc.writer->Reabsorb(&bc.codes);
      if (!r.ok()) {
        bc.pending_status = r;
        bc.lost_data = true;
      }
      bc.writer.reset();
    }
  }
  ++num_rows_;
  MergeColumnStatuses();
  if ((num_rows_ & 4095) == 0) MaybeSpill();
}

void TableBuilder::AddBatch(const RowBatch& batch, ThreadPool* pool) {
  const int ncols = table_.schema_.num_columns();
  assert(batch.num_columns() == ncols);
  if (pool == nullptr || pool->num_threads() <= 1 || ncols <= 1) {
    for (int c = 0; c < ncols; ++c) EncodeColumnBatch(batch, c);
  } else {
    // One task per column; per-column dictionaries are disjoint, so tasks
    // never contend on data — the latch is the only synchronization.
    std::mutex mu;
    std::condition_variable cv;
    int pending = ncols;
    for (int c = 0; c < ncols; ++c) {
      pool->Submit([this, &batch, &mu, &cv, &pending, c] {
        EncodeColumnBatch(batch, c);
        std::lock_guard<std::mutex> lock(mu);
        if (--pending == 0) cv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pending == 0; });
  }
  num_rows_ += batch.num_rows();
  MergeColumnStatuses();
  MaybeSpill();
}

void TableBuilder::MergeColumnStatuses() {
  for (BuildColumn& bc : cols_) {
    if (!bc.pending_status.ok()) {
      if (spill_status_.ok()) spill_status_ = bc.pending_status;
      if (bc.lost_data) poisoned_ = true;
      bc.pending_status = Status::OK();
      bc.lost_data = false;
    }
  }
}

Status TableBuilder::Build(Table* out) {
  if (cols_.size() > static_cast<size_t>(AttributeSet::kMaxAttributes)) {
    // Attribute sets are fixed-width bitmaps: a wider table could only be
    // profiled by silently dropping columns.
    const size_t ncols = cols_.size();
    table_ = Table();
    cols_.clear();
    num_rows_ = 0;
    return Status::InvalidArgument(
        "table has " + std::to_string(ncols) + " columns; at most " +
        std::to_string(AttributeSet::kMaxAttributes) + " are supported");
  }
  FileSystem* fs = policy_.fs ? policy_.fs : DefaultFileSystem();
  for (size_t c = 0; c < cols_.size(); ++c) {
    BuildColumn& bc = cols_[c];
    Table::ColumnData& cd = table_.columns_[c];
    if (bc.writer == nullptr) {
      cd.codes = CodeColumn::Resident(std::move(bc.codes));
      continue;
    }
    uint32_t dict_size = cd.dict->size();
    Status s = bc.writer->Finish(dict_size, NullCode(static_cast<int>(c)));
    if (s.ok()) {
      CodeColumn col;
      s = CodeColumn::OpenSpilled(fs, bc.writer->path(), dict_size, &col);
      if (s.ok()) {
        cd.codes = std::move(col);
        bc.writer.reset();
        continue;
      }
      // A just-written file failing validation means the medium mangled
      // it; the temp is gone after Finish, so nothing is recoverable.
      if (spill_status_.ok()) spill_status_ = s;
      poisoned_ = true;
      bc.writer.reset();
      continue;
    }
    // Finish failed before the rename: every accepted code is still at the
    // front of the temp file.
    if (spill_status_.ok()) spill_status_ = s;
    bc.codes.clear();
    Status r = bc.writer->Reabsorb(&bc.codes);
    if (r.ok()) {
      cd.codes = CodeColumn::Resident(std::move(bc.codes));
    } else {
      if (spill_status_.ok()) spill_status_ = r;
      poisoned_ = true;
    }
    bc.writer.reset();
  }
  if (poisoned_) {
    Status s = spill_status_.ok()
                   ? Status::IOError("spilled column data lost")
                   : spill_status_;
    table_ = Table();
    cols_.clear();
    num_rows_ = 0;
    return s;
  }
  table_.num_rows_ = num_rows_;
  *out = std::move(table_);
  table_ = Table();
  cols_.clear();
  num_rows_ = 0;
  return Status::OK();
}

Table TableBuilder::Build() {
  Table out;
  Status s = Build(&out);
  // Spilling degrades to resident on I/O trouble; only unrecoverable data
  // loss fails, and callers that enable spilling should use the Status
  // overload to see it.
  assert(s.ok());
  (void)s;
  return out;
}

}  // namespace gordian
