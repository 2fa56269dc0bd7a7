#ifndef GORDIAN_TABLE_COLUMN_CHUNK_H_
#define GORDIAN_TABLE_COLUMN_CHUNK_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "table/value.h"

namespace gordian {

// One column's slice of a row batch: a typed, append-only vector of values
// stored without per-value heap allocation. Ints and doubles live in a flat
// word array; string payloads are concatenated into a shared character
// arena (each terminated by a NUL so numeric parsers can run in place); a
// null bitmap marks NULL entries. This is the unit the vectorized ingest
// boundary moves — parsers and generators append into chunks, and
// Dictionary::EncodeBatch turns a whole chunk into codes in one pass.
//
// Append order is row order, so batch-encoding a chunk assigns dictionary
// codes in exactly the order row-at-a-time Encode calls would have.
class ColumnChunk {
 public:
  int64_t size() const { return static_cast<int64_t>(tags_.size()); }

  void Clear() {
    tags_.clear();
    words_.clear();
    null_bits_.clear();
    str_data_.clear();
  }

  // Returns the chunk's heap to the allocator (Clear only resets sizes).
  // Spilling ingest loops call this so a one-off string-heavy batch doesn't
  // pin its arena capacity for the rest of the file.
  void ShrinkToFit() {
    tags_.shrink_to_fit();
    words_.shrink_to_fit();
    null_bits_.shrink_to_fit();
    str_data_.shrink_to_fit();
  }

  void AppendNull() {
    PushTag(ValueType::kNull, /*null=*/true);
    words_.push_back(0);
  }

  void AppendInt64(int64_t v) {
    PushTag(ValueType::kInt64, /*null=*/false);
    words_.push_back(static_cast<uint64_t>(v));
  }

  void AppendDouble(double v) {
    PushTag(ValueType::kDouble, /*null=*/false);
    uint64_t bits;
    __builtin_memcpy(&bits, &v, sizeof(bits));
    words_.push_back(bits);
  }

  // A string entry's length is the top 24 bits of its word; longer strings
  // must be refused before they reach a chunk (the CSV reader does).
  static constexpr uint64_t kMaxStringBytes = (uint64_t{1} << 24) - 1;

  void AppendString(std::string_view s) {
    assert(str_data_.size() < (uint64_t{1} << 40) &&
           s.size() <= kMaxStringBytes);
    PushTag(ValueType::kString, /*null=*/false);
    words_.push_back((static_cast<uint64_t>(s.size()) << 40) |
                     static_cast<uint64_t>(str_data_.size()));
    str_data_.insert(str_data_.end(), s.begin(), s.end());
    str_data_.push_back('\0');  // in-place NUL sentinel for numeric parsing
  }

  // Boundary adapter for callers that still hold Values.
  void AppendValue(const Value& v);

  ValueType type(int64_t i) const {
    return static_cast<ValueType>(tags_[static_cast<size_t>(i)]);
  }
  bool is_null(int64_t i) const {
    return (null_bits_[static_cast<size_t>(i) >> 6] >>
            (static_cast<size_t>(i) & 63)) & 1;
  }
  int64_t int64_at(int64_t i) const {
    return static_cast<int64_t>(words_[static_cast<size_t>(i)]);
  }
  double double_at(int64_t i) const {
    double d;
    __builtin_memcpy(&d, &words_[static_cast<size_t>(i)], sizeof(d));
    return d;
  }
  std::string_view string_at(int64_t i) const {
    uint64_t w = words_[static_cast<size_t>(i)];
    return std::string_view(str_data_.data() + (w & ((uint64_t{1} << 40) - 1)),
                            w >> 40);
  }

  // Materializes entry `i` as a Value (boundary/compat path).
  Value ValueAt(int64_t i) const;

  int64_t ApproxBytes() const {
    return static_cast<int64_t>(tags_.capacity() +
                                words_.capacity() * sizeof(uint64_t) +
                                null_bits_.capacity() * sizeof(uint64_t) +
                                str_data_.capacity());
  }

  // Bytes of data actually held (sizes, not capacities); the per-chunk
  // ingest metric.
  int64_t ByteSize() const {
    return static_cast<int64_t>(tags_.size() +
                                words_.size() * sizeof(uint64_t) +
                                null_bits_.size() * sizeof(uint64_t) +
                                str_data_.size());
  }

 private:
  void PushTag(ValueType t, bool null) {
    size_t i = tags_.size();
    tags_.push_back(static_cast<uint8_t>(t));
    if ((i & 63) == 0) null_bits_.push_back(0);
    if (null) null_bits_[i >> 6] |= uint64_t{1} << (i & 63);
  }

  std::vector<uint8_t> tags_;      // ValueType per entry
  std::vector<uint64_t> words_;    // int64/double bits; strings: len<<40|offset
  std::vector<uint64_t> null_bits_;  // 1 bit per entry
  std::vector<char> str_data_;     // NUL-terminated string payloads
};

// A fixed-capacity batch of rows in columnar form: one ColumnChunk per
// column. Producers (CSV scanner, generators, adapters) fill the chunks;
// consumers (TableBuilder::AddBatch, StreamingProfiler::AddBatch) drain
// them column-at-a-time.
class RowBatch {
 public:
  static constexpr int64_t kDefaultRows = 4096;

  RowBatch() = default;
  explicit RowBatch(int num_columns) { Reset(num_columns); }

  // Re-shapes the batch to `num_columns` empty chunks.
  void Reset(int num_columns) {
    columns_.resize(static_cast<size_t>(num_columns));
    Clear();
  }

  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }
  bool full() const { return num_rows() >= kDefaultRows; }

  ColumnChunk& column(int c) { return columns_[static_cast<size_t>(c)]; }
  const ColumnChunk& column(int c) const {
    return columns_[static_cast<size_t>(c)];
  }

  // Row-at-a-time adapter; `row` must have num_columns() values.
  void AppendRow(const std::vector<Value>& row);

  void Clear() {
    for (ColumnChunk& c : columns_) c.Clear();
  }

  void ShrinkToFit() {
    for (ColumnChunk& c : columns_) c.ShrinkToFit();
  }

  int64_t ApproxBytes() const {
    int64_t b = 0;
    for (const ColumnChunk& c : columns_) b += c.ApproxBytes();
    return b;
  }

  int64_t ByteSize() const {
    int64_t b = 0;
    for (const ColumnChunk& c : columns_) b += c.ByteSize();
    return b;
  }

 private:
  std::vector<ColumnChunk> columns_;
};

namespace internal {

inline void AppendToChunk(ColumnChunk* chunk, const Value& v) {
  chunk->AppendValue(v);
}
inline void AppendToChunk(ColumnChunk* chunk, double v) {
  chunk->AppendDouble(v);
}
inline void AppendToChunk(ColumnChunk* chunk, std::string_view v) {
  chunk->AppendString(v);
}
inline void AppendToChunk(ColumnChunk* chunk, const std::string& v) {
  chunk->AppendString(v);
}
inline void AppendToChunk(ColumnChunk* chunk, const char* v) {
  chunk->AppendString(v);
}
template <typename T,
          typename = std::enable_if_t<std::is_integral_v<std::decay_t<T>>>>
inline void AppendToChunk(ColumnChunk* chunk, T v) {
  chunk->AppendInt64(static_cast<int64_t>(v));
}

}  // namespace internal

}  // namespace gordian

#endif  // GORDIAN_TABLE_COLUMN_CHUNK_H_
