#include "table/csv.h"

#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <utility>

#include "common/attribute_set.h"
#include "common/thread_pool.h"

namespace gordian {

namespace {

bool NeedsQuoting(const std::string& s, char delimiter) {
  for (char c : s) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void WriteField(std::ostream& os, const std::string& s, char delimiter) {
  if (!NeedsQuoting(s, delimiter)) {
    os << s;
    return;
  }
  os << '"';
  for (char c : s) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

}  // namespace

CsvBatchReader::CsvBatchReader(std::istream& in, const CsvOptions& options)
    : in_(in), options_(options), buf_(kReadBufferBytes) {}

bool CsvBatchReader::Refill() {
  in_.read(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  len_ = static_cast<size_t>(in_.gcount());
  pos_ = 0;
  return len_ > 0;
}

bool CsvBatchReader::ScanPlainLine() {
  if (pos_ == len_ && !Refill()) return false;
  const char* line = buf_.data() + pos_;
  const char* nl =
      static_cast<const char*>(std::memchr(line, '\n', len_ - pos_));
  if (nl == nullptr) return false;
  const size_t n = static_cast<size_t>(nl - line);
  if (n == 0 || std::memchr(line, '"', n) != nullptr ||
      std::memchr(line, '\r', n) != nullptr) {
    return false;
  }
  // The line lies inside the read buffer, so no field of it can pass the
  // field limit.
  static_assert(kReadBufferBytes <= ColumnChunk::kMaxStringBytes);
  const char delim = options_.delimiter;
  const uint64_t base = arena_.size();
  arena_.insert(arena_.end(), line, nl + 1);
  char* copy = arena_.data() + base;
  copy[n] = delim;  // the newline ends the last field
  uint64_t field_start = base;
  for (size_t k = 0; k <= n; ++k) {
    if (copy[k] != delim) continue;
    copy[k] = '\0';
    rec_fields_.emplace_back(field_start,
                             static_cast<uint32_t>(base + k - field_start));
    field_start = base + k + 1;
  }
  pos_ += n + 1;
  ++line_;
  return true;
}

Status CsvBatchReader::ScanRecord(Scan* result) {
  rec_fields_.clear();
  record_line_ = line_;
  if (ScanPlainLine()) {
    *result = Scan::kRecord;
    return Status::OK();
  }
  uint64_t field_start = arena_.size();
  // Raw-length bookkeeping reproduces the line reader's blank-record rule:
  // a record is blank (and skipped) iff its raw content is "" or "\r".
  int64_t raw_len = 0;
  char first_raw = 0;
  bool in_quotes = false;

  // False, with nothing recorded, when the field is over the limit.
  auto end_field = [&] {
    const uint64_t len = arena_.size() - field_start;
    if (len > ColumnChunk::kMaxStringBytes) return false;
    rec_fields_.emplace_back(field_start, static_cast<uint32_t>(len));
    arena_.push_back('\0');  // sentinel so numeric inference parses in place
    field_start = arena_.size();
    return true;
  };
  auto field_too_long = [&] {
    return Status::InvalidArgument(
        "line " + std::to_string(record_line_) + ": field of " +
        std::to_string(arena_.size() - field_start) + " bytes; at most " +
        std::to_string(ColumnChunk::kMaxStringBytes) + " are supported");
  };
  auto count_raw = [&](char c) {
    if (raw_len == 0) first_raw = c;
    ++raw_len;
  };

  for (;;) {
    // Outside quotes, bulk-copy the run of ordinary bytes ahead of the
    // cursor (anything but delimiter, quote, LF, CR) in one go instead of
    // dispatching per character.
    if (!in_quotes && pos_ < len_) {
      const char* base = buf_.data() + pos_;
      const size_t n = len_ - pos_;
      const char delim = options_.delimiter;
      size_t k = 0;
      while (k < n) {
        const char ch = base[k];
        if (ch == delim || ch == '"' || ch == '\n' || ch == '\r') break;
        ++k;
      }
      if (k > 0) {
        if (raw_len == 0) first_raw = base[0];
        raw_len += static_cast<int64_t>(k);
        arena_.insert(arena_.end(), base, base + k);
        pos_ += k;
        if (pos_ >= len_) continue;  // refill before the next special byte
      }
    }
    int ci = NextChar();
    if (ci < 0) {
      if (in_quotes) {
        return Status::InvalidArgument("line " + std::to_string(record_line_) +
                                       ": unterminated quoted field");
      }
      if (raw_len == 0 || (raw_len == 1 && first_raw == '\r')) {
        *result = Scan::kEof;  // nothing (or a bare CR) before EOF
        return Status::OK();
      }
      if (!end_field()) return field_too_long();  // no trailing newline
      *result = Scan::kRecord;
      return Status::OK();
    }
    char c = static_cast<char>(ci);
    if (in_quotes) {
      if (c == '"') {
        count_raw(c);
        if (PeekChar() == '"') {
          NextChar();
          count_raw('"');
          arena_.push_back('"');
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++line_;
        count_raw(c);
        arena_.push_back(c);
      }
    } else if (c == '\n') {
      ++line_;
      if (raw_len == 0 || (raw_len == 1 && first_raw == '\r')) {
        // Blank line: skip and restart the record on the next line.
        raw_len = 0;
        record_line_ = line_;
        continue;
      }
      if (!end_field()) return field_too_long();
      *result = Scan::kRecord;
      return Status::OK();
    } else if (c == options_.delimiter) {
      count_raw(c);
      if (!end_field()) return field_too_long();
    } else if (c == '"') {
      count_raw(c);
      in_quotes = true;
    } else if (c == '\r') {
      count_raw(c);  // dropped outside quotes (CRLF tolerance)
    } else {
      count_raw(c);
      arena_.push_back(c);
    }
  }
}

Status CsvBatchReader::Init() {
  Scan got;
  Status s = ScanRecord(&got);
  if (!s.ok()) return s;
  if (got == Scan::kEof) return Status::OK();  // no records: num_columns()==0

  const int ncols = static_cast<int>(rec_fields_.size());
  if (ncols > AttributeSet::kMaxAttributes) {
    return Status::InvalidArgument(
        "CSV has " + std::to_string(ncols) + " columns; at most " +
        std::to_string(AttributeSet::kMaxAttributes) + " are supported");
  }
  names_.reserve(static_cast<size_t>(ncols));
  for (int i = 0; i < ncols; ++i) {
    if (options_.has_header) {
      names_.emplace_back(arena_.data() + rec_fields_[i].first,
                          rec_fields_[i].second);
    } else {
      names_.push_back("c" + std::to_string(i));
    }
  }
  col_spans_.resize(static_cast<size_t>(ncols));
  if (options_.has_header) {
    arena_.clear();
  } else {
    // The first record is data: stage it for the first NextBatch.
    for (int c = 0; c < ncols; ++c) col_spans_[c].push_back(rec_fields_[c]);
    staged_rows_ = 1;
  }
  return Status::OK();
}

namespace {

// First bytes from which strtoll/strtod can possibly consume the whole
// field: leading whitespace, a sign, a digit, a decimal point, or the
// inf/nan spellings. Any other first byte is a string without paying for
// the two libc parse attempts.
bool MaybeNumericStart(char c) {
  switch (c) {
    case ' ': case '\t': case '\n': case '\v': case '\f': case '\r':
    case '+': case '-': case '.':
    case '0': case '1': case '2': case '3': case '4':
    case '5': case '6': case '7': case '8': case '9':
    case 'i': case 'I': case 'n': case 'N':
      return true;
    default:
      return false;
  }
}

// An optional '-' then 1-18 ASCII digits: such a field cannot overflow an
// int64, and strtoll would consume all of it to the same value. Any other
// field returns false and takes the libc chain.
bool ParsePlainInt(const char* s, uint32_t len, int64_t* out) {
  const bool negative = s[0] == '-';
  const uint32_t digits = len - (negative ? 1 : 0);
  if (digits == 0 || digits > 18) return false;
  uint64_t v = 0;
  for (const char* p = s + (negative ? 1 : 0); p != s + len; ++p) {
    const unsigned d = static_cast<unsigned char>(*p) - unsigned{'0'};
    if (d > 9) return false;
    v = v * 10 + d;
  }
  *out = negative ? -static_cast<int64_t>(v) : static_cast<int64_t>(v);
  return true;
}

}  // namespace

void CsvBatchReader::ParseColumnInto(int col, ColumnChunk* chunk) const {
  for (const auto& [off, len] : col_spans_[static_cast<size_t>(col)]) {
    const char* s = arena_.data() + off;
    if (!options_.infer_types) {
      chunk->AppendString(std::string_view(s, len));
      continue;
    }
    if (len == 0) {
      chunk->AppendNull();
      continue;
    }
    int64_t plain;
    if (ParsePlainInt(s, len, &plain)) {
      chunk->AppendInt64(plain);
      continue;
    }
    if (!MaybeNumericStart(s[0])) {
      chunk->AppendString(std::string_view(s, len));
      continue;
    }
    errno = 0;
    char* end = nullptr;
    long long i = std::strtoll(s, &end, 10);
    if (errno == 0 && end == s + len) {
      chunk->AppendInt64(static_cast<int64_t>(i));
      continue;
    }
    errno = 0;
    double d = std::strtod(s, &end);
    if (errno == 0 && end == s + len) {
      chunk->AppendDouble(d);
      continue;
    }
    chunk->AppendString(std::string_view(s, len));
  }
}

Status CsvBatchReader::NextBatch(RowBatch* batch, ThreadPool* pool) {
  const int ncols = num_columns();
  batch->Reset(ncols);
  if (ncols == 0) return Status::OK();

  int64_t rows = staged_rows_;
  staged_rows_ = 0;
  if (rows == 0) {
    arena_.clear();
    for (auto& spans : col_spans_) spans.clear();
  }
  while (rows < RowBatch::kDefaultRows) {
    Scan got;
    Status s = ScanRecord(&got);
    if (!s.ok()) return s;
    if (got == Scan::kEof) break;
    if (static_cast<int>(rec_fields_.size()) != ncols) {
      return Status::InvalidArgument(
          "line " + std::to_string(record_line_) + ": expected " +
          std::to_string(ncols) + " fields, got " +
          std::to_string(rec_fields_.size()));
    }
    for (int c = 0; c < ncols; ++c) {
      col_spans_[static_cast<size_t>(c)].push_back(rec_fields_[c]);
    }
    ++rows;
  }
  rows_read_ += rows;

  if (pool != nullptr && pool->num_threads() > 1 && ncols > 1 && rows > 0) {
    std::mutex mu;
    std::condition_variable cv;
    int pending = ncols;
    for (int c = 0; c < ncols; ++c) {
      pool->Submit([this, batch, &mu, &cv, &pending, c] {
        ParseColumnInto(c, &batch->column(c));
        std::lock_guard<std::mutex> lock(mu);
        if (--pending == 0) cv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pending == 0; });
  } else {
    for (int c = 0; c < ncols; ++c) ParseColumnInto(c, &batch->column(c));
  }
  return Status::OK();
}

namespace {

Status ReadCsvImpl(const std::string& path, const CsvOptions& options,
                   const SpillPolicy& spill, Table* out) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);

  CsvBatchReader reader(in, options);
  Status s = reader.Init();
  if (!s.ok()) return s;
  if (reader.num_columns() == 0) {
    return Status::InvalidArgument("empty CSV file: " + path);
  }

  std::unique_ptr<ThreadPool> pool;
  if (options.encode_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.encode_threads);
  }
  TableBuilder builder{Schema(reader.column_names()), spill};
  RowBatch batch;
  // Once the builder is spilling, the batch arena is the ingest loop's
  // largest transient; release any outsized capacity (a string-heavy
  // stretch of the file) right after the encode that consumed it.
  constexpr int64_t kBatchShrinkBytes = 8 << 20;
  for (;;) {
    s = reader.NextBatch(&batch, pool.get());
    if (!s.ok()) return s;
    if (batch.num_rows() == 0) break;
    builder.AddBatch(batch, pool.get());
    if (spill.enabled() && batch.ApproxBytes() > kBatchShrinkBytes) {
      batch.Clear();
      batch.ShrinkToFit();
    }
  }
  return builder.Build(out);
}

}  // namespace

Status ReadCsv(const std::string& path, const CsvOptions& options,
               Table* out) {
  return ReadCsvImpl(path, options, SpillPolicy(), out);
}

Status ReadCsv(const std::string& path, const CsvOptions& options,
               const SpillPolicy& spill, Table* out) {
  return ReadCsvImpl(path, options, spill, out);
}

Status WriteCsv(const Table& table, const CsvOptions& options,
                const std::string& path) {
  std::ofstream os(path);
  if (!os) return Status::IOError("cannot open " + path + " for writing");
  if (options.has_header) {
    for (int c = 0; c < table.num_columns(); ++c) {
      if (c > 0) os << options.delimiter;
      WriteField(os, table.schema().name(c), options.delimiter);
    }
    os << "\n";
  }
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < table.num_columns(); ++c) {
      if (c > 0) os << options.delimiter;
      const Value& v = table.value(r, c);
      if (!v.is_null()) WriteField(os, v.ToString(), options.delimiter);
    }
    os << "\n";
  }
  if (!os) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace gordian
