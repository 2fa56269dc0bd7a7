#include "oracle/csv.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <utility>

#include "common/attribute_set.h"

namespace gordian {

namespace {

// A string's length in a ColumnChunk is a 24-bit field.
constexpr size_t kMaxFieldBytes = (size_t{1} << 24) - 1;

// Splits `data` into records one byte at a time. A record is blank, and
// skipped, iff its raw bytes are "" or "\r". Outside quotes a CR is dropped
// and the delimiter ends a field; inside them every byte is data and ""
// is one quote.
class RecordScanner {
 public:
  RecordScanner(const std::string& data, char delimiter)
      : data_(data), delimiter_(delimiter) {}

  // Fills *fields with the next non-blank record, or sets *eof.
  Status Next(std::vector<std::string>* fields, bool* eof) {
    fields->clear();
    *eof = false;
    record_line_ = line_;
    std::string cur;
    int64_t raw_len = 0;
    char first_raw = 0;
    bool in_quotes = false;
    auto count_raw = [&](char c) {
      if (raw_len == 0) first_raw = c;
      ++raw_len;
    };
    auto end_field = [&] {
      if (cur.size() > kMaxFieldBytes) {
        return Status::InvalidArgument(
            "line " + std::to_string(record_line_) + ": field of " +
            std::to_string(cur.size()) + " bytes; at most " +
            std::to_string(kMaxFieldBytes) + " are supported");
      }
      fields->push_back(std::move(cur));
      cur.clear();
      return Status::OK();
    };
    for (;;) {
      if (pos_ == data_.size()) {
        if (in_quotes) {
          return Status::InvalidArgument("line " +
                                         std::to_string(record_line_) +
                                         ": unterminated quoted field");
        }
        if (raw_len == 0 || (raw_len == 1 && first_raw == '\r')) {
          *eof = true;
          return Status::OK();
        }
        return end_field();
      }
      const char c = data_[pos_++];
      if (in_quotes) {
        count_raw(c);
        if (c != '"') {
          if (c == '\n') ++line_;
          cur += c;
        } else if (pos_ < data_.size() && data_[pos_] == '"') {
          count_raw(data_[pos_++]);
          cur += '"';
        } else {
          in_quotes = false;
        }
      } else if (c == '\n') {
        ++line_;
        if (raw_len == 0 || (raw_len == 1 && first_raw == '\r')) {
          raw_len = 0;
          record_line_ = line_;
          continue;
        }
        return end_field();
      } else {
        count_raw(c);
        if (c == delimiter_) {
          Status s = end_field();
          if (!s.ok()) return s;
        } else if (c == '"') {
          in_quotes = true;
        } else if (c != '\r') {
          cur += c;
        }
      }
    }
  }

  int64_t record_line() const { return record_line_; }

 private:
  const std::string& data_;
  const char delimiter_;
  size_t pos_ = 0;
  int64_t line_ = 1;
  int64_t record_line_ = 1;
};

}  // namespace

Status OracleReadCsv(const std::string& path, const CsvOptions& options,
                     OracleCsvTable* out) {
  *out = OracleCsvTable();
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  const std::string data{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  RecordScanner scanner(data, options.delimiter);

  std::vector<std::string> fields;
  bool eof = false;
  Status s = scanner.Next(&fields, &eof);
  if (!s.ok()) return s;
  if (eof) return Status::InvalidArgument("empty CSV file: " + path);
  const size_t ncols = fields.size();
  if (ncols > static_cast<size_t>(AttributeSet::kMaxAttributes)) {
    return Status::InvalidArgument(
        "CSV has " + std::to_string(ncols) + " columns; at most " +
        std::to_string(AttributeSet::kMaxAttributes) + " are supported");
  }
  for (size_t c = 0; c < ncols; ++c) {
    out->names.push_back(options.has_header ? fields[c]
                                            : "c" + std::to_string(c));
  }
  out->dictionaries.resize(ncols);
  out->codes.resize(ncols);
  std::vector<std::map<Value, uint32_t>> seen(ncols);
  auto add_record = [&] {
    for (size_t c = 0; c < ncols; ++c) {
      Value v = ParseCsvField(fields[c], options.infer_types);
      auto [it, inserted] = seen[c].emplace(
          v, static_cast<uint32_t>(out->dictionaries[c].size()));
      if (inserted) out->dictionaries[c].push_back(std::move(v));
      out->codes[c].push_back(it->second);
    }
    ++out->num_rows;
  };
  if (!options.has_header) add_record();
  for (;;) {
    s = scanner.Next(&fields, &eof);
    if (!s.ok()) return s;
    if (eof) return Status::OK();
    if (fields.size() != ncols) {
      return Status::InvalidArgument(
          "line " + std::to_string(scanner.record_line()) + ": expected " +
          std::to_string(ncols) + " fields, got " +
          std::to_string(fields.size()));
    }
    add_record();
  }
}

Status SplitCsvRecord(const std::string& line, char delimiter,
                      std::vector<std::string>* fields) {
  fields->clear();
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delimiter) {
      fields->push_back(std::move(cur));
      cur.clear();
    } else if (c == '\r') {
      // Tolerate CRLF line endings.
    } else {
      cur += c;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted field: " + line);
  }
  fields->push_back(std::move(cur));
  return Status::OK();
}

Value ParseCsvField(const std::string& field, bool infer_types) {
  if (!infer_types) return Value(field);
  if (field.empty()) return Value::Null();
  {
    errno = 0;
    char* end = nullptr;
    long long i = std::strtoll(field.c_str(), &end, 10);
    if (errno == 0 && end == field.c_str() + field.size()) {
      return Value(static_cast<int64_t>(i));
    }
  }
  {
    errno = 0;
    char* end = nullptr;
    double d = std::strtod(field.c_str(), &end);
    if (errno == 0 && end == field.c_str() + field.size()) {
      return Value(d);
    }
  }
  return Value(field);
}

}  // namespace gordian
