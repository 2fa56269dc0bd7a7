#include "table/serialize.h"

#include <cstdint>
#include <ostream>
#include <utility>

#include "common/byte_codec.h"
#include "common/fault_fs.h"

namespace gordian {

namespace {

constexpr std::string_view kTableMagic = "GRDT";
// Distinct from GRDT so the two cannot be confused: a dictionary file fed
// to ReadTable (or vice versa) fails on the first four bytes.
constexpr std::string_view kSchemaMagic = "GRDD";
constexpr uint32_t kFormatVersion = 1;
constexpr uint32_t kMaxStringBytes = 1u << 28;  // refuse absurd lengths

// Type tags in the dictionary section.
enum class Tag : uint8_t { kNull = 0, kInt64 = 1, kDouble = 2, kString = 3 };

void WriteValue(const Value& v, ByteWriter* w) {
  switch (v.type()) {
    case ValueType::kNull:
      w->U8(static_cast<uint8_t>(Tag::kNull));
      break;
    case ValueType::kInt64:
      w->U8(static_cast<uint8_t>(Tag::kInt64));
      w->U64(static_cast<uint64_t>(v.int64()));
      break;
    case ValueType::kDouble:
      w->U8(static_cast<uint8_t>(Tag::kDouble));
      w->F64(v.dbl());
      break;
    case ValueType::kString:
      w->U8(static_cast<uint8_t>(Tag::kString));
      w->Str(v.str());
      break;
  }
}

bool ReadValue(ByteReader* r, Value* v) {
  uint8_t tag;
  if (!r->U8(&tag)) return false;
  switch (static_cast<Tag>(tag)) {
    case Tag::kNull:
      *v = Value::Null();
      return true;
    case Tag::kInt64: {
      uint64_t bits;
      if (!r->U64(&bits)) return false;
      *v = Value(static_cast<int64_t>(bits));
      return true;
    }
    case Tag::kDouble: {
      double d;
      if (!r->F64(&d)) return false;
      *v = Value(d);
      return true;
    }
    case Tag::kString: {
      std::string s;
      if (!r->Str(&s, kMaxStringBytes)) return false;
      *v = Value(std::move(s));
      return true;
    }
  }
  return false;
}

// The layout GRDT and GRDD share: magic, version, column count, row count,
// then per column its name and dictionary, followed in GRDT by the
// column's code vector.
void Encode(const Table& table, std::string_view magic, bool with_codes,
            std::string* out) {
  const size_t code_bytes = with_codes ? 4 * table.num_rows() : 0;
  out->reserve(out->size() + 20 + table.num_columns() * (code_bytes + 16));
  ByteWriter w(out);
  w.Raw(magic);
  w.U32(kFormatVersion);
  w.U32(static_cast<uint32_t>(table.num_columns()));
  w.U64(static_cast<uint64_t>(table.num_rows()));
  for (int c = 0; c < table.num_columns(); ++c) {
    w.Str(table.schema().name(c));
    const Dictionary& dict = table.dictionary(c);
    w.U32(dict.size());
    for (uint32_t code = 0; code < dict.size(); ++code) {
      WriteValue(dict.Decode(code), &w);
    }
    if (!with_codes) continue;
    for (uint32_t code : table.column_codes(c)) w.U32(code);
  }
}

// Inverse of Encode: value i of a stored dictionary gets code i, so a
// repeated value (which would silently shift every later code) is refused.
// `codes` is null for GRDD.
Status Decode(std::string_view bytes, std::string_view magic,
              const char* what, Schema* schema,
              std::vector<std::shared_ptr<Dictionary>>* dicts,
              int64_t* num_rows, std::vector<std::vector<uint32_t>>* codes) {
  ByteReader r(bytes);
  if (!r.Magic(magic)) {
    return Status::InvalidArgument(std::string("not a gordian ") + what +
                                   " stream");
  }
  uint32_t version, num_cols;
  uint64_t rows;
  if (!r.U32(&version) || version != kFormatVersion) {
    return Status::InvalidArgument("unsupported format version");
  }
  if (!r.U32(&num_cols) || !r.U64(&rows)) {
    return Status::InvalidArgument("truncated header");
  }
  if (num_cols > static_cast<uint32_t>(AttributeSet::kMaxAttributes)) {
    return Status::InvalidArgument("too many columns");
  }
  if (rows > (uint64_t{1} << 40)) {
    return Status::InvalidArgument("implausible row count");
  }

  std::vector<std::string> names(num_cols);
  dicts->clear();
  if (codes != nullptr) codes->assign(num_cols, {});
  for (uint32_t c = 0; c < num_cols; ++c) {
    if (!r.Str(&names[c], kMaxStringBytes)) {
      return Status::InvalidArgument("truncated name");
    }
    uint32_t dict_size;
    // Each value takes at least its tag byte.
    if (!r.Count(&dict_size, 1)) {
      return Status::InvalidArgument("truncated dict");
    }
    auto dict = std::make_shared<Dictionary>();
    for (uint32_t i = 0; i < dict_size; ++i) {
      Value v;
      if (!ReadValue(&r, &v)) {
        return Status::InvalidArgument("corrupt dictionary value");
      }
      if (dict->Encode(v) != i) {
        return Status::InvalidArgument("duplicate dictionary value");
      }
    }
    dicts->push_back(std::move(dict));
    if (codes == nullptr) continue;
    if (!r.Fits(rows, sizeof(uint32_t))) {
      return Status::InvalidArgument("truncated code vector");
    }
    (*codes)[c].resize(rows);
    for (uint32_t& code : (*codes)[c]) {
      if (!r.U32(&code) || code >= dict_size) {
        return Status::InvalidArgument("code out of dictionary range");
      }
    }
  }
  *schema = Schema(names);
  *num_rows = static_cast<int64_t>(rows);
  return Status::OK();
}

}  // namespace

void WriteTable(const Table& table, std::string* out) {
  Encode(table, kTableMagic, /*with_codes=*/true, out);
}

Status WriteTable(const Table& table, std::ostream& os) {
  std::string bytes;
  WriteTable(table, &bytes);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os) return Status::IOError("table serialization write failed");
  return Status::OK();
}

Status ReadTable(std::string_view bytes, Table* out) {
  Schema schema;
  std::vector<std::shared_ptr<Dictionary>> dicts;
  int64_t num_rows = 0;
  std::vector<std::vector<uint32_t>> codes;
  Status s = Decode(bytes, kTableMagic, "table", &schema, &dicts, &num_rows,
                    &codes);
  if (!s.ok()) return s;
  if (schema.num_columns() == 0 && num_rows > 0) {
    // A table's row count lives in its columns.
    return Status::InvalidArgument("rows without columns");
  }
  *out = Table::FromColumns(std::move(schema), std::move(dicts),
                            std::move(codes));
  return Status::OK();
}

Status WriteTableFile(const Table& table, const std::string& path) {
  std::string bytes;
  WriteTable(table, &bytes);
  return DefaultFileSystem()->WriteFile(path, bytes);
}

Status ReadTableFile(const std::string& path, Table* out) {
  std::string bytes;
  Status s = DefaultFileSystem()->ReadFile(path, &bytes);
  if (s.ok()) s = ReadTable(bytes, out);
  if (s.code() == Status::Code::kInvalidArgument) {
    return Status::InvalidArgument(s.message() + ": " + path);
  }
  return s;
}

void WriteSchemaAndDicts(const Table& table, std::string* out) {
  Encode(table, kSchemaMagic, /*with_codes=*/false, out);
}

Status ReadSchemaAndDicts(std::string_view bytes, Schema* schema,
                          std::vector<std::shared_ptr<Dictionary>>* dicts,
                          int64_t* num_rows) {
  return Decode(bytes, kSchemaMagic, "schema", schema, dicts, num_rows,
                nullptr);
}

}  // namespace gordian
