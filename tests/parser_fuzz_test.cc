// Robustness fuzzing for the text ingestion paths: random and mutated
// CSV/XML inputs must never crash the parsers; whatever loads must be
// internally consistent. ReadCsv is also fuzzed differentially against the
// reference reader in tests/oracle/; that fuzz's file count honours
// GORDIAN_FUZZ_ITERS.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "oracle/csv.h"
#include "table/csv.h"
#include "table/xml_lite.h"

namespace gordian {
namespace {

std::string WriteTemp(const std::string& name, const std::string& content) {
  std::string path = ::testing::TempDir() + "gordian_fuzz_" + name;
  std::ofstream os(path, std::ios::binary);
  os << content;
  return path;
}

void ExpectConsistent(const Table& t) {
  for (int c = 0; c < t.num_columns(); ++c) {
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      (void)t.value(r, c);
    }
    EXPECT_LE(t.ColumnCardinality(c), t.dictionary(c).size());
  }
}

TEST(ParserFuzz, RandomBytesNeverCrashCsv) {
  Random rng(501);
  const char alphabet[] = "abc,\"\n\r123 .-=;\t";
  for (int trial = 0; trial < 120; ++trial) {
    std::string content;
    size_t len = rng.Uniform(300);
    for (size_t i = 0; i < len; ++i) {
      content += alphabet[rng.Uniform(sizeof(alphabet) - 1)];
    }
    std::string path = WriteTemp("csv", content);
    Table t;
    Status s = ReadCsv(path, CsvOptions{}, &t);
    if (s.ok()) ExpectConsistent(t);
  }
  SUCCEED();
}

TEST(ParserFuzz, MutatedValidCsvNeverCrashes) {
  std::string base = "id,name,score\n";
  for (int i = 0; i < 40; ++i) {
    base += std::to_string(i) + ",\"n" + std::to_string(i % 7) + "\"," +
            std::to_string(i * 0.5) + "\n";
  }
  Random rng(502);
  for (int trial = 0; trial < 120; ++trial) {
    std::string mutated = base;
    int edits = 1 + static_cast<int>(rng.Uniform(5));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.Uniform(mutated.size());
      mutated[pos] = static_cast<char>(rng.Next() & 0x7F);
    }
    std::string path = WriteTemp("csvmut", mutated);
    Table t;
    Status s = ReadCsv(path, CsvOptions{}, &t);
    if (s.ok()) ExpectConsistent(t);
  }
  SUCCEED();
}

// Oracle check for the quote-aware batch scanner: generate random field
// matrices (fields may contain delimiters, quotes, CR and LF), render them
// with every field quoted, and require ReadCsv to reproduce the matrix
// exactly. Quoting every field sidesteps the blank-record rule (an empty
// single field renders as "" which is not a blank line).
TEST(ParserFuzz, QuotedRandomMatricesRoundTripExactly) {
  Random rng(505);
  const char alphabet[] = "ab,\"\n\r 1.;";
  for (int trial = 0; trial < 150; ++trial) {
    const int cols = 1 + static_cast<int>(rng.Uniform(5));
    const int rows = static_cast<int>(rng.Uniform(30));
    std::vector<std::vector<std::string>> matrix(rows);
    std::string content;
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        std::string field;
        size_t len = rng.Uniform(12);
        for (size_t i = 0; i < len; ++i) {
          field += alphabet[rng.Uniform(sizeof(alphabet) - 1)];
        }
        if (c > 0) content += ',';
        content += '"';
        for (char ch : field) {
          content += ch;
          if (ch == '"') content += '"';  // RFC 4180 escape
        }
        content += '"';
        matrix[r].push_back(std::move(field));
      }
      content += '\n';
    }
    std::string path = WriteTemp("csvquote", content);
    CsvOptions opts;
    opts.has_header = false;
    opts.infer_types = false;  // exact string identity, no numeric folding
    Table t;
    Status s = ReadCsv(path, opts, &t);
    if (rows == 0) {
      EXPECT_FALSE(s.ok());  // empty file
      continue;
    }
    ASSERT_TRUE(s.ok()) << s.ToString() << "\ninput:\n" << content;
    ASSERT_EQ(t.num_rows(), rows);
    ASSERT_EQ(t.num_columns(), cols);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        EXPECT_EQ(t.value(r, c), Value(matrix[r][c]))
            << "row " << r << " col " << c << "\ninput:\n" << content;
      }
    }
  }
}

// Unbalanced quotes and newlines in the same soup: the scanner must either
// load a consistent table or fail cleanly, never crash or hang.
TEST(ParserFuzz, RandomQuoteNewlineSoupNeverCrashes) {
  Random rng(506);
  const char alphabet[] = "\"\n\r,x";
  for (int trial = 0; trial < 200; ++trial) {
    std::string content;
    size_t len = rng.Uniform(200);
    for (size_t i = 0; i < len; ++i) {
      content += alphabet[rng.Uniform(sizeof(alphabet) - 1)];
    }
    std::string path = WriteTemp("csvsoup", content);
    Table t;
    Status s = ReadCsv(path, CsvOptions{}, &t);
    if (s.ok()) ExpectConsistent(t);
  }
  SUCCEED();
}

int FuzzIters() {
  const char* env = std::getenv("GORDIAN_FUZZ_ITERS");
  if (env != nullptr && *env != '\0') {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 3;
}

// Tokens at the edges of numeric inference (csv_test pins each one's type).
const char* const kEdgeTokens[] = {
    "9223372036854775807", "-9223372036854775808", "9223372036854775808",
    "-9223372036854775809", "123456789012345678", "-999999999999999999",
    "1234567890123456789", "12345678901234567890", "000123", "-0", "0",
    "+7", " 7", "7 ", "-", "--1", "1e500", "1e-310", "0x1F", "inf", "-inf",
    "nan", "NaN", "1.5", "-2.5E-3", ".5", "5.", "1e5", "-0.0", "0.0", "x"};

// One raw field value (before quoting). `plain` fields hold none of the
// bytes that would need quotes.
std::string RandomFuzzField(Random* rng, char delimiter, bool plain) {
  std::string f;
  switch (rng->Uniform(plain ? 6 : 7)) {
    case 0:
      return kEdgeTokens[rng->Uniform(sizeof(kEdgeTokens) /
                                      sizeof(kEdgeTokens[0]))];
    case 1: {  // 1-20 digits, maybe signed, maybe leading zeros
      if (rng->Uniform(3) == 0) f += '-';
      const uint64_t digits = 1 + rng->Uniform(20);
      for (uint64_t i = 0; i < digits; ++i) f += char('0' + rng->Uniform(10));
      return f;
    }
    case 2:  // small ints repeat, so the dictionaries see hits
      return std::to_string(rng->UniformRange(-5, 40));
    case 3:
      return std::to_string(rng->UniformRange(-99, 99)) + "." +
             std::to_string(rng->Uniform(1000));
    case 4:
      for (uint64_t n = rng->Uniform(5); n > 0; --n) {
        f += "ab "[rng->Uniform(3)];
      }
      return f;
    case 5:
      return f;  // empty: NULL under inference
    default: {
      const char special[] = {'a', '1', ' ', '"', '\n', '\r', delimiter};
      for (uint64_t n = rng->Uniform(8); n > 0; --n) {
        f += special[rng->Uniform(sizeof(special))];
      }
      return f;
    }
  }
}

struct CsvFuzzFile {
  std::string content;
  CsvOptions options;
};

// A random CSV file mixing plain and quoted records, LF, CRLF and bare CR,
// blank lines and embedded newlines; large files straddle the reader's
// 64 KiB refill and its 4096-row batches. Some files end inside a quote or
// carry one record of the wrong width.
CsvFuzzFile RandomCsvFile(Random* rng) {
  CsvFuzzFile out;
  out.options.delimiter = rng->Uniform(4) == 0 ? '\t' : ',';
  out.options.has_header = rng->Uniform(3) != 0;
  out.options.infer_types = rng->Uniform(4) != 0;
  out.options.encode_threads = rng->Uniform(4) == 0 ? 2 : 0;
  const char delim = out.options.delimiter;
  const int cols = 1 + static_cast<int>(rng->Uniform(8));
  int rows;
  switch (rng->Uniform(3)) {
    case 0:
      rows = static_cast<int>(rng->Uniform(20));
      break;
    case 1:
      rows = 50 + static_cast<int>(rng->Uniform(500));
      break;
    default:
      rows = 2000 + static_cast<int>(rng->Uniform(5000));
      break;
  }
  const uint64_t eol_style = rng->Uniform(3);  // LF, CRLF, mixed
  const int ragged_row =
      rng->Uniform(8) == 0 ? static_cast<int>(rng->Uniform(rows + 1)) : -1;
  const int records = rows + (out.options.has_header ? 1 : 0);
  std::string& s = out.content;
  for (int r = 0; r < records; ++r) {
    if (rng->Uniform(20) == 0) s += rng->Uniform(2) == 0 ? "\n" : "\r\n";
    const bool plain = rng->Uniform(2) == 0;
    int width = cols;
    if (r == ragged_row) width += (cols > 1 && rng->Uniform(2) == 0) ? -1 : 1;
    for (int c = 0; c < width; ++c) {
      if (c > 0) s += delim;
      std::string f = RandomFuzzField(rng, delim, plain);
      bool quote = !plain && (rng->Uniform(4) == 0 ||
                              f.find_first_of(std::string("\"\n\r") +
                                              delim) != std::string::npos);
      if (!quote) {
        if (rng->Uniform(40) == 0) f.insert(rng->Uniform(f.size() + 1), "\r");
        s += f;
        continue;
      }
      s += '"';
      for (char ch : f) {
        s += ch;
        if (ch == '"') s += '"';
      }
      s += '"';
    }
    if (r + 1 < records || rng->Uniform(2) == 0) {
      const bool crlf = eol_style == 1 || (eol_style == 2 && rng->Uniform(2));
      s += crlf ? "\r\n" : "\n";
    }
  }
  if (rng->Uniform(10) == 0) s += "\"open\n" + std::string(8, 'z');
  if (rng->Uniform(20) == 0) s += "\n\r\n";
  return out;
}

// Same type and, for doubles, the same bits: a dictionary keeps the first
// of -0.0 and 0.0, or of several NaNs, that it sees.
bool SameRepresentation(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() != ValueType::kDouble) return a == b;
  const double x = a.dbl();
  const double y = b.dbl();
  return std::memcmp(&x, &y, sizeof(x)) == 0;
}

void ExpectMatchesReference(const Table& t, const OracleCsvTable& want) {
  ASSERT_EQ(t.num_columns(), static_cast<int>(want.names.size()));
  ASSERT_EQ(t.num_rows(), want.num_rows);
  for (int c = 0; c < t.num_columns(); ++c) {
    EXPECT_EQ(t.schema().name(c), want.names[c]) << "column " << c;
    const Dictionary& dict = t.dictionary(c);
    const std::vector<Value>& values = want.dictionaries[c];
    ASSERT_EQ(dict.size(), values.size()) << "column " << c;
    for (uint32_t code = 0; code < dict.size(); ++code) {
      ASSERT_TRUE(SameRepresentation(dict.Decode(code), values[code]))
          << "column " << c << " code " << code << ": "
          << dict.Decode(code).ToString() << " vs " << values[code].ToString();
    }
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      ASSERT_EQ(t.code(r, c), want.codes[c][static_cast<size_t>(r)])
          << "column " << c << " row " << r;
    }
  }
}

// ReadCsv against the reference reader: the same table (names, dictionary
// values in code order, every code) or the same Status code and message.
// The quoted round-trip above never reaches an unquoted record, and the
// soups only check that nothing crashes.
TEST(ParserFuzz, ReadCsvMatchesReferenceReader) {
  Random rng(507);
  const int files = 40 * FuzzIters();
  int compared = 0;
  for (int trial = 0; trial < files; ++trial) {
    CsvFuzzFile f = RandomCsvFile(&rng);
    std::string path = WriteTemp("csvdiff", f.content);
    SCOPED_TRACE("trial " + std::to_string(trial) + ", " +
                 std::to_string(f.content.size()) + " bytes");
    Table t;
    Status got = ReadCsv(path, f.options, &t);
    OracleCsvTable want;
    Status expected = OracleReadCsv(path, f.options, &want);
    ASSERT_EQ(got.code(), expected.code()) << got.ToString();
    ASSERT_EQ(got.message(), expected.message());
    if (!got.ok()) continue;
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(t, want));
    ++compared;
  }
  EXPECT_GT(compared, files / 2);
}

TEST(ParserFuzz, RandomTagSoupNeverCrashesXml) {
  Random rng(503);
  const char* pieces[] = {"<",    ">",   "</",  "/>",  "a",    "bb",
                          "=",    "'x'", "\"y\"", " ",   "&lt;", "&bogus;",
                          "<!--", "-->", "<?",  "?>",  "7",    "text"};
  for (int trial = 0; trial < 150; ++trial) {
    std::string content;
    size_t len = rng.Uniform(60);
    for (size_t i = 0; i < len; ++i) {
      content += pieces[rng.Uniform(sizeof(pieces) / sizeof(pieces[0]))];
    }
    std::vector<Record> records;
    Status s = ParseXmlCollection(content, &records);
    if (s.ok()) {
      for (const Record& r : records) {
        for (const auto& [path, v] : r) {
          EXPECT_FALSE(path.empty());
          (void)v;
        }
      }
    }
  }
  SUCCEED();
}

TEST(ParserFuzz, MutatedValidXmlNeverCrashes) {
  std::string base = "<db>";
  for (int i = 0; i < 25; ++i) {
    base += "<p id='" + std::to_string(i) + "'><a>" + std::to_string(i % 5) +
            "</a><b>t" + std::to_string(i % 3) + "</b></p>";
  }
  base += "</db>";
  Random rng(504);
  for (int trial = 0; trial < 150; ++trial) {
    std::string mutated = base;
    int edits = 1 + static_cast<int>(rng.Uniform(4));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.Uniform(mutated.size());
      mutated[pos] = static_cast<char>(32 + rng.Uniform(95));
    }
    std::vector<Record> records;
    Status s = ParseXmlCollection(mutated, &records);
    (void)s;  // either outcome is fine; no crash is the property
  }
  SUCCEED();
}

TEST(ParserFuzz, DeeplyNestedXmlDoesNotOverflow) {
  // 2000 levels of nesting exercises the recursive parser's stack usage;
  // each frame is small, so this depth must be safe.
  std::string content = "<db><e>";
  for (int i = 0; i < 2000; ++i) content += "<n" + std::to_string(i) + ">";
  content += "1";
  for (int i = 1999; i >= 0; --i) content += "</n" + std::to_string(i) + ">";
  content += "</e></db>";
  std::vector<Record> records;
  Status s = ParseXmlCollection(content, &records);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].size(), 1u);
}

}  // namespace
}  // namespace gordian
