// Unit tests for CSV reading/writing: quoting, type inference, error paths,
// and lossless round-trips.

#include "table/csv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/gordian.h"
#include "core/streaming.h"
#include "oracle/csv.h"

namespace gordian {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) {
    return ::testing::TempDir() + "gordian_csv_" + name;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream os(path);
    os << content;
  }
};

TEST_F(CsvTest, SplitBasic) {
  std::vector<std::string> fields;
  ASSERT_TRUE(SplitCsvRecord("a,b,,d", ',', &fields).ok());
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "b", "", "d"}));
}

TEST_F(CsvTest, SplitQuotedWithEmbeddedDelimiterAndQuotes) {
  std::vector<std::string> fields;
  ASSERT_TRUE(SplitCsvRecord("\"a,b\",\"he said \"\"hi\"\"\"", ',', &fields).ok());
  EXPECT_EQ(fields, (std::vector<std::string>{"a,b", "he said \"hi\""}));
}

TEST_F(CsvTest, SplitUnterminatedQuoteFails) {
  std::vector<std::string> fields;
  EXPECT_FALSE(SplitCsvRecord("\"oops", ',', &fields).ok());
}

TEST_F(CsvTest, ReadWithHeaderAndTypeInference) {
  std::string p = Path("infer.csv");
  WriteFile(p, "id,name,score\n1,alpha,1.5\n2,beta,\n3,07x,2\n");
  Table t;
  ASSERT_TRUE(ReadCsv(p, CsvOptions{}, &t).ok());
  EXPECT_EQ(t.num_rows(), 3);
  EXPECT_EQ(t.num_columns(), 3);
  EXPECT_EQ(t.schema().name(0), "id");
  EXPECT_EQ(t.value(0, 0), Value(int64_t{1}));
  EXPECT_EQ(t.value(0, 2), Value(1.5));
  EXPECT_TRUE(t.value(1, 2).is_null());     // empty field
  EXPECT_EQ(t.value(2, 1), Value("07x"));   // non-numeric stays string
  EXPECT_EQ(t.value(2, 2), Value(int64_t{2}));
}

TEST_F(CsvTest, ReadWithoutHeaderNamesColumns) {
  std::string p = Path("nohdr.csv");
  WriteFile(p, "1,2\n3,4\n");
  CsvOptions opts;
  opts.has_header = false;
  Table t;
  ASSERT_TRUE(ReadCsv(p, opts, &t).ok());
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.schema().name(0), "c0");
  EXPECT_EQ(t.schema().name(1), "c1");
}

TEST_F(CsvTest, ReadWithoutInferenceKeepsStrings) {
  std::string p = Path("str.csv");
  WriteFile(p, "a\n1\n");
  CsvOptions opts;
  opts.infer_types = false;
  Table t;
  ASSERT_TRUE(ReadCsv(p, opts, &t).ok());
  EXPECT_EQ(t.value(0, 0), Value("1"));
}

TEST_F(CsvTest, ReadRejectsRaggedRows) {
  std::string p = Path("ragged.csv");
  WriteFile(p, "a,b\n1,2\n3\n");
  Table t;
  Status s = ReadCsv(p, CsvOptions{}, &t);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

TEST_F(CsvTest, ReadMissingFileFails) {
  Table t;
  EXPECT_EQ(ReadCsv("/no/such/file.csv", CsvOptions{}, &t).code(),
            Status::Code::kIOError);
}

TEST_F(CsvTest, ReadEmptyFileFails) {
  std::string p = Path("empty.csv");
  WriteFile(p, "");
  Table t;
  EXPECT_FALSE(ReadCsv(p, CsvOptions{}, &t).ok());
}

TEST_F(CsvTest, ToleratesCrlfAndBlankLines) {
  std::string p = Path("crlf.csv");
  WriteFile(p, "a,b\r\n1,2\r\n\r\n3,4\r\n");
  Table t;
  ASSERT_TRUE(ReadCsv(p, CsvOptions{}, &t).ok());
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.value(1, 1), Value(int64_t{4}));
}

TEST_F(CsvTest, RoundTripPreservesValues) {
  TableBuilder b(Schema(std::vector<std::string>{"n", "s", "weird,name"}));
  b.AddRow({Value(int64_t{-3}), Value("plain"), Value("a,b")});
  b.AddRow({Value(int64_t{9}), Value("quote\"inside"), Value::Null()});
  Table t = b.Build();

  std::string p = Path("round.csv");
  ASSERT_TRUE(WriteCsv(t, CsvOptions{}, p).ok());
  Table back;
  ASSERT_TRUE(ReadCsv(p, CsvOptions{}, &back).ok());
  ASSERT_EQ(back.num_rows(), 2);
  EXPECT_EQ(back.schema().name(2), "weird,name");
  EXPECT_EQ(back.value(0, 0), Value(int64_t{-3}));
  EXPECT_EQ(back.value(0, 2), Value("a,b"));
  EXPECT_EQ(back.value(1, 1), Value("quote\"inside"));
  EXPECT_TRUE(back.value(1, 2).is_null());
}

TEST_F(CsvTest, QuotedFieldWithEmbeddedNewline) {
  // RFC 4180: a quoted field may span lines. The old per-line reader split
  // this record in two; the batch scanner must keep it whole.
  std::string p = Path("embednl.csv");
  WriteFile(p, "id,note\n1,\"line one\nline two\"\n2,plain\n");
  Table t;
  ASSERT_TRUE(ReadCsv(p, CsvOptions{}, &t).ok());
  ASSERT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.value(0, 1), Value("line one\nline two"));
  EXPECT_EQ(t.value(1, 1), Value("plain"));
}

TEST_F(CsvTest, QuotedFieldWithEmbeddedCrlfKeepsCarriageReturn) {
  // Outside quotes '\r' is stripped as part of CRLF handling; inside quotes
  // it is data.
  std::string p = Path("embedcrlf.csv");
  WriteFile(p, "a,b\r\n\"x\r\ny\",2\r\n");
  Table t;
  ASSERT_TRUE(ReadCsv(p, CsvOptions{}, &t).ok());
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.value(0, 0), Value("x\r\ny"));
}

TEST_F(CsvTest, EmbeddedNewlineRecordSpanningReadBuffers) {
  // A quoted field long enough to straddle the reader's 64 KiB refill
  // boundary, with newlines sprinkled through it.
  std::string big;
  for (int i = 0; i < 9000; ++i) {
    big += "word" + std::to_string(i);
    big += (i % 11 == 0) ? '\n' : ' ';
  }
  std::string p = Path("bigquote.csv");
  WriteFile(p, "a,b\n\"" + big + "\",7\n1,2\n");
  Table t;
  ASSERT_TRUE(ReadCsv(p, CsvOptions{}, &t).ok());
  ASSERT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.value(0, 0), Value(big));
  EXPECT_EQ(t.value(0, 1), Value(int64_t{7}));
}

TEST_F(CsvTest, UnterminatedQuoteAtEofFails) {
  std::string p = Path("unterm.csv");
  WriteFile(p, "a,b\n1,\"oops\nstill open");
  Table t;
  Status s = ReadCsv(p, CsvOptions{}, &t);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

TEST_F(CsvTest, EmbeddedNewlineRoundTrip) {
  TableBuilder b(Schema(std::vector<std::string>{"k", "text"}));
  b.AddRow({Value(int64_t{1}), Value("a\nb")});
  b.AddRow({Value(int64_t{2}), Value("c\r\nd,e\"f")});
  Table t = b.Build();
  std::string p = Path("nlround.csv");
  ASSERT_TRUE(WriteCsv(t, CsvOptions{}, p).ok());
  Table back;
  ASSERT_TRUE(ReadCsv(p, CsvOptions{}, &back).ok());
  ASSERT_EQ(back.num_rows(), 2);
  EXPECT_EQ(back.value(0, 1), Value("a\nb"));
  EXPECT_EQ(back.value(1, 1), Value("c\r\nd,e\"f"));
}

// Numeric inference at its edges: a field is an int64 when strtoll consumes
// all of it without overflow, else a double when strtod does without a
// range error, else a string. These pin that chain's answers token by token.
TEST_F(CsvTest, NumericInferenceEdges) {
  struct Case {
    std::string field;
    Value want;
  };
  const std::vector<Case> cases = {
      {"9223372036854775807", Value(int64_t{9223372036854775807})},
      {"-9223372036854775808", Value(std::numeric_limits<int64_t>::min())},
      {"9223372036854775808", Value(9223372036854775808.0)},
      {"-9223372036854775809", Value(-9223372036854775809.0)},
      {"123456789012345678", Value(int64_t{123456789012345678})},
      {"-123456789012345678", Value(int64_t{-123456789012345678})},
      {"999999999999999999", Value(int64_t{999999999999999999})},
      {"1234567890123456789", Value(int64_t{1234567890123456789})},
      {"-1234567890123456789", Value(int64_t{-1234567890123456789})},
      {"9999999999999999999", Value(9999999999999999999.0)},
      {"12345678901234567890", Value(12345678901234567890.0)},
      {"-12345678901234567890", Value(-12345678901234567890.0)},
      {"0000000000000000000000123", Value(int64_t{123})},
      {"000123", Value(int64_t{123})},
      {"-0", Value(int64_t{0})},
      {"+7", Value(int64_t{7})},
      {" 7", Value(int64_t{7})},
      {"7 ", Value("7 ")},
      {"-", Value("-")},
      {"--7", Value("--7")},
      {"1e500", Value("1e500")},
      {"1e-310", Value("1e-310")},
      {"0x1F", Value(31.0)},
      {"1.5", Value(1.5)},
      {"inf", Value(std::numeric_limits<double>::infinity())},
      {"\"42\"", Value(int64_t{42})},
  };
  std::string content = "v\n";
  for (const Case& c : cases) content += c.field + "\n";
  content += "nan\n";
  std::string p = Path("numeric_edges.csv");
  WriteFile(p, content);
  Table t;
  ASSERT_TRUE(ReadCsv(p, CsvOptions{}, &t).ok());
  ASSERT_EQ(t.num_rows(), static_cast<int64_t>(cases.size()) + 1);
  for (size_t r = 0; r < cases.size(); ++r) {
    const Value& got = t.value(static_cast<int64_t>(r), 0);
    EXPECT_EQ(got.type(), cases[r].want.type()) << cases[r].field;
    EXPECT_EQ(got, cases[r].want) << cases[r].field;
  }
  const Value& nan = t.value(static_cast<int64_t>(cases.size()), 0);
  ASSERT_EQ(nan.type(), ValueType::kDouble);
  EXPECT_TRUE(std::isnan(nan.dbl()));
}

// A string's length is a 24-bit field of its ColumnChunk word. A longer
// field used to fail that assert and abort the process (or, built with
// NDEBUG, load truncated); the reader refuses it, naming its line, whether
// it is quoted or unquoted and wherever it ends.
TEST_F(CsvTest, FieldOverTheChunkLimitIsInvalidArgument) {
  const size_t limit = ColumnChunk::kMaxStringBytes;
  ASSERT_EQ(limit, (size_t{1} << 24) - 1);
  std::string p = Path("longfield.csv");
  WriteFile(p, "a,b\n1,2\n" + std::string(limit, 'x') + ",1\n");
  Table t;
  ASSERT_TRUE(ReadCsv(p, CsvOptions{}, &t).ok());
  EXPECT_EQ(t.value(1, 0).str().size(), limit);
  EXPECT_EQ(t.value(1, 1), Value(int64_t{1}));

  const std::string over = std::string(limit + 1, 'x');
  const std::string message =
      ": field of 16777216 bytes; at most 16777215 are supported";
  WriteFile(p, "a,b\n1,2\n" + over + ",1\n");
  Status s = ReadCsv(p, CsvOptions{}, &t);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "line 3" + message);

  WriteFile(p, "a,b\n\n1,\"" + over + "\"");
  s = ReadCsv(p, CsvOptions{}, &t);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "line 3" + message);

  CsvOptions no_header;
  no_header.has_header = false;
  WriteFile(p, over + "\n");
  s = ReadCsv(p, no_header, &t);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "line 1" + message);

  KeyDiscoveryResult result;
  WriteFile(p, "a,b\n1,2\n" + over + ",1\n");
  s = ProfileCsvFile(p, CsvOptions{}, GordianOptions{}, &result);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "line 3" + message);
}

TEST_F(CsvTest, CustomDelimiter) {
  std::string p = Path("tsv.csv");
  WriteFile(p, "a\tb\n1\t2\n");
  CsvOptions opts;
  opts.delimiter = '\t';
  Table t;
  ASSERT_TRUE(ReadCsv(p, opts, &t).ok());
  EXPECT_EQ(t.num_columns(), 2);
  EXPECT_EQ(t.value(0, 1), Value(int64_t{2}));
}

// A CSV of `cols` columns and `rows` rows of distinct values.
std::string WideCsv(int cols, int rows) {
  std::string body;
  for (int c = 0; c < cols; ++c) {
    body += (c > 0 ? "," : "") + std::string("c") + std::to_string(c);
  }
  body += "\n";
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      body += (c > 0 ? "," : "") + std::to_string(r * cols + c);
    }
    body += "\n";
  }
  return body;
}

// Attribute sets hold AttributeSet::kMaxAttributes columns; a wider CSV
// used to load anyway, and profiling it wrote past the bitmap's end and
// reported 128 keys for 130 unique columns.
TEST_F(CsvTest, RejectsMoreColumnsThanAttributeSetsHold) {
  std::string p = Path("wide130.csv");
  WriteFile(p, WideCsv(130, 50));
  Table t;
  Status s = ReadCsv(p, CsvOptions{}, &t);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << s.ToString();

  CsvOptions no_header;
  no_header.has_header = false;
  s = ReadCsv(p, no_header, &t);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << s.ToString();

  std::string at_limit = Path("wide128.csv");
  WriteFile(at_limit, WideCsv(AttributeSet::kMaxAttributes, 50));
  ASSERT_TRUE(ReadCsv(at_limit, CsvOptions{}, &t).ok());
  EXPECT_EQ(t.num_columns(), AttributeSet::kMaxAttributes);
}

// NaN equals NaN, as NULL equals NULL: the two "nan" rows are duplicates,
// so no attribute set is a key, and the NaNs are one distinct value of a.
TEST_F(CsvTest, NanCellsAreOneValue) {
  std::string p = Path("nan.csv");
  WriteFile(p, "a,b\nnan,1\nnan,1\n2.5,3\n");
  Table t;
  ASSERT_TRUE(ReadCsv(p, CsvOptions{}, &t).ok());
  EXPECT_EQ(t.code(0, 0), t.code(1, 0));
  EXPECT_EQ(t.ColumnCardinality(0), 2);
  EXPECT_TRUE(FindKeys(t).no_keys);
}

TEST_F(CsvTest, TableBuilderRejectsMoreColumnsThanAttributeSetsHold) {
  std::vector<std::string> names;
  for (int c = 0; c < 130; ++c) names.push_back("c" + std::to_string(c));
  TableBuilder builder{Schema(names)};
  builder.AddRow(std::vector<Value>(130, Value(int64_t{1})));
  Table t;
  EXPECT_EQ(builder.Build(&t).code(), Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace gordian
