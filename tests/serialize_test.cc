// Tests for binary table persistence: lossless round-trips and graceful
// rejection of corrupt input (including randomized truncation/mutation).

#include "table/serialize.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/random.h"
#include "core/gordian.h"
#include "datagen/opic_like.h"
#include "table/fingerprint.h"

namespace gordian {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "gordian_ser_" + name;
}

Table MixedTable() {
  TableBuilder b(Schema(std::vector<std::string>{"i", "d", "s", "n"}));
  b.AddRow({Value(int64_t{-5}), Value(2.5), Value("alpha"), Value::Null()});
  b.AddRow({Value(int64_t{7}), Value(-0.125), Value(""), Value("x")});
  b.AddRow({Value(int64_t{7}), Value(2.5), Value("quote\"and,comma"),
            Value::Null()});
  return b.Build();
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (int c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.schema().name(c), b.schema().name(c));
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      EXPECT_EQ(a.value(r, c), b.value(r, c)) << "row " << r << " col " << c;
    }
  }
}

TEST(Serialize, RoundTripMixedTypes) {
  Table t = MixedTable();
  std::string path = TempPath("mixed.grdt");
  ASSERT_TRUE(WriteTableFile(t, path).ok());
  Table back;
  ASSERT_TRUE(ReadTableFile(path, &back).ok());
  ExpectTablesEqual(t, back);
}

TEST(Serialize, RoundTripEmptyTable) {
  TableBuilder b(Schema(std::vector<std::string>{"only"}));
  Table t = b.Build();
  std::string path = TempPath("empty.grdt");
  ASSERT_TRUE(WriteTableFile(t, path).ok());
  Table back;
  ASSERT_TRUE(ReadTableFile(path, &back).ok());
  EXPECT_EQ(back.num_rows(), 0);
  EXPECT_EQ(back.num_columns(), 1);
}

TEST(Serialize, RoundTripPreservesDiscoveredKeys) {
  Table t = GenerateOpicLike(2000, 12, 31);
  std::string path = TempPath("opic.grdt");
  ASSERT_TRUE(WriteTableFile(t, path).ok());
  Table back;
  ASSERT_TRUE(ReadTableFile(path, &back).ok());
  auto sorted = [](std::vector<AttributeSet> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(FindKeys(back).KeySets()), sorted(FindKeys(t).KeySets()));
}

TEST(Serialize, RejectsMissingFileAndBadMagic) {
  Table t;
  EXPECT_EQ(ReadTableFile("/no/such.grdt", &t).code(),
            Status::Code::kIOError);
  std::string path = TempPath("bad.grdt");
  {
    std::ofstream os(path, std::ios::binary);
    os << "NOPE the rest does not matter";
  }
  EXPECT_EQ(ReadTableFile(path, &t).code(), Status::Code::kInvalidArgument);
}

TEST(Serialize, RejectsTruncationAtEveryPrefix) {
  Table t = MixedTable();
  std::string path = TempPath("full.grdt");
  ASSERT_TRUE(WriteTableFile(t, path).ok());
  std::ifstream is(path, std::ios::binary);
  std::stringstream buffer;
  buffer << is.rdbuf();
  std::string bytes = buffer.str();
  ASSERT_GT(bytes.size(), 16u);

  // Every strict prefix must fail cleanly (never crash, never succeed).
  for (size_t len : {size_t{0}, size_t{3}, size_t{4}, size_t{9},
                     bytes.size() / 2, bytes.size() - 1}) {
    std::string trunc_path = TempPath("trunc.grdt");
    {
      std::ofstream os(trunc_path, std::ios::binary);
      os.write(bytes.data(), static_cast<std::streamsize>(len));
    }
    Table out;
    EXPECT_FALSE(ReadTableFile(trunc_path, &out).ok()) << "prefix " << len;
  }
}

TEST(Serialize, SurvivesRandomByteMutations) {
  // Fuzz-ish: flip bytes at random positions; the reader must either reject
  // the file or produce *some* table — it must never crash or hand out
  // out-of-range codes.
  Table t = GenerateOpicLike(300, 8, 32);
  std::string path = TempPath("mut_base.grdt");
  ASSERT_TRUE(WriteTableFile(t, path).ok());
  std::ifstream is(path, std::ios::binary);
  std::stringstream buffer;
  buffer << is.rdbuf();
  std::string base = buffer.str();

  Random rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    std::string mutated = base;
    int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      size_t pos = static_cast<size_t>(rng.Uniform(mutated.size()));
      mutated[pos] = static_cast<char>(rng.Next() & 0xFF);
    }
    std::string mpath = TempPath("mut.grdt");
    {
      std::ofstream os(mpath, std::ios::binary);
      os.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    Table out;
    Status s = ReadTableFile(mpath, &out);
    if (s.ok()) {
      // Whatever loaded must be internally consistent.
      for (int c = 0; c < out.num_columns(); ++c) {
        for (int64_t r = 0; r < out.num_rows(); ++r) {
          (void)out.value(r, c);  // must not crash / index out of range
        }
      }
    }
  }
  SUCCEED();
}

// Little-endian field writers for hand-built GRDT streams.
void PutU32(std::string* out, uint32_t v) {
  for (int b = 0; b < 4; ++b) out->push_back(static_cast<char>(v >> (8 * b)));
}
void PutU64(std::string* out, uint64_t v) {
  for (int b = 0; b < 8; ++b) out->push_back(static_cast<char>(v >> (8 * b)));
}

// A one-column GRDT header: magic, version, column count 1, `rows`, and
// the column name "a".
std::string OneColumnHeader(uint64_t rows) {
  std::string bytes = "GRDT";
  PutU32(&bytes, 1);
  PutU32(&bytes, 1);
  PutU64(&bytes, rows);
  PutU32(&bytes, 1);
  bytes += "a";
  return bytes;
}

Status ReadBytes(const std::string& bytes, Table* out) {
  const std::string path = TempPath("counts.grdt");
  {
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  return ReadTableFile(path, out);
}

TEST(Serialize, RejectsCountsTheBytesCannotHold) {
  // 2^40 rows passes the row cap, but the stream holds none of their codes:
  // it must be refused before a 4 TiB code vector is allocated.
  std::string rows = OneColumnHeader(uint64_t{1} << 40);
  PutU32(&rows, 1);   // dictionary size
  rows.push_back(1);  // int64 tag
  PutU64(&rows, 42);
  Table out;
  EXPECT_EQ(ReadBytes(rows, &out).code(), Status::Code::kInvalidArgument);

  // A dictionary of 2^32 - 1 values in a stream that ends after the count.
  std::string dict = OneColumnHeader(0);
  PutU32(&dict, UINT32_MAX);
  EXPECT_EQ(ReadBytes(dict, &out).code(), Status::Code::kInvalidArgument);
}

// Names, dictionaries in code order, codes, and fingerprint.
void ExpectSameEncoding(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.schema().name(c), b.schema().name(c));
    ASSERT_EQ(a.dictionary(c).size(), b.dictionary(c).size()) << "col " << c;
    for (uint32_t code = 0; code < a.dictionary(c).size(); ++code) {
      EXPECT_EQ(a.dictionary(c).Decode(code), b.dictionary(c).Decode(code));
    }
    EXPECT_EQ(a.column_codes(c), b.column_codes(c)) << "col " << c;
  }
  EXPECT_EQ(TableFingerprint(a), TableFingerprint(b));
}

TEST(Serialize, RoundTripKeepsSampleDictionariesAndCodes) {
  // A sample shares its parent's dictionaries, most of whose values no
  // sampled row uses.
  Table sample = GenerateOpicLike(1000, 6, 33).SampleRows(100, 5);
  std::string path = TempPath("sample.grdt");
  ASSERT_TRUE(WriteTableFile(sample, path).ok());
  Table back;
  ASSERT_TRUE(ReadTableFile(path, &back).ok());
  ExpectSameEncoding(sample, back);
  ExpectTablesEqual(sample, back);

  // Codes out of first-seen order, and a dictionary value no row uses.
  auto dict = std::make_shared<Dictionary>();
  for (const char* v : {"x", "y", "z", "unused"}) dict->Encode(Value(v));
  Table assembled =
      Table::FromColumns(Schema(std::vector<std::string>{"c"}), {dict},
                         {std::vector<uint32_t>{2, 0, 2, 1}});
  path = TempPath("assembled.grdt");
  ASSERT_TRUE(WriteTableFile(assembled, path).ok());
  ASSERT_TRUE(ReadTableFile(path, &back).ok());
  ExpectSameEncoding(assembled, back);
}

}  // namespace
}  // namespace gordian
