// Equivalence and memory properties of the columnar ingestion path: a
// table built from RowBatches (any batch size, serial or pooled encode)
// must be byte-identical — same dictionary code assignment, same report —
// to one built row-at-a-time, and the streaming reservoir's encoded rows
// must stay cheaper than the Value rows they replace.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/gordian.h"
#include "core/streaming.h"
#include "table/column_chunk.h"
#include "table/csv.h"
#include "table/table.h"

namespace gordian {
namespace {

// One canonical row set per flavor, as Values; both ingestion paths replay
// it in the same order.
std::vector<std::vector<Value>> MakeRows(const std::string& flavor,
                                         int64_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<std::vector<Value>> rows;
  rows.reserve(n);
  for (int64_t r = 0; r < n; ++r) {
    std::vector<Value> row;
    if (flavor == "null_heavy") {
      row.push_back(rng.Bernoulli(0.4) ? Value::Null()
                                       : Value(static_cast<int64_t>(
                                             rng.Uniform(50))));
      row.push_back(rng.Bernoulli(0.6) ? Value::Null()
                                       : Value("s" + std::to_string(
                                                         rng.Uniform(20))));
      row.push_back(Value(static_cast<int64_t>(r)));
    } else if (flavor == "string_heavy") {
      row.push_back(Value("name-" + std::to_string(rng.Uniform(300))));
      row.push_back(Value("city-" + std::to_string(rng.Uniform(40))));
      row.push_back(Value("tag" + std::to_string(r % 7) + "-" +
                          std::to_string(rng.Uniform(1000))));
    } else {  // mixed
      row.push_back(Value(static_cast<int64_t>(rng.Uniform(100))));
      row.push_back(Value(static_cast<double>(rng.Uniform(64)) * 0.25));
      row.push_back(rng.Bernoulli(0.1)
                        ? Value::Null()
                        : Value("w" + std::to_string(rng.Uniform(90))));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

Schema ThreeCols() {
  return Schema(std::vector<std::string>{"a", "b", "c"});
}

Table BuildRowAtATime(const std::vector<std::vector<Value>>& rows) {
  TableBuilder b(ThreeCols());
  for (const auto& row : rows) b.AddRow(row);
  return b.Build();
}

Table BuildBatched(const std::vector<std::vector<Value>>& rows,
                   int batch_rows, ThreadPool* pool) {
  TableBuilder b(ThreeCols());
  RowBatch batch(3);
  for (const auto& row : rows) {
    batch.AppendRow(row);
    if (batch.num_rows() >= batch_rows) {
      b.AddBatch(batch, pool);
      batch.Clear();
    }
  }
  if (batch.num_rows() > 0) b.AddBatch(batch, pool);
  return b.Build();
}

// Byte identity: not just equal values, the very same codes — the
// strongest statement that AddBatch is a drop-in for AddRow.
void ExpectIdenticalEncoding(const Table& want, const Table& got) {
  ASSERT_EQ(want.num_rows(), got.num_rows());
  ASSERT_EQ(want.num_columns(), got.num_columns());
  for (int c = 0; c < want.num_columns(); ++c) {
    EXPECT_EQ(want.column_codes(c), got.column_codes(c)) << "column " << c;
    ASSERT_EQ(want.dictionary(c).size(), got.dictionary(c).size());
    for (uint32_t code = 0; code < want.dictionary(c).size(); ++code) {
      EXPECT_EQ(want.dictionary(c).Decode(code),
                got.dictionary(c).Decode(code))
          << "column " << c << " code " << code;
    }
  }
}

class BatchIngestEquivalence
    : public ::testing::TestWithParam<std::string> {};

TEST_P(BatchIngestEquivalence, BatchSizesAndThreadsMatchRowPath) {
  const std::string flavor = GetParam();
  const auto rows = MakeRows(flavor, 3000, 91);
  const Table want = BuildRowAtATime(rows);

  ThreadPool pool(8);
  for (int batch_rows : {1, 2, 3, 7, 64, 1000, 4096, 5000}) {
    Table serial = BuildBatched(rows, batch_rows, nullptr);
    ExpectIdenticalEncoding(want, serial);
    Table threaded = BuildBatched(rows, batch_rows, &pool);
    ExpectIdenticalEncoding(want, threaded);
  }
}

TEST_P(BatchIngestEquivalence, ReportsIdentical) {
  const std::string flavor = GetParam();
  const auto rows = MakeRows(flavor, 1200, 92);
  Table row_table = BuildRowAtATime(rows);
  KeyDiscoveryResult row_result = FindKeys(row_table);
  ThreadPool pool(8);
  Table batch_table = BuildBatched(rows, 256, &pool);
  KeyDiscoveryResult batch_result = FindKeys(batch_table);
  ASSERT_EQ(row_result.keys.size(), batch_result.keys.size());
  for (size_t i = 0; i < row_result.keys.size(); ++i) {
    EXPECT_EQ(row_result.keys[i].attrs, batch_result.keys[i].attrs);
    EXPECT_DOUBLE_EQ(row_result.keys[i].estimated_strength,
                     batch_result.keys[i].estimated_strength);
  }
  EXPECT_EQ(row_result.non_keys, batch_result.non_keys);
  EXPECT_EQ(FormatResult(row_table, row_result),
            FormatResult(batch_table, batch_result));
}

INSTANTIATE_TEST_SUITE_P(Flavors, BatchIngestEquivalence,
                         ::testing::Values("null_heavy", "string_heavy",
                                           "mixed"));

TEST(BatchIngest, StreamingAddBatchMatchesAddRow) {
  const auto rows = MakeRows("mixed", 2500, 93);
  GordianOptions o;
  o.sample_rows = 300;
  o.sample_seed = 17;

  StreamingProfiler by_row(ThreeCols(), o);
  for (const auto& row : rows) by_row.AddRow(row);
  KeyDiscoveryResult want = by_row.Finish();

  StreamingProfiler by_batch(ThreeCols(), o);
  RowBatch batch(3);
  for (const auto& row : rows) {
    batch.AppendRow(row);
    if (batch.full()) {
      by_batch.AddBatch(batch);
      batch.Clear();
    }
  }
  if (batch.num_rows() > 0) by_batch.AddBatch(batch);
  KeyDiscoveryResult got = by_batch.Finish();

  // Identical PRNG draw sequence -> identical reservoir -> identical report.
  ASSERT_EQ(want.keys.size(), got.keys.size());
  for (size_t i = 0; i < want.keys.size(); ++i) {
    EXPECT_EQ(want.keys[i].attrs, got.keys[i].attrs);
    EXPECT_DOUBLE_EQ(want.keys[i].estimated_strength,
                     got.keys[i].estimated_strength);
  }
  EXPECT_EQ(want.non_keys, got.non_keys);
  EXPECT_EQ(want.sampled, got.sampled);
}

double NanWithPayload(uint64_t payload) {
  const uint64_t bits = 0x7ff8000000000000ull | payload;
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Every NaN is one value whatever its payload: all NaN cells of a column
// get one code, which keeps the first-seen NaN's bits, on the row path and
// on the batch path alike.
TEST(BatchIngest, NansWithDifferentPayloadsShareOneCode) {
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 6; ++i) {
    rows.push_back({Value(NanWithPayload(1 + i % 3)), Value(i),
                    Value(i % 2 == 0 ? 2.5 : NanWithPayload(7))});
  }
  const Table row_table = BuildRowAtATime(rows);
  const Table batch_table = BuildBatched(rows, 4, nullptr);
  ExpectIdenticalEncoding(row_table, batch_table);
  for (const Table* t : {&row_table, &batch_table}) {
    EXPECT_EQ(t->dictionary(0).size(), 1u);
    EXPECT_EQ(t->dictionary(2).size(), 2u);
    EXPECT_EQ(DoubleBits(t->dictionary(0).Decode(0).dbl()),
              DoubleBits(NanWithPayload(1)));
    EXPECT_EQ(t->code(1, 2), t->code(3, 2));
  }
}

TEST(BatchIngest, ReservoirMemoryStaysBoundedOnStringStream) {
  // A long string-heavy stream with bounded cardinality: the reservoir
  // holds k encoded rows (4 bytes per cell) against shared dictionaries,
  // so its footprint must stay far below the raw string rows it has seen,
  // and must not grow between half-stream and full-stream checkpoints by
  // more than the dictionaries can account for.
  const int64_t kRows = 20000;
  const int64_t kReservoir = 500;
  GordianOptions o;
  o.sample_rows = kReservoir;
  o.sample_seed = 3;
  StreamingProfiler profiler(ThreeCols(), o);

  Random rng(94);
  int64_t raw_bytes = 0;
  int64_t mid_bytes = 0;
  for (int64_t r = 0; r < kRows; ++r) {
    std::vector<Value> row = {
        Value("alpha-" + std::to_string(rng.Uniform(400))),
        Value("beta-" + std::to_string(rng.Uniform(400))),
        Value("gamma-" + std::to_string(rng.Uniform(400)))};
    for (const Value& v : row) raw_bytes += v.str().size();
    profiler.AddRow(row);
    if (r == kRows / 2) mid_bytes = profiler.ApproxBytes();
  }
  const int64_t end_bytes = profiler.ApproxBytes();

  // Bounded dictionaries (~400 distinct strings per column) + k code rows:
  // comfortably under the raw stream, with slack for hash slots/refcounts.
  EXPECT_LT(end_bytes, raw_bytes / 4);
  // Steady state: dictionary churn is compacted away, so the second half
  // of the stream must not inflate the footprint.
  EXPECT_LE(end_bytes, mid_bytes * 2);

  KeyDiscoveryResult r = profiler.Finish();
  EXPECT_TRUE(r.sampled);
  EXPECT_EQ(r.stats.rows_processed, kReservoir);
}

TEST(BatchIngest, ReservoirCompactionDropsDeadDictionaryEntries) {
  // A 1M-row stream of unique strings through a 10k-slot reservoir: once
  // the reservoir is full, each replacement kills one old code. Without
  // compaction the dictionary would hold all rows_seen strings (tens of
  // megabytes); with it, the footprint tracks the ~10k live entries.
  const int64_t kRows = 1000000;
  GordianOptions o;
  o.sample_rows = 10000;
  o.sample_seed = 8;
  Schema schema(std::vector<std::string>{"s"});
  StreamingProfiler profiler(schema, o);
  int64_t raw_bytes = 0;
  std::string cell;
  for (int64_t r = 0; r < kRows; ++r) {
    cell = "unique-entity-" + std::to_string(r);
    raw_bytes += static_cast<int64_t>(cell.size());
    profiler.AddRow({Value(cell)});
  }
  // ~20 MB of raw unique strings; the encoded reservoir stays within a
  // small multiple of the 10k live rows.
  EXPECT_GT(raw_bytes, 19 * 1000 * 1000);
  EXPECT_LT(profiler.ApproxBytes(), 4 * 1024 * 1024);
  KeyDiscoveryResult r = profiler.Finish();
  ASSERT_EQ(r.keys.size(), 1u);  // the unique column is a key of any sample
}

TEST(BatchIngest, CsvEncodeThreadsMatchSerial) {
  const auto rows = MakeRows("string_heavy", 2000, 95);
  Table t = BuildRowAtATime(rows);
  std::string path = ::testing::TempDir() + "gordian_batch_ingest.csv";
  ASSERT_TRUE(WriteCsv(t, CsvOptions{}, path).ok());

  Table serial;
  ASSERT_TRUE(ReadCsv(path, CsvOptions{}, &serial).ok());
  CsvOptions threaded_opts;
  threaded_opts.encode_threads = 8;
  Table threaded;
  ASSERT_TRUE(ReadCsv(path, threaded_opts, &threaded).ok());
  ExpectIdenticalEncoding(serial, threaded);
}

TEST(BatchIngest, ProfileCsvFileReportsIngestStats) {
  const auto rows = MakeRows("mixed", 1500, 96);
  Table t = BuildRowAtATime(rows);
  std::string path = ::testing::TempDir() + "gordian_ingest_stats.csv";
  ASSERT_TRUE(WriteCsv(t, CsvOptions{}, path).ok());

  KeyDiscoveryResult result;
  IngestStats stats;
  ASSERT_TRUE(ProfileCsvFile(path, CsvOptions{}, GordianOptions{}, &result,
                             &stats)
                  .ok());
  EXPECT_EQ(stats.rows, 1500);
  EXPECT_EQ(stats.batches, 1);  // 1500 rows fit one default batch
  EXPECT_GT(stats.bytes, 0);
}

}  // namespace
}  // namespace gordian
