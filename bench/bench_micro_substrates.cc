// google-benchmark micro suite for the substrates around the core: table
// construction and distinct counting, CSV and binary I/O throughput,
// sampling, the query engine's scan/lookup paths, and foreign-key
// discovery. Complements bench_micro_gordian (which covers the core).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/foreign_key.h"
#include "core/gordian.h"
#include "datagen/tpch_lite.h"
#include "engine/executor.h"
#include "engine/index.h"
#include "engine/row_store.h"
#include "oracle/csv.h"
#include "table/csv.h"
#include "table/serialize.h"

namespace gordian {
namespace {

std::string TempPath(const char* name) {
  return std::string("/tmp/gordian_bench_") + name;
}

Table& Fact() {
  static Table t = GenerateTpchFact(100000, 1001);
  return t;
}

void BM_TableBuilderAppend(benchmark::State& state) {
  const Table& src = Fact();
  std::vector<std::vector<Value>> rows;
  for (int64_t r = 0; r < 5000; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < src.num_columns(); ++c) row.push_back(src.value(r, c));
    rows.push_back(std::move(row));
  }
  for (auto _ : state) {
    TableBuilder b(src.schema());
    for (const auto& row : rows) b.AddRow(row);
    Table t = b.Build();
    benchmark::DoNotOptimize(t.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_TableBuilderAppend);

void BM_DistinctCountSortVsHash(benchmark::State& state) {
  Table& t = Fact();
  AttributeSet attrs{1, 2, 4};
  const bool hash = state.range(0) == 1;
  for (auto _ : state) {
    int64_t d = hash ? t.DistinctCountFast(attrs) : t.DistinctCount(attrs);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_DistinctCountSortVsHash)->Arg(0)->Arg(1);

void BM_CsvWriteRead(benchmark::State& state) {
  Table t = GenerateTpchFact(20000, 1002);
  std::string path = TempPath("io.csv");
  for (auto _ : state) {
    benchmark::DoNotOptimize(WriteCsv(t, CsvOptions{}, path).ok());
    Table back;
    benchmark::DoNotOptimize(ReadCsv(path, CsvOptions{}, &back).ok());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_CsvWriteRead);

void BM_BinaryWriteRead(benchmark::State& state) {
  Table t = GenerateTpchFact(20000, 1003);
  std::string path = TempPath("io.grdt");
  for (auto _ : state) {
    benchmark::DoNotOptimize(WriteTableFile(t, path).ok());
    Table back;
    benchmark::DoNotOptimize(ReadTableFile(path, &back).ok());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_BinaryWriteRead);

void BM_SampleRows(benchmark::State& state) {
  Table& t = Fact();
  uint64_t seed = 0;
  for (auto _ : state) {
    Table s = t.SampleRows(t.num_rows() / 10, ++seed);
    benchmark::DoNotOptimize(s.num_rows());
  }
}
BENCHMARK(BM_SampleRows);

void BM_IndexBuild(benchmark::State& state) {
  Table& t = Fact();
  RowStore store(t);
  std::vector<int> cols = {t.schema().Find("f_orderkey"),
                           t.schema().Find("f_linenumber")};
  for (auto _ : state) {
    CompositeIndex idx(t, store, cols);
    benchmark::DoNotOptimize(idx.num_entries());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_IndexBuild);

void BM_ScanVsIndexLookup(benchmark::State& state) {
  Table& t = Fact();
  static RowStore store(t);
  static CompositeIndex idx(t, store,
                            {t.schema().Find("f_orderkey"),
                             t.schema().Find("f_linenumber")});
  Query q;
  q.predicates = {{t.schema().Find("f_orderkey"),
                   t.code(123, t.schema().Find("f_orderkey"))}};
  q.projection = {t.schema().Find("f_quantity")};
  const bool use_index = state.range(0) == 1;
  for (auto _ : state) {
    QueryResult r = use_index ? ExecuteWithIndex(t, store, idx, q)
                              : ExecuteScan(t, store, q);
    benchmark::DoNotOptimize(r.rows_matched);
  }
}
BENCHMARK(BM_ScanVsIndexLookup)->Arg(0)->Arg(1);

void BM_ForeignKeyDiscovery(benchmark::State& state) {
  static auto db = GenerateTpchLite(0.002, 1004);
  static std::vector<ProfiledTable> tables = [] {
    std::vector<ProfiledTable> out;
    static std::vector<KeyDiscoveryResult> results;
    results.reserve(db.size());
    for (auto& nt : db) {
      results.push_back(FindKeys(nt.table));
      out.push_back({nt.name, &nt.table, results.back().KeySets()});
    }
    return out;
  }();
  ForeignKeyOptions opts;
  opts.min_distinct_values = 20;
  for (auto _ : state) {
    auto fks = DiscoverForeignKeys(tables, opts);
    benchmark::DoNotOptimize(fks.size());
  }
}
BENCHMARK(BM_ForeignKeyDiscovery);

// --- Encode throughput: row-at-a-time vs columnar batches ----------------
//
// A string-heavy workload (the dictionary-encode worst case: every probe
// hashes bytes) generated once and replayed either as std::vector<Value>
// rows through AddRow or as RowBatches through AddBatch. "Cold" builds a
// fresh TableBuilder per iteration (every first occurrence inserts);
// "warm" reuses one builder so every probe is a hit.

constexpr int64_t kEncodeRows = 50000;
constexpr int kEncodeCols = 8;

Schema EncodeSchema() {
  std::vector<std::string> names;
  for (int c = 0; c < kEncodeCols; ++c) names.push_back("s" + std::to_string(c));
  return Schema(names);
}

std::string EncodeCell(int c, uint64_t rank) {
  // Long enough to defeat small-string optimization: string-heavy means
  // every row-at-a-time field costs real allocations.
  return "column" + std::to_string(c) + "-payload-entity-" +
         std::to_string(rank) + "-suffix";
}

uint64_t EncodeRank(Random& rng, int c) {
  // Mixed cardinalities so some columns rehash a lot and some barely.
  const uint64_t card = uint64_t{64} << (2 * (c % 4));
  return rng.Uniform(card);
}

const std::vector<std::vector<Value>>& EncodeRowData() {
  static const std::vector<std::vector<Value>> rows = [] {
    Random rng(2024);
    std::vector<std::vector<Value>> out;
    out.reserve(kEncodeRows);
    for (int64_t r = 0; r < kEncodeRows; ++r) {
      std::vector<Value> row;
      for (int c = 0; c < kEncodeCols; ++c) {
        row.emplace_back(EncodeCell(c, EncodeRank(rng, c)));
      }
      out.push_back(std::move(row));
    }
    return out;
  }();
  return rows;
}

const std::vector<RowBatch>& EncodeBatchData() {
  static const std::vector<RowBatch> batches = [] {
    // Same draw sequence as EncodeRowData, packed into full RowBatches.
    Random rng(2024);
    std::vector<RowBatch> out;
    RowBatch batch(kEncodeCols);
    for (int64_t r = 0; r < kEncodeRows; ++r) {
      for (int c = 0; c < kEncodeCols; ++c) {
        batch.column(c).AppendString(EncodeCell(c, EncodeRank(rng, c)));
      }
      if (batch.full()) {
        out.push_back(std::move(batch));
        batch = RowBatch(kEncodeCols);
      }
    }
    if (batch.num_rows() > 0) out.push_back(std::move(batch));
    return out;
  }();
  return batches;
}

void BM_EncodeRowAtATime(benchmark::State& state) {
  const auto& rows = EncodeRowData();
  for (auto _ : state) {
    TableBuilder b(EncodeSchema());
    for (const auto& row : rows) b.AddRow(row);
    benchmark::DoNotOptimize(b.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * kEncodeRows);
}
BENCHMARK(BM_EncodeRowAtATime);

void BM_EncodeBatchCold(benchmark::State& state) {
  const auto& batches = EncodeBatchData();
  const int threads = static_cast<int>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  for (auto _ : state) {
    TableBuilder b(EncodeSchema());
    for (const RowBatch& batch : batches) b.AddBatch(batch, pool.get());
    benchmark::DoNotOptimize(b.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * kEncodeRows);
}
BENCHMARK(BM_EncodeBatchCold)->Arg(1)->Arg(4)->Arg(8);

void BM_EncodeBatchWarm(benchmark::State& state) {
  // Warm dictionaries, fresh code vectors: every probe is a hit, no
  // inserts, no code-vector growth — the steady-state encode cost.
  const auto& batches = EncodeBatchData();
  std::vector<Dictionary> dicts(kEncodeCols);
  std::vector<uint32_t> codes;
  for (const RowBatch& batch : batches) {
    for (int c = 0; c < kEncodeCols; ++c) {
      codes.clear();
      dicts[c].EncodeBatch(batch.column(c), &codes);
    }
  }
  for (auto _ : state) {
    for (const RowBatch& batch : batches) {
      for (int c = 0; c < kEncodeCols; ++c) {
        codes.clear();
        dicts[c].EncodeBatch(batch.column(c), &codes);
      }
    }
    benchmark::DoNotOptimize(codes.data());
  }
  state.SetItemsProcessed(state.iterations() * kEncodeRows);
}
BENCHMARK(BM_EncodeBatchWarm);

// --- BENCH_encode.json ----------------------------------------------------
//
// CSV-to-table ingest throughput for CI trend tracking: the retired
// row-at-a-time path (getline + SplitCsvRecord + ParseCsvField + AddRow,
// reconstructed here as the baseline) against the batch reader at 1/4/8
// encode threads, plus the in-memory cold/warm AddBatch figures.

struct EncodeSample {
  double best_seconds = 0;
  int64_t rows = 0;
};

double BestSeconds(double best, double secs) {
  return best == 0 || secs < best ? secs : best;
}

// The pre-batch ReadCsv, byte-for-byte: one getline per record, split,
// infer each field, append a row of Values.
EncodeSample ReadCsvRowAtATime(const std::string& path, int reps) {
  EncodeSample sample;
  for (int i = 0; i < reps; ++i) {
    Stopwatch watch;
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    std::vector<std::string> names;
    (void)SplitCsvRecord(line, ',', &names);
    TableBuilder b{Schema(names)};
    std::vector<std::string> fields;
    std::vector<Value> row;
    while (std::getline(in, line)) {
      if (line.empty() || line == "\r") continue;
      (void)SplitCsvRecord(line, ',', &fields);
      row.clear();
      for (const std::string& f : fields) row.push_back(ParseCsvField(f, true));
      b.AddRow(row);
    }
    Table t = b.Build();
    sample.best_seconds = BestSeconds(sample.best_seconds, watch.ElapsedSeconds());
    sample.rows = t.num_rows();
  }
  return sample;
}

EncodeSample ReadCsvBatched(const std::string& path, int threads, int reps) {
  EncodeSample sample;
  CsvOptions options;
  options.encode_threads = threads;
  for (int i = 0; i < reps; ++i) {
    Stopwatch watch;
    Table t;
    Status s = ReadCsv(path, options, &t);
    if (!s.ok()) std::cerr << s.ToString() << "\n";
    sample.best_seconds = BestSeconds(sample.best_seconds, watch.ElapsedSeconds());
    sample.rows = t.num_rows();
  }
  return sample;
}

// Cold: a fresh TableBuilder per rep (first-seen inserts included). Warm:
// pre-populated dictionaries, fresh code vectors (pure probe-hit cost).
EncodeSample AddBatchSample(bool warm, int threads, int reps) {
  const auto& batches = EncodeBatchData();
  EncodeSample sample;
  sample.rows = kEncodeRows;
  if (warm) {
    std::vector<Dictionary> dicts(kEncodeCols);
    std::vector<uint32_t> codes;
    for (const RowBatch& batch : batches) {
      for (int c = 0; c < kEncodeCols; ++c) {
        codes.clear();
        dicts[c].EncodeBatch(batch.column(c), &codes);
      }
    }
    for (int i = 0; i < reps; ++i) {
      Stopwatch watch;
      for (const RowBatch& batch : batches) {
        for (int c = 0; c < kEncodeCols; ++c) {
          codes.clear();
          dicts[c].EncodeBatch(batch.column(c), &codes);
        }
      }
      sample.best_seconds =
          BestSeconds(sample.best_seconds, watch.ElapsedSeconds());
    }
    return sample;
  }
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  for (int i = 0; i < reps; ++i) {
    TableBuilder b(EncodeSchema());
    Stopwatch watch;
    for (const RowBatch& batch : batches) b.AddBatch(batch, pool.get());
    sample.best_seconds =
        BestSeconds(sample.best_seconds, watch.ElapsedSeconds());
  }
  return sample;
}

void WriteSample(std::ostream& os, const char* indent, const EncodeSample& s,
                 double baseline_seconds) {
  os << "{\"wall_seconds\": " << s.best_seconds << ", \"rows_per_sec\": "
     << (s.best_seconds > 0 ? static_cast<double>(s.rows) / s.best_seconds : 0);
  if (baseline_seconds > 0 && s.best_seconds > 0) {
    os << ", \"speedup_vs_row\": " << baseline_seconds / s.best_seconds;
  }
  os << "}";
  (void)indent;
}

void WriteEncodeJson() {
  const char* env_path = std::getenv("GORDIAN_BENCH_JSON");
  const std::string path =
      (env_path != nullptr && *env_path != '\0') ? env_path
                                                 : "BENCH_encode.json";
  constexpr int kReps = 3;

  // String-heavy CSV: every column a synthetic token, no inferable numerics.
  const std::string csv_path = TempPath("encode.csv");
  {
    Random rng(77);
    std::ofstream os(csv_path);
    for (int c = 0; c < kEncodeCols; ++c) os << (c ? ",s" : "s") << c;
    os << "\n";
    for (int64_t r = 0; r < kEncodeRows; ++r) {
      for (int c = 0; c < kEncodeCols; ++c) {
        if (c) os << ',';
        os << EncodeCell(c, EncodeRank(rng, c));
      }
      os << "\n";
    }
  }

  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  const EncodeSample row = ReadCsvRowAtATime(csv_path, kReps);
  os << "{\n"
     << "  \"benchmark\": \"encode_throughput\",\n"
     << "  \"rows\": " << row.rows << ",\n"
     << "  \"columns\": " << kEncodeCols << ",\n"
     << "  \"reps\": " << kReps << ",\n"
     << "  \"csv_string_heavy\": {\n"
     << "    \"row_at_a_time\": ";
  WriteSample(os, "    ", row, 0);
  os << ",\n    \"batch\": [\n";
  const int thread_counts[] = {1, 4, 8};
  for (size_t i = 0; i < 3; ++i) {
    const EncodeSample b = ReadCsvBatched(csv_path, thread_counts[i], kReps);
    os << "      {\"encode_threads\": " << thread_counts[i] << ", \"sample\": ";
    WriteSample(os, "", b, row.best_seconds);
    os << "}" << (i + 1 < 3 ? "," : "") << "\n";
  }
  os << "    ]\n  },\n"
     << "  \"in_memory_add_batch\": {\n"
     << "    \"cold\": [\n";
  for (size_t i = 0; i < 3; ++i) {
    const EncodeSample c = AddBatchSample(false, thread_counts[i], kReps);
    os << "      {\"encode_threads\": " << thread_counts[i] << ", \"sample\": ";
    WriteSample(os, "", c, 0);
    os << "}" << (i + 1 < 3 ? "," : "") << "\n";
  }
  const EncodeSample warm = AddBatchSample(true, 1, kReps);
  os << "    ],\n    \"warm\": ";
  WriteSample(os, "    ", warm, 0);
  os << "\n  }\n}\n";
  std::cout << "wrote " << path << "\n";
  std::remove(csv_path.c_str());
}

}  // namespace
}  // namespace gordian

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  gordian::WriteEncodeJson();
  return 0;
}
