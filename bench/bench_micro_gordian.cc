// google-benchmark micro suite: the hot operations of the GORDIAN core
// (prefix-tree construction in both modes, NonKeySet maintenance,
// attribute-set algebra, distinct counting, warm frozen traversal,
// incremental appends) plus attribute-ordering ablations of the full
// pipeline. Besides the usual benchmark output, main() writes a
// machine-readable summary to BENCH_kernel.json (path overridable via
// GORDIAN_BENCH_JSON) for CI trend tracking.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/attribute_set.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/frozen_tree.h"
#include "core/gordian.h"
#include "core/incremental.h"
#include "core/non_key_set.h"
#include "core/pipeline.h"
#include "core/prefix_tree.h"
#include "datagen/opic_like.h"
#include "datagen/synthetic.h"
#include "table/column_chunk.h"

namespace gordian {
namespace {

Table& SharedTable(int64_t rows, int attrs) {
  static Table t10k = GenerateOpicLike(10000, 16, 901);
  static Table t50k = GenerateOpicLike(50000, 16, 902);
  static Table t10k_wide = GenerateOpicLike(10000, 40, 903);
  if (attrs >= 40) return t10k_wide;
  return rows >= 50000 ? t50k : t10k;
}

std::vector<int> SchemaOrder(const Table& t) {
  std::vector<int> order(t.num_columns());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  return order;
}

void BM_PrefixTreeBuildSorted(benchmark::State& state) {
  Table& t = SharedTable(state.range(0), 16);
  auto order = SchemaOrder(t);
  for (auto _ : state) {
    PrefixTree tree =
        PrefixTree::Build(t, order, GordianOptions::TreeBuild::kSorted);
    benchmark::DoNotOptimize(tree.root());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_PrefixTreeBuildSorted)->Arg(10000)->Arg(50000);

void BM_PrefixTreeBuildInsertion(benchmark::State& state) {
  Table& t = SharedTable(state.range(0), 16);
  auto order = SchemaOrder(t);
  for (auto _ : state) {
    PrefixTree tree =
        PrefixTree::Build(t, order, GordianOptions::TreeBuild::kInsertion);
    benchmark::DoNotOptimize(tree.root());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_PrefixTreeBuildInsertion)->Arg(10000)->Arg(50000);

void BM_NonKeySetInsert(benchmark::State& state) {
  // A worst-case-ish stream: random incomparable sets.
  std::vector<AttributeSet> stream;
  Random rng(77);
  for (int i = 0; i < 256; ++i) {
    AttributeSet s;
    for (int a = 0; a < 32; ++a) {
      if (rng.Bernoulli(0.3)) s.Set(a);
    }
    stream.push_back(s);
  }
  for (auto _ : state) {
    NonKeySet set;
    for (const AttributeSet& s : stream) set.Insert(s);
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_NonKeySetInsert);

void BM_AttributeSetCovers(benchmark::State& state) {
  std::vector<AttributeSet> sets;
  Random rng(78);
  for (int i = 0; i < 1024; ++i) {
    AttributeSet s;
    for (int a = 0; a < 66; ++a) {
      if (rng.Bernoulli(0.4)) s.Set(a);
    }
    sets.push_back(s);
  }
  size_t i = 0;
  for (auto _ : state) {
    bool c = sets[i % 1024].Covers(sets[(i * 7 + 3) % 1024]);
    benchmark::DoNotOptimize(c);
    ++i;
  }
}
BENCHMARK(BM_AttributeSetCovers);

void BM_DistinctCount(benchmark::State& state) {
  Table& t = SharedTable(50000, 16);
  AttributeSet attrs{0, 3, 7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.DistinctCount(attrs));
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_DistinctCount);

void BM_FindKeysEndToEnd(benchmark::State& state) {
  Table& t = SharedTable(state.range(0), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    KeyDiscoveryResult r = FindKeys(t);
    benchmark::DoNotOptimize(r.keys.size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_FindKeysEndToEnd)
    ->Args({10000, 16})
    ->Args({50000, 16})
    ->Args({10000, 40});

// Ablation: the attribute-ordering heuristic of Section 3.2.1.
void BM_FindKeysOrdering(benchmark::State& state) {
  Table& t = SharedTable(10000, 40);
  GordianOptions o;
  switch (state.range(0)) {
    case 0: o.attribute_order = GordianOptions::AttributeOrder::kSchema; break;
    case 1:
      o.attribute_order = GordianOptions::AttributeOrder::kCardinalityDesc;
      break;
    case 2:
      o.attribute_order = GordianOptions::AttributeOrder::kCardinalityAsc;
      break;
    default:
      o.attribute_order = GordianOptions::AttributeOrder::kRandom;
      o.order_seed = 5;
      break;
  }
  for (auto _ : state) {
    KeyDiscoveryResult r = FindKeys(t, o);
    benchmark::DoNotOptimize(r.keys.size());
  }
}
BENCHMARK(BM_FindKeysOrdering)
    ->Arg(0)  // schema
    ->Arg(1)  // cardinality desc (paper heuristic)
    ->Arg(2)  // cardinality asc
    ->Arg(3);  // random

Table MakeSliceHeavyTable();  // defined with the JSON helpers below

// Warm traversal (the tree-cache-hit shape): the tree and its flat layout
// already exist; each iteration pays only the non-key search, exactly like
// a service job hitting the TreeArtifactCache.
void BM_TraverseWarm(benchmark::State& state) {
  static Table t = MakeSliceHeavyTable();
  static PrefixTree tree =
      PrefixTree::Build(t, SchemaOrder(t), GordianOptions::TreeBuild::kSorted);
  static std::unique_ptr<FrozenTree> frozen = FrozenTree::Freeze(tree);
  GordianOptions o;
  for (auto _ : state) {
    GordianStats stats;
    NonKeySet set(&stats);
    FrozenNonKeyFinder finder(*frozen, o, &set, &stats);
    benchmark::DoNotOptimize(finder.Run());
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_TraverseWarm);

// Rows [begin, end) of `t` re-materialised as a RowBatch — the append-side
// input format.
RowBatch TableSliceToBatch(const Table& t, int64_t begin, int64_t end) {
  RowBatch batch(t.num_columns());
  std::vector<Value> row(static_cast<size_t>(t.num_columns()));
  for (int64_t r = begin; r < end; ++r) {
    for (int c = 0; c < t.num_columns(); ++c)
      row[static_cast<size_t>(c)] = t.value(r, c);
    batch.AppendRow(row);
  }
  return batch;
}

// Slice-heavy uniform data at an arbitrary size (seed varies with the size
// so every table is a fresh draw, not a prefix of another).
Table MakeUniformTable(int64_t rows, uint64_t seed) {
  SyntheticSpec spec = UniformSpec(8, rows, 32, 0.3, seed);
  spec.ensure_unique_rows = true;
  Table t;
  Status s = GenerateSynthetic(spec, &t);
  if (!s.ok()) std::cerr << s.ToString() << "\n";
  return t;
}

// Per-batch cost of the continuous-profiling loop: absorb a 512-row delta
// into the standing tree and re-traverse warm-started from the previous
// non-keys. Each iteration appends a distinct slice of a pregenerated pool,
// so the table grows exactly as it would in production; iterations are
// capped so the pool is never recycled (re-appending identical rows would
// fabricate duplicate entities and short-circuit discovery).
void BM_IncrementalAppend(benchmark::State& state) {
  const int64_t base_rows = state.range(0);
  Table base = MakeUniformTable(base_rows, 906 + static_cast<uint64_t>(
                                                     base_rows));
  Table pool = MakeUniformTable(4096, 917);
  IncrementalProfiler prof;
  Status s = IncrementalProfiler::Begin(base, GordianOptions(), &prof);
  if (!s.ok()) {
    state.SkipWithError(s.ToString().c_str());
    return;
  }
  int64_t off = 0;
  for (auto _ : state) {
    state.PauseTiming();
    RowBatch delta = TableSliceToBatch(pool, off, off + 512);
    off += 512;
    state.ResumeTiming();
    s = prof.Append(delta);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  state.counters["rows"] = static_cast<double>(prof.num_rows());
}
BENCHMARK(BM_IncrementalAppend)
    ->Arg(5000)
    ->Arg(20000)
    ->Iterations(8);

// One timed FindKeys configuration for the JSON summary: best wall time of
// `reps` runs plus the reported peak bytes of the last run.
struct KernelSample {
  double best_seconds = 0;
  int64_t peak_bytes = 0;
  size_t num_keys = 0;
};

KernelSample MeasureFindKeys(const Table& t, int reps) {
  KernelSample sample;
  for (int i = 0; i < reps; ++i) {
    Stopwatch watch;
    KeyDiscoveryResult r = FindKeys(t);
    const double secs = watch.ElapsedSeconds();
    if (i == 0 || secs < sample.best_seconds) sample.best_seconds = secs;
    sample.peak_bytes = r.stats.peak_memory_bytes;
    sample.num_keys = r.keys.size();
  }
  return sample;
}

// A table whose traversal work lives inside the top-level slices (moderate
// cardinality everywhere). OPIC-like data puts a near-unique column at the
// root under the default ordering, which single-entity-prunes every slice
// and leaves the root merge as the bulk of the work — worth measuring too.
Table MakeSliceHeavyTable() { return MakeUniformTable(20000, 906); }

// One dataset's FindKeys figures plus its warm traversal: the tree and its
// flat layout prebuilt (the tree-cache-hit shape), best-of-`reps` wall time
// of FrozenNonKeyFinder::Run, the freeze pass's one-time cost, and the flat
// layout's footprint.
void WriteDatasetJson(std::ostream& os, const std::string& name,
                      const Table& t, int reps) {
  const KernelSample full = MeasureFindKeys(t, reps);
  PrefixTree tree =
      PrefixTree::Build(t, SchemaOrder(t), GordianOptions::TreeBuild::kSorted);
  Stopwatch freeze_watch;
  std::unique_ptr<FrozenTree> frozen = FrozenTree::Freeze(tree);
  const double freeze_seconds = freeze_watch.ElapsedSeconds();
  double warm_seconds = 0;
  for (int i = 0; i < reps; ++i) {
    GordianOptions o;
    GordianStats stats;
    NonKeySet set(&stats);
    FrozenNonKeyFinder finder(*frozen, o, &set, &stats);
    Stopwatch watch;
    finder.Run();
    const double secs = watch.ElapsedSeconds();
    if (i == 0 || secs < warm_seconds) warm_seconds = secs;
  }
  os << "    {\"name\": \"" << name << "\", \"rows\": " << t.num_rows()
     << ", \"attributes\": " << t.num_columns() << ",\n"
     << "     \"find_keys\": {\"wall_seconds\": " << full.best_seconds
     << ", \"peak_bytes\": " << full.peak_bytes
     << ", \"keys\": " << full.num_keys << "},\n"
     << "     \"warm_traversal_wall_seconds\": " << warm_seconds
     << ", \"freeze_wall_seconds\": " << freeze_seconds
     << ", \"frozen_bytes\": " << frozen->ApproxBytes()
     << ", \"bytes_per_node\": " << frozen->BytesPerNode()
     << ", \"nodes\": " << frozen->node_count() << "}";
}

// Append-vs-full grid: per-batch latency of the incremental path (absorb
// the delta into the standing tree, then a warm-started re-traversal)
// against a from-scratch FindKeys over the concatenated table. Read along
// base_rows at fixed delta_rows for the sublinear-in-table-size trend, and
// along delta_rows at fixed base_rows for the ~linear-in-delta trend.
void WriteAppendVsFullJson(std::ostream& os, int reps) {
  const int64_t base_sizes[] = {5000, 20000, 50000};
  const int64_t delta_sizes[] = {128, 512, 2048};
  Table pool = MakeUniformTable(3 * 2048, 917);
  os << "   \"config\": \"append: IncrementalProfiler::Append (frozen-tree "
        "absorb + warm re-traversal); full: from-scratch FindKeys on the "
        "concatenated table; best of reps\",\n"
     << "   \"dataset\": \"uniform_8attr_card32_unique_rows\",\n"
     << "   \"points\": [\n";
  bool first = true;
  for (int64_t base_rows : base_sizes) {
    Table base =
        MakeUniformTable(base_rows, 906 + static_cast<uint64_t>(base_rows));
    for (int64_t delta_rows : delta_sizes) {
      // One standing profiler per grid point; each rep appends a distinct
      // pool slice (the table drifts by at most reps * delta rows, noise
      // against the base size) and the best wall time is kept.
      IncrementalProfiler prof;
      Status s = IncrementalProfiler::Begin(base, GordianOptions(), &prof);
      if (!s.ok()) {
        std::cerr << s.ToString() << "\n";
        return;
      }
      double append_best = 0;
      int64_t off = 0;
      for (int i = 0; i < reps; ++i) {
        RowBatch delta = TableSliceToBatch(pool, off, off + delta_rows);
        off += delta_rows;
        Stopwatch watch;
        s = prof.Append(delta);
        const double secs = watch.ElapsedSeconds();
        if (!s.ok()) std::cerr << s.ToString() << "\n";
        if (i == 0 || secs < append_best) append_best = secs;
      }
      // The full-rerun strawman profiles base + one delta from scratch.
      TableBuilder builder(base.schema());
      builder.AddBatch(TableSliceToBatch(base, 0, base.num_rows()));
      builder.AddBatch(TableSliceToBatch(pool, 0, delta_rows));
      Table concat;
      s = builder.Build(&concat);
      if (!s.ok()) {
        std::cerr << s.ToString() << "\n";
        return;
      }
      const KernelSample full = MeasureFindKeys(concat, reps);
      if (!first) os << ",\n";
      first = false;
      os << "    {\"base_rows\": " << base_rows
         << ", \"delta_rows\": " << delta_rows
         << ", \"append_wall_seconds\": " << append_best
         << ", \"full_wall_seconds\": " << full.best_seconds
         << ", \"speedup_vs_full\": "
         << (append_best > 0 ? full.best_seconds / append_best : 0) << "}";
    }
  }
  os << "\n   ]\n";
}

// Kernel summary, one JSON object per dataset plus the append grid. Written
// after the google-benchmark run so CI can diff wall time and peak bytes
// across commits without parsing human-oriented output.
void WriteKernelJson() {
  const char* env_path = std::getenv("GORDIAN_BENCH_JSON");
  const std::string path =
      (env_path != nullptr && *env_path != '\0') ? env_path
                                                 : "BENCH_kernel.json";
  constexpr int kReps = 3;
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  Table slice_heavy = MakeSliceHeavyTable();
  os << "{\n"
     << "  \"benchmark\": \"gordian_kernel\",\n"
     << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ",\n"
     << "  \"simd_kernel\": \"" << frozen_simd::ActiveKernel() << "\",\n"
     << "  \"reps\": " << kReps << ",\n"
     << "  \"datasets\": [\n";
  WriteDatasetJson(os, "uniform_20k_8attr_card32", slice_heavy, kReps);
  os << ",\n";
  WriteDatasetJson(os, "opic_50k_16attr", SharedTable(50000, 16), kReps);
  os << "\n  ],\n"
     << "  \"append_vs_full\": {\n";
  WriteAppendVsFullJson(os, kReps);
  os << "  }\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace
}  // namespace gordian

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  gordian::WriteKernelJson();
  return 0;
}
