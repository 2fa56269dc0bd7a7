// Equivalence fuzz suite for the schema-wide discovery layer. Random
// schemas (random column types, cardinalities, NULL rates, planted
// references) are profiled along independent paths that must agree
// byte-for-byte:
//   - dictionary-first vs legacy value-materializing FK verification;
//   - SchemaProfiler at 1 worker thread vs a full pool;
//   - resident vs spilled (CodeColumn under a tiny budget) base tables.
// Iteration count honours GORDIAN_FUZZ_ITERS (CI's nightly-style leg
// raises it: GORDIAN_FUZZ_ITERS=20 ctest -L schema).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_fs.h"
#include "common/random.h"
#include "core/foreign_key.h"
#include "core/gordian.h"
#include "oracle/non_key_finder.h"
#include "service/profiling_service.h"
#include "service/schema_profiler.h"
#include "table/table.h"

namespace gordian {
namespace {

int FuzzIters() {
  const char* env = std::getenv("GORDIAN_FUZZ_ITERS");
  if (env != nullptr && *env != '\0') {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 3;
}

// A random schema: 2-4 tables, each with an id column plus 1-4 payload
// columns of random type/cardinality/NULL rate. Some payload columns are
// planted references into an earlier table's id domain (with a random
// dangling/NULL fraction), so the FK stage has genuine work to do.
// Row counts come from [min_rows, max_rows]: the spill oracle needs tables
// past the builder's 4096-row budget-recheck cadence, the others stay small.
std::vector<Table> RandomSchema(Random* rng, const SpillPolicy& spill,
                                int64_t min_rows = 40,
                                int64_t max_rows = 300) {
  const int num_tables = static_cast<int>(rng->UniformRange(2, 4));
  std::vector<int64_t> id_domain;  // rows of table i == its id domain size
  std::vector<Table> tables;
  for (int t = 0; t < num_tables; ++t) {
    const int64_t rows = rng->UniformRange(min_rows, max_rows);
    id_domain.push_back(rows);
    const int payload = static_cast<int>(rng->UniformRange(1, 4));
    std::vector<std::string> names = {"id"};
    for (int c = 0; c < payload; ++c) {
      names.push_back("p" + std::to_string(c));
    }
    TableBuilder b(Schema(names), spill);

    // Per-column generators, decided up front.
    struct ColPlan {
      int kind;         // 0 int, 1 string, 2 double, 3 reference
      int64_t card;     // value domain
      double null_rate;
      int ref_table;    // kind 3 only
    };
    std::vector<ColPlan> plans;
    for (int c = 0; c < payload; ++c) {
      ColPlan p;
      p.kind = static_cast<int>(rng->UniformRange(0, t > 0 ? 3 : 2));
      p.card = rng->UniformRange(2, 60);
      p.null_rate = rng->Bernoulli(0.4) ? rng->NextDouble() * 0.3 : 0.0;
      p.ref_table = t > 0 ? static_cast<int>(rng->Uniform(t)) : 0;
      plans.push_back(p);
    }

    for (int64_t r = 0; r < rows; ++r) {
      std::vector<Value> row;
      row.push_back(Value(r));  // unique id
      for (const ColPlan& p : plans) {
        Value v;  // NULL unless overwritten below
        if (!rng->Bernoulli(p.null_rate)) {
          switch (p.kind) {
            case 0:
              v = Value(rng->UniformRange(0, p.card - 1));
              break;
            case 1:
              v = Value("v" + std::to_string(rng->Uniform(p.card)));
              break;
            case 2:
              v = Value(static_cast<double>(rng->Uniform(p.card)));
              break;
            default: {
              // Reference into an earlier table's ids, occasionally dangling.
              int64_t upper = id_domain[p.ref_table];
              v = Value(rng->Bernoulli(0.05)
                            ? upper + rng->UniformRange(1, 50)
                            : rng->UniformRange(0, upper - 1));
              break;
            }
          }
        }
        row.push_back(std::move(v));
      }
      b.AddRow(row);
    }
    tables.push_back(b.Build());
  }
  return tables;
}

std::vector<ProfiledTable> ProfileAll(const std::vector<Table>& tables) {
  std::vector<ProfiledTable> out;
  for (size_t i = 0; i < tables.size(); ++i) {
    out.push_back({"t" + std::to_string(i), &tables[i],
                   FindKeys(tables[i]).KeySets()});
  }
  return out;
}

// Serializer for the byte-equality checks.
std::string CandidatesToString(
    const std::vector<ForeignKeyCandidate>& candidates) {
  std::string out;
  char buf[160];
  for (const ForeignKeyCandidate& fk : candidates) {
    std::string cols;
    for (int c : fk.foreign_key_columns) cols += std::to_string(c) + ",";
    std::snprintf(buf, sizeof(buf), "%d[%s]->%d%s cov=%.12f ref=%.12f n=%lld\n",
                  fk.referencing_table, cols.c_str(), fk.referenced_table,
                  fk.referenced_key.ToString().c_str(), fk.coverage,
                  fk.referenced_coverage,
                  static_cast<long long>(fk.distinct_fk_tuples));
    out += buf;
  }
  return out;
}

// The rendered report minus the wall-clock lines, which legitimately vary.
std::string JsonWithoutTimings(const SchemaReport& report) {
  std::string json = SchemaReportToJson(report);
  std::string out;
  size_t pos = 0;
  while (pos < json.size()) {
    size_t end = json.find('\n', pos);
    if (end == std::string::npos) end = json.size();
    std::string line = json.substr(pos, end - pos);
    if (line.find("_seconds") == std::string::npos) {
      out += line;
      out += '\n';
    }
    pos = end + 1;
  }
  return out;
}

ForeignKeyOptions FuzzFkOptions(Random* rng) {
  ForeignKeyOptions options;
  options.min_distinct_values = rng->UniformRange(1, 10);
  options.min_coverage = rng->Bernoulli(0.5) ? 1.0 : rng->NextDouble();
  options.min_referenced_coverage = rng->Bernoulli(0.5) ? 0.0
                                                        : rng->NextDouble();
  options.max_arity = static_cast<int>(rng->UniformRange(1, 2));
  return options;
}

TEST(SchemaEquivalence, DictionaryFirstMatchesLegacy) {
  const int iters = FuzzIters();
  for (int iter = 0; iter < iters; ++iter) {
    Random rng(0x5eed0001 + iter * 977);
    std::vector<Table> tables = RandomSchema(&rng, SpillPolicy());
    std::vector<ProfiledTable> profiled = ProfileAll(tables);
    ForeignKeyOptions options = FuzzFkOptions(&rng);

    options.dictionary_first = true;
    std::vector<ForeignKeyCandidate> dict =
        DiscoverForeignKeys(profiled, options);
    options.dictionary_first = false;
    std::vector<ForeignKeyCandidate> legacy =
        DiscoverForeignKeys(profiled, options);
    EXPECT_EQ(CandidatesToString(dict), CandidatesToString(legacy))
        << "iter " << iter;
  }
}

TEST(SchemaEquivalence, SerialAndParallelReportsIdentical) {
  const int iters = FuzzIters();
  for (int iter = 0; iter < iters; ++iter) {
    Random rng(0x5eed0002 + iter * 977);
    std::vector<Table> tables = RandomSchema(&rng, SpillPolicy());
    std::vector<std::pair<std::string, const Table*>> views;
    for (size_t i = 0; i < tables.size(); ++i) {
      views.emplace_back("t" + std::to_string(i), &tables[i]);
    }
    SchemaProfileOptions options;
    options.fk = FuzzFkOptions(&rng);

    std::string serial_json, parallel_json;
    {
      ServiceOptions so;
      so.num_threads = 1;
      ProfilingService service(so);
      SchemaReport report;
      ASSERT_TRUE(SchemaProfiler(&service).Profile(views, options, &report)
                      .ok());
      serial_json = JsonWithoutTimings(report);
    }
    {
      ServiceOptions so;
      so.num_threads = 4;
      ProfilingService service(so);
      SchemaReport report;
      ASSERT_TRUE(SchemaProfiler(&service).Profile(views, options, &report)
                      .ok());
      parallel_json = JsonWithoutTimings(report);
    }
    EXPECT_EQ(serial_json, parallel_json) << "iter " << iter;
  }
}

TEST(SchemaEquivalence, ResidentAndSpilledTablesIdentical) {
  const int iters = FuzzIters();
  const std::string dir = ::testing::TempDir() + "gordian_schema_spill";
  ASSERT_TRUE(DefaultFileSystem()->CreateDir(dir).ok());
  for (int iter = 0; iter < iters; ++iter) {
    const uint64_t seed = 0x5eed0003 + iter * 977;
    Random rng_resident(seed);
    std::vector<Table> resident =
        RandomSchema(&rng_resident, SpillPolicy(), 4200, 6000);

    SpillPolicy spill;
    spill.memory_budget_bytes = 1 << 10;  // force everything out
    spill.spill_dir = dir;
    spill.chunk_rows = 512;  // small chunks: boundaries get exercised
    Random rng_spilled(seed);
    std::vector<Table> spilled = RandomSchema(&rng_spilled, spill, 4200, 6000);

    bool any_spilled = false;
    for (const Table& t : spilled) {
      if (t.spilled_column_count() > 0) any_spilled = true;
    }
    EXPECT_TRUE(any_spilled) << "iter " << iter;

    Random rng_opts(seed ^ 0xabcdef);
    ForeignKeyOptions options = FuzzFkOptions(&rng_opts);
    const std::vector<ProfiledTable> profiled_spilled = ProfileAll(spilled);
    std::vector<ForeignKeyCandidate> a =
        DiscoverForeignKeys(ProfileAll(resident), options);
    std::vector<ForeignKeyCandidate> b =
        DiscoverForeignKeys(profiled_spilled, options);
    EXPECT_EQ(CandidatesToString(a), CandidatesToString(b)) << "iter " << iter;

    // The keys FK discovery builds on: the production traversal over
    // spilled columns agrees with the pointer-tree oracle over resident
    // ones.
    for (size_t i = 0; i < resident.size(); ++i) {
      EXPECT_EQ(profiled_spilled[i].keys,
                OracleFindKeys(resident[i]).KeySets())
          << "iter " << iter << " table " << i;
    }
  }
}

}  // namespace
}  // namespace gordian
