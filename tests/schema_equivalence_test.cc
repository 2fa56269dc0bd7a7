// Equivalence fuzz suite for the schema-wide discovery layer. Random
// schemas (random column types, cardinalities, NULL rates, composite keys,
// planted one- and two-column references) are profiled along independent
// paths that must agree byte-for-byte:
//   - DiscoverForeignKeys vs the value-materializing oracle
//     (oracle/foreign_key.h), resident, sampled and spilled, with the
//     two-column candidates compared counted so that arity stays covered,
//     plus a fixed schema at the edges of value identity (NULL-first
//     dictionaries, all-NULL columns, -0.0, NaN, mixed-type columns);
//   - SchemaProfiler at 1 worker thread vs a full pool;
//   - resident vs spilled (CodeColumn under a tiny budget) base tables;
//   - DiscoverFds vs the distinct-count oracle (oracle/fd.h), resident and
//     spilled, with every verdict on small tables also checked against the
//     pairwise definition of a functional dependency.
// Iteration count honours GORDIAN_FUZZ_ITERS (CI's nightly-style leg
// raises it: GORDIAN_FUZZ_ITERS=20 ctest -L schema).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_fs.h"
#include "common/random.h"
#include "core/fd.h"
#include "core/foreign_key.h"
#include "core/gordian.h"
#include "oracle/fd.h"
#include "oracle/foreign_key.h"
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

// A random schema: 2-4 tables, each with an id column, sometimes a
// composite key, plus 1-4 payload plans of random type/cardinality/NULL
// rate. Some payload columns are planted references into an earlier
// table's id domain (with a random dangling/NULL fraction), so the FK stage
// has genuine work to do. The composite key is two int columns whose pair
// is unique while neither column alone is; a later table may plant a
// column pair referencing it, with NULL components (beside which the other
// component may name no key value at all) and, unless the plan is clean,
// dangling pairs, so two-column FKs get verified too.
// Row counts come from [min_rows, max_rows]: the spill oracle needs tables
// past the builder's 4096-row budget-recheck cadence, the others stay small.
std::vector<Table> RandomSchema(Random* rng, const SpillPolicy& spill,
                                int64_t min_rows = 40,
                                int64_t max_rows = 300) {
  const int num_tables = static_cast<int>(rng->UniformRange(2, 4));
  std::vector<int64_t> id_domain;  // rows of table i == its id domain size
  // Table i's composite key is (r / width, r % width) for row r; 0 = none.
  std::vector<int64_t> key_width;
  std::vector<Table> tables;
  for (int t = 0; t < num_tables; ++t) {
    const int64_t rows = rng->UniformRange(min_rows, max_rows);
    id_domain.push_back(rows);
    const int64_t width = rng->UniformRange(2, std::max<int64_t>(2, rows / 2));
    key_width.push_back(rng->Bernoulli(0.6) ? width : 0);
    std::vector<int> composite_tables;
    for (int e = 0; e < t; ++e) {
      if (key_width[e] > 0) composite_tables.push_back(e);
    }
    std::vector<std::string> names = {"id"};
    if (key_width[t] > 0) {
      names.push_back("k0");
      names.push_back("k1");
    }

    // Per-plan generators, decided up front.
    struct ColPlan {
      int kind;         // 0 int, 1 string, 2 double, 3 reference, 4 pair
      int64_t card;     // value domain
      double null_rate;
      int ref_table;    // kinds 3 and 4
      bool clean;       // kind 4: no NULL-free dangling pairs
      bool null_in_b;   // kind 4: which column takes the NULLs
    };
    const int payload = static_cast<int>(rng->UniformRange(1, 4));
    std::vector<ColPlan> plans;
    for (int c = 0; c < payload; ++c) {
      ColPlan p;
      p.kind = static_cast<int>(rng->UniformRange(0, t > 0 ? 3 : 2));
      if (!composite_tables.empty() && rng->Bernoulli(0.4)) p.kind = 4;
      p.card = rng->UniformRange(2, 60);
      p.null_rate = rng->Bernoulli(0.4) ? rng->NextDouble() * 0.3 : 0.0;
      p.ref_table = t > 0 ? static_cast<int>(rng->Uniform(t)) : 0;
      p.clean = rng->Bernoulli(0.5);
      p.null_in_b = rng->Bernoulli(0.5);
      if (p.kind == 4) {
        p.ref_table = composite_tables[rng->Uniform(composite_tables.size())];
        names.push_back("p" + std::to_string(c) + "a");
        names.push_back("p" + std::to_string(c) + "b");
      } else {
        names.push_back("p" + std::to_string(c));
      }
      plans.push_back(p);
    }
    TableBuilder b(Schema(names), spill);

    for (int64_t r = 0; r < rows; ++r) {
      std::vector<Value> row;
      row.push_back(Value(r));  // unique id
      if (key_width[t] > 0) {
        row.push_back(Value(r / key_width[t]));
        row.push_back(Value(r % key_width[t]));
      }
      for (const ColPlan& p : plans) {
        if (p.kind == 4) {
          // A referenced row's key pair, then NULLs and dangling values.
          const int64_t w = key_width[p.ref_table];
          const int64_t s = static_cast<int64_t>(
              rng->Uniform(static_cast<uint64_t>(id_domain[p.ref_table])));
          // Key values run k0 in [0, rows / w] and k1 in [0, w).
          const int64_t k0_absent = id_domain[p.ref_table] / w + 1;
          Value va(s / w), vb(s % w);
          if (rng->Bernoulli(p.null_rate)) {
            // A NULL in the plan's NULL column; the other component may
            // then name no key value.
            const bool dangle = rng->Bernoulli(0.5);
            if (p.null_in_b) {
              vb = Value();
              if (dangle) va = Value(k0_absent);
            } else {
              va = Value();
              if (dangle) vb = Value(w + rng->UniformRange(0, 3));
            }
          } else if (!p.clean && rng->Bernoulli(0.05)) {
            if (rng->Bernoulli(0.5)) {
              va = Value(k0_absent);
            } else {
              vb = Value(w + rng->UniformRange(0, 3));
            }
          }
          row.push_back(std::move(va));
          row.push_back(std::move(vb));
          continue;
        }
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
  options.max_arity = static_cast<int>(rng->UniformRange(1, 3));
  return options;
}

// The fuzzed options plus two two-column passes with every threshold
// dropped, one strict and one at coverage 0 (which emits every
// type-compatible candidate), so each oracle comparison reaches arity 2
// whenever a table has a two-column key.
std::vector<ForeignKeyOptions> OracleOptions(const ForeignKeyOptions& fuzzed) {
  ForeignKeyOptions strict;
  strict.max_arity = 2;
  strict.min_distinct_values = 1;
  strict.min_coverage = 1.0;
  strict.min_referenced_coverage = 0.0;
  ForeignKeyOptions loose = strict;
  loose.min_coverage = 0.0;
  return {fuzzed, strict, loose};
}

// Compares DiscoverForeignKeys with the oracle under each OracleOptions
// pass and returns how many two-column candidates were compared.
int ExpectFksMatchOracle(const std::vector<ProfiledTable>& profiled,
                         const ForeignKeyOptions& fuzzed,
                         const std::string& where) {
  int arity2 = 0;
  for (const ForeignKeyOptions& options : OracleOptions(fuzzed)) {
    const std::vector<ForeignKeyCandidate> oracle =
        OracleDiscoverForeignKeys(profiled, options);
    EXPECT_EQ(CandidatesToString(DiscoverForeignKeys(profiled, options)),
              CandidatesToString(oracle))
        << where << " min_coverage=" << options.min_coverage
        << " max_arity=" << options.max_arity;
    for (const ForeignKeyCandidate& fk : oracle) {
      if (fk.foreign_key_columns.size() == 2) ++arity2;
    }
  }
  return arity2;
}

// Half of every table's rows. A sample shares its parent's dictionaries,
// so some dictionary values occur in no row, on the referencing side and
// on the referenced side alike.
std::vector<Table> HalfSamples(const std::vector<Table>& tables,
                               uint64_t seed) {
  std::vector<Table> samples;
  for (const Table& t : tables) {
    samples.push_back(t.SampleRows(t.num_rows() / 2, seed));
  }
  return samples;
}

TEST(SchemaEquivalence, DictionaryFirstMatchesLegacy) {
  const int iters = FuzzIters();
  int arity2 = 0;
  for (int iter = 0; iter < iters; ++iter) {
    const uint64_t seed = 0x5eed0001 + iter * 977;
    Random rng(seed);
    std::vector<Table> tables = RandomSchema(&rng, SpillPolicy());
    const ForeignKeyOptions options = FuzzFkOptions(&rng);
    const std::string where = "iter " + std::to_string(iter);
    arity2 += ExpectFksMatchOracle(ProfileAll(tables), options, where);
    const std::vector<Table> samples = HalfSamples(tables, seed);
    arity2 += ExpectFksMatchOracle(ProfileAll(samples), options,
                                   where + " samples");
  }
  EXPECT_GT(arity2, 0);
}

// Fixed tables at the edges of value identity, where a foreign-key value
// must match exactly the referenced values that Dictionary::Lookup would
// find:
//   t0 holds three single-column keys over one number domain, typed int,
//      double and string, so 7, 7.0 and "7" are three different values;
//      its doubles include +0.0.
//   t1 has a NULL-first id column (a key holding one NULL), an all-NULL
//      column, a double column whose zeros are -0.0, a column typed int
//      by its first dictionary entry that also holds 7.0, "7" and, last,
//      "last", and a column pair referencing t2's composite key.
//   t2's composite key is (int, double), its zeros -0.0, and one of its
//      rows is all NULL.
//   t3 has a two-column key (x, y) whose y holds NaN, referenced by its
//      own (x2, y2) with NaNs of another payload, and a NaN-bearing
//      column rn referencing the NaN-bearing key kd.
std::vector<Table> ValueEdgeSchema() {
  std::vector<Table> tables;
  TableBuilder b0(Schema(std::vector<std::string>{"i", "d", "s"}));
  for (int64_t i = 0; i < 30; ++i) {
    b0.AddRow({Value(i), Value(static_cast<double>(i)),
               Value(std::to_string(i))});
  }
  tables.push_back(b0.Build());

  TableBuilder b1(Schema(std::vector<std::string>{"id", "nulls", "rd",
                                                  "mixed", "pa", "pb"}));
  for (int64_t i = 0; i < 40; ++i) {
    Value mixed;
    switch (i == 39 ? 4 : i % 4) {
      case 0: mixed = Value(i % 28); break;
      case 1: mixed = Value(7.0); break;
      case 2: mixed = Value("7"); break;
      case 3: mixed = Value(int64_t{7}); break;
      default: mixed = Value("last"); break;
    }
    b1.AddRow({i == 0 ? Value() : Value(i), Value(),
               Value(i % 10 == 0 ? -0.0 : static_cast<double>(i % 25)),
               std::move(mixed), Value(i / 8 % 5),
               Value(static_cast<double>(i % 5))});
  }
  tables.push_back(b1.Build());

  TableBuilder b2(Schema(std::vector<std::string>{"a", "b"}));
  for (int64_t i = 0; i < 25; ++i) {
    b2.AddRow({Value(i / 5),
               Value(i % 5 == 0 ? -0.0 : static_cast<double>(i % 5))});
  }
  b2.AddRow({Value(), Value()});
  tables.push_back(b2.Build());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const uint64_t other_bits = 0x7ff8000000000123ull;  // NaN, another payload
  double other_nan;
  std::memcpy(&other_nan, &other_bits, sizeof(other_nan));
  TableBuilder b3(Schema(std::vector<std::string>{"x", "y", "x2", "y2", "kd",
                                                  "rn"}));
  auto y_of = [&](int64_t i, double nan_value) {
    return i % 4 == 3 ? nan_value : static_cast<double>(i % 4);
  };
  for (int64_t i = 0; i < 24; ++i) {
    const int64_t j = (i + 5) % 24;
    b3.AddRow({Value(i / 4), Value(y_of(i, nan)), Value(j / 4),
               Value(y_of(j, other_nan)),
               Value(i == 23 ? nan : static_cast<double>(i) + 0.5),
               Value(i % 3 == 0 ? nan : static_cast<double>(i % 23) + 0.5)});
  }
  tables.push_back(b3.Build());
  return tables;
}

TEST(SchemaEquivalence, ValueIdentityMatchesOracle) {
  const std::vector<Table> tables = ValueEdgeSchema();
  const std::vector<ProfiledTable> profiled = ProfileAll(tables);
  ASSERT_EQ(profiled[2].keys, std::vector<AttributeSet>{AttributeSet({0, 1})});
  ForeignKeyOptions options;
  options.max_arity = 1;
  options.min_coverage = 0.5;
  options.min_distinct_values = 5;
  const std::vector<Table> samples = HalfSamples(tables, 0x7e57);
  int arity2 = ExpectFksMatchOracle(profiled, options, "full");
  arity2 += ExpectFksMatchOracle(ProfileAll(samples), options, "samples");
  EXPECT_GT(arity2, 0);

  // -0.0 and 0.0 are one value: t1's (pa, pb) covers t2's key, and t1.rd
  // covers t0.d. Every NaN is one value: t3's (x2, y2) covers (x, y), and
  // rn covers kd.
  std::set<std::vector<int>> strict;
  for (const ForeignKeyCandidate& fk :
       DiscoverForeignKeys(profiled, OracleOptions(options)[1])) {
    std::vector<int> id = {fk.referencing_table, fk.referenced_table};
    id.insert(id.end(), fk.foreign_key_columns.begin(),
              fk.foreign_key_columns.end());
    strict.insert(id);
  }
  EXPECT_EQ(strict.count({1, 2, 4, 5}), 1u);
  EXPECT_EQ(strict.count({1, 0, 2}), 1u);
  EXPECT_EQ(strict.count({3, 3, 2, 3}), 1u);
  EXPECT_EQ(strict.count({3, 3, 5}), 1u);
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
  int arity2 = 0;
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
    // The oracle reads Values through the spilled columns.
    arity2 += ExpectFksMatchOracle(profiled_spilled, options,
                                   "spilled iter " + std::to_string(iter));

    // The keys FK discovery builds on: the production traversal over
    // spilled columns agrees with the pointer-tree oracle over resident
    // ones.
    for (size_t i = 0; i < resident.size(); ++i) {
      EXPECT_EQ(profiled_spilled[i].keys,
                OracleFindKeys(resident[i]).KeySets())
          << "iter " << iter << " table " << i;
    }
  }
  EXPECT_GT(arity2, 0);
}

// Serializer for the FD checks: every field, redundancy as a hex float so
// equal strings mean bit-equal doubles.
std::string FdsToString(const std::vector<FdCandidate>& fds) {
  std::string out;
  char buf[96];
  for (const FdCandidate& fd : fds) {
    std::snprintf(buf, sizeof(buf), "->%d distinct=%lld redundancy=%a\n",
                  fd.rhs, static_cast<long long>(fd.lhs_distinct),
                  fd.redundancy);
    out += fd.lhs.ToString() + buf;
  }
  return out;
}

// DiscoverFds against the distinct-count oracle over the whole option grid:
// LHS widths 1-3, top_k {0, 1, 10}, verification caps {0, 1, 7, 10000}.
void ExpectFdsMatchOracle(const Table& table, const KeyDiscoveryResult& result,
                          const std::string& where) {
  for (int max_lhs_size = 1; max_lhs_size <= 3; ++max_lhs_size) {
    for (int top_k : {0, 1, 10}) {
      for (int64_t cap : {0, 1, 7, 10000}) {
        FdOptions options;
        options.max_lhs_size = max_lhs_size;
        options.top_k = top_k;
        options.max_verifications = cap;
        EXPECT_EQ(FdsToString(DiscoverFds(table, result, options)),
                  FdsToString(OracleDiscoverFds(table, result, options)))
            << where << " max_lhs_size=" << max_lhs_size
            << " top_k=" << top_k << " max_verifications=" << cap;
      }
    }
  }
}

// X -> A by definition: no two rows agree on X and differ on A.
bool HoldsPairwise(const Table& table, const AttributeSet& lhs, int rhs) {
  for (int64_t r1 = 0; r1 < table.num_rows(); ++r1) {
    for (int64_t r2 = r1 + 1; r2 < table.num_rows(); ++r2) {
      bool agree = true;
      lhs.ForEach([&](int a) {
        if (table.code(r1, a) != table.code(r2, a)) agree = false;
      });
      if (agree && table.code(r1, rhs) != table.code(r2, rhs)) return false;
    }
  }
  return true;
}

// Every candidate's verdict on a small table, from the definition: with no
// cap and no top-k cut, DiscoverFds must report exactly the X -> A with
// |X| <= max_lhs_size and non-unique X that hold pairwise (any such X ∪ {A}
// is a non-key, so a complete result always offers it as a candidate), each
// with its exact distinct count.
void ExpectVerdictsPairwise(const Table& table,
                            const KeyDiscoveryResult& result,
                            const std::string& where) {
  ASSERT_LE(table.num_rows(), 64) << where;
  const int d = table.num_columns();
  for (int max_lhs_size = 1; max_lhs_size <= 3; ++max_lhs_size) {
    FdOptions options;
    options.max_lhs_size = max_lhs_size;
    options.top_k = 0;
    options.max_verifications = 0;
    std::set<std::pair<AttributeSet, int>> found;
    for (const FdCandidate& fd : DiscoverFds(table, result, options)) {
      found.insert({fd.lhs, fd.rhs});
      EXPECT_EQ(fd.lhs_distinct, table.DistinctCount(fd.lhs)) << where;
    }
    for (uint64_t mask = 1; mask < (uint64_t{1} << d); ++mask) {
      AttributeSet lhs;
      for (int a = 0; a < d; ++a) {
        if (mask & (uint64_t{1} << a)) lhs.Set(a);
      }
      if (lhs.Count() > max_lhs_size) continue;
      const bool unique = table.IsUnique(lhs);
      for (int rhs = 0; rhs < d; ++rhs) {
        if (lhs.Test(rhs)) continue;
        const bool expected = !unique && HoldsPairwise(table, lhs, rhs);
        EXPECT_EQ(found.count({lhs, rhs}) > 0, expected)
            << where << " " << lhs.ToString() << " -> " << rhs
            << " max_lhs_size=" << max_lhs_size;
      }
    }
  }
}

// `table` with its first row appended again, so no attribute set is a key.
Table WithRepeatedRow(const Table& table) {
  TableBuilder b(table.schema());
  std::vector<Value> row(table.num_columns());
  for (int64_t r = 0; r <= table.num_rows(); ++r) {
    const int64_t src = r < table.num_rows() ? r : 0;
    for (int c = 0; c < table.num_columns(); ++c) {
      row[c] = table.value(src, c);
    }
    b.AddRow(row);
  }
  return b.Build();
}

int NullColumns(const Table& table) {
  int n = 0;
  for (int c = 0; c < table.num_columns(); ++c) {
    for (int64_t r = 0; r < table.num_rows(); ++r) {
      if (table.value(r, c).is_null()) {
        ++n;
        break;
      }
    }
  }
  return n;
}

TEST(SchemaEquivalence, FdsMatchDistinctCountOracle) {
  const int iters = FuzzIters();
  int null_columns = 0;
  for (int iter = 0; iter < iters; ++iter) {
    Random rng(0x5eed0004 + iter * 977);
    // Default-sized tables, then tables small enough for the pairwise
    // check.
    std::vector<Table> tables = RandomSchema(&rng, SpillPolicy());
    const size_t num_default = tables.size();
    for (Table& t : RandomSchema(&rng, SpillPolicy(), 4, 60)) {
      tables.push_back(std::move(t));
    }
    for (size_t i = 0; i < tables.size(); ++i) {
      const std::string where =
          "iter " + std::to_string(iter) + " table " + std::to_string(i);
      const Table& t = tables[i];
      null_columns += NullColumns(t);
      const KeyDiscoveryResult result = FindKeys(t);
      ASSERT_FALSE(result.incomplete) << where;
      ExpectFdsMatchOracle(t, result, where);

      const Table repeated = WithRepeatedRow(t);
      const KeyDiscoveryResult no_keys = FindKeys(repeated);
      EXPECT_TRUE(no_keys.no_keys) << where;
      ExpectFdsMatchOracle(repeated, no_keys, where + " repeated row");

      KeyDiscoveryResult incomplete = result;
      incomplete.incomplete = true;
      EXPECT_TRUE(DiscoverFds(t, incomplete).empty()) << where;
      ExpectFdsMatchOracle(t, incomplete, where + " incomplete");

      // A result with neither keys nor non-keys offers the whole schema,
      // unique `id` included, so the unique-LHS prune fires too.
      ExpectFdsMatchOracle(t, KeyDiscoveryResult(), where + " empty result");

      if (i >= num_default) {
        ExpectVerdictsPairwise(t, result, where);
        ExpectVerdictsPairwise(repeated, no_keys, where + " repeated row");
      }
    }
  }
  // Seed 0x5eed0004 plants NULLs, so even a single iteration covers them.
  EXPECT_GT(null_columns, 0);
}

TEST(SchemaEquivalence, FdsOnSpilledTablesMatchOracle) {
  const int iters = FuzzIters();
  const std::string dir = ::testing::TempDir() + "gordian_fd_spill";
  ASSERT_TRUE(DefaultFileSystem()->CreateDir(dir).ok());
  for (int iter = 0; iter < iters; ++iter) {
    SpillPolicy spill;
    spill.memory_budget_bytes = 1 << 10;  // force everything out
    spill.spill_dir = dir;
    spill.chunk_rows = 512;
    Random rng(0x5eed0005 + iter * 977);
    std::vector<Table> spilled = RandomSchema(&rng, spill, 4200, 6000);
    bool any_spilled = false;
    for (size_t i = 0; i < spilled.size(); ++i) {
      const Table& t = spilled[i];
      if (t.spilled_column_count() > 0) any_spilled = true;
      ExpectFdsMatchOracle(t, FindKeys(t),
                           "iter " + std::to_string(iter) + " table " +
                               std::to_string(i));
    }
    EXPECT_TRUE(any_spilled) << "iter " << iter;
  }
}

}  // namespace
}  // namespace gordian
