// Tests for the schema-wide discovery layer: SchemaProfiler ground-truth
// recovery over the multi-table generators, schema_report.json persistence
// (including the injected-fault path), the release of every job record,
// ranked FD discovery, the SQL NULL semantics of foreign-key coverage
// (library against the oracle), and the schema-wide advisor overload.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/attribute_set.h"
#include "common/fault_fs.h"
#include "core/fd.h"
#include "core/foreign_key.h"
#include "core/gordian.h"
#include "datagen/baseball_like.h"
#include "datagen/tpch_lite.h"
#include "engine/advisor.h"
#include "engine/row_store.h"
#include "oracle/foreign_key.h"
#include "service/job_scheduler.h"
#include "service/profiling_service.h"
#include "service/schema_profiler.h"
#include "table/table.h"

namespace gordian {
namespace {

std::vector<std::pair<std::string, const Table*>> Views(
    const std::vector<NamedTable>& db) {
  std::vector<std::pair<std::string, const Table*>> tables;
  for (const NamedTable& nt : db) tables.emplace_back(nt.name, &nt.table);
  return tables;
}

// Name-based match between a report candidate and a ground-truth FK.
bool Matches(const SchemaReport& report, const ForeignKeyCandidate& fk,
             const SchemaGroundTruthFk& truth) {
  const SchemaReport::TableEntry& from = report.tables[fk.referencing_table];
  const SchemaReport::TableEntry& to = report.tables[fk.referenced_table];
  if (from.name != truth.referencing_table) return false;
  if (to.name != truth.referenced_table) return false;
  if (fk.foreign_key_columns.size() != truth.foreign_key_columns.size()) {
    return false;
  }
  std::vector<int> kcols;
  fk.referenced_key.ForEach([&](int a) { kcols.push_back(a); });
  if (kcols.size() != truth.referenced_key_columns.size()) return false;
  for (size_t i = 0; i < kcols.size(); ++i) {
    if (from.table->schema().name(fk.foreign_key_columns[i]) !=
        truth.foreign_key_columns[i]) {
      return false;
    }
    if (to.table->schema().name(kcols[i]) != truth.referenced_key_columns[i]) {
      return false;
    }
  }
  return true;
}

int RecoveredCount(const SchemaReport& report,
                   const std::vector<SchemaGroundTruthFk>& truth) {
  int found = 0;
  for (const SchemaGroundTruthFk& t : truth) {
    for (const ForeignKeyCandidate& fk : report.foreign_keys) {
      if (Matches(report, fk, t)) {
        ++found;
        break;
      }
    }
  }
  return found;
}

// Permissive FK thresholds for the small test-sized generator scales (the
// bench uses larger data and stricter defaults).
SchemaProfileOptions PermissiveOptions() {
  SchemaProfileOptions options;
  options.fk.min_distinct_values = 2;
  options.fk.min_referenced_coverage = 0.0;
  options.fk.max_arity = 1;
  return options;
}

TEST(SchemaProfiler, RecoversTpchLiteForeignKeys) {
  std::vector<NamedTable> db = GenerateTpchLite(/*scale=*/0.005, /*seed=*/31);
  ProfilingService service;
  SchemaProfiler profiler(&service);
  SchemaReport report;
  Status s = profiler.Profile(Views(db), PermissiveOptions(), &report);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(report.tables.size(), db.size());

  const std::vector<SchemaGroundTruthFk> truth = TpchLiteForeignKeys();
  EXPECT_EQ(RecoveredCount(report, truth), static_cast<int>(truth.size()));
  // The report is sorted by the documented total order.
  for (size_t i = 1; i < report.foreign_keys.size(); ++i) {
    EXPECT_FALSE(ForeignKeyCandidateLess(report.foreign_keys[i],
                                         report.foreign_keys[i - 1]));
  }
}

TEST(SchemaProfiler, RecoversBaseballLikeForeignKeys) {
  std::vector<NamedTable> db = GenerateBaseballLike(/*scale=*/0.1, /*seed=*/77);
  ProfilingService service;
  SchemaProfiler profiler(&service);
  SchemaReport report;
  Status s = profiler.Profile(Views(db), PermissiveOptions(), &report);
  ASSERT_TRUE(s.ok()) << s.ToString();

  const std::vector<SchemaGroundTruthFk> truth = BaseballLikeForeignKeys();
  EXPECT_EQ(RecoveredCount(report, truth), static_cast<int>(truth.size()));
}

TEST(SchemaProfiler, PersistsReportNextToCatalog) {
  std::vector<NamedTable> db = GenerateTpchLite(/*scale=*/0.002, /*seed=*/31);
  const std::string dir = ::testing::TempDir() + "gordian_schema_report";
  ProfilingService service;
  SchemaProfiler profiler(&service);
  SchemaProfileOptions options = PermissiveOptions();
  options.report_dir = dir;
  SchemaReport report;
  Status s = profiler.Profile(Views(db), options, &report);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_FALSE(report.report_path.empty());

  std::string bytes;
  ASSERT_TRUE(DefaultFileSystem()->ReadFile(report.report_path, &bytes).ok());
  EXPECT_EQ(bytes, SchemaReportToJson(report));
  // No stray temp file from the write-rename sequence.
  std::vector<std::string> names;
  ASSERT_TRUE(DefaultFileSystem()->ListDir(dir, &names).ok());
  for (const std::string& name : names) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
}

TEST(SchemaProfiler, PersistenceFaultStillPopulatesReport) {
  std::vector<NamedTable> db = GenerateTpchLite(/*scale=*/0.002, /*seed=*/31);
  const std::string dir = ::testing::TempDir() + "gordian_schema_fault";
  FaultInjectionFs fs(DefaultFileSystem());
  FaultSpec spec;
  spec.op = FsOp::kRename;
  spec.path_substr = "schema_report";
  fs.Arm(spec);

  ProfilingService service;
  SchemaProfiler profiler(&service);
  SchemaProfileOptions options = PermissiveOptions();
  options.report_dir = dir;
  options.fs = &fs;
  SchemaReport report;
  Status s = profiler.Profile(Views(db), options, &report);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(fs.fired());
  // Discovery results survive the failed write.
  EXPECT_TRUE(report.report_path.empty());
  ASSERT_EQ(report.tables.size(), db.size());
  EXPECT_EQ(RecoveredCount(report, TpchLiteForeignKeys()),
            static_cast<int>(TpchLiteForeignKeys().size()));
}

// No job id leaves Profile, so every record is dropped as soon as it is
// waited on: key jobs through ProfilingService::Forget, FD and FK jobs in
// the scheduler. No job submitted between two bracketing no-ops stays.
TEST(SchemaProfiler, ForgetsFdAndFkJobRecords) {
  std::vector<NamedTable> db = GenerateTpchLite(/*scale=*/0.002, /*seed=*/31);
  ProfilingService service;
  JobScheduler& scheduler = service.scheduler();
  const auto noop = [](const JobContext&) {};
  const JobId before = scheduler.Submit(noop);
  scheduler.Wait(before);

  SchemaProfiler profiler(&service);
  SchemaReport report;
  ASSERT_TRUE(profiler.Profile(Views(db), PermissiveOptions(), &report).ok());
  const JobId after = scheduler.Submit(noop);
  scheduler.Wait(after);

  // Keys, then one FD job per table, then at least one FK unit.
  ASSERT_GT(after - before - 1, static_cast<JobId>(2 * db.size()));
  int valid = 0;
  for (JobId id = before + 1; id < after; ++id) {
    if (scheduler.Poll(id).valid) ++valid;
  }
  EXPECT_EQ(valid, 0);
}

// A table with a planted FD (team -> league) and no keys at all: every
// column is heavily duplicated and the full attribute set has fewer
// combinations than rows.
Table MakeFdTable() {
  TableBuilder b(Schema(std::vector<std::string>{"team", "league", "noise"}));
  for (int64_t i = 0; i < 300; ++i) {
    int64_t team = i % 10;
    int64_t league = team < 5 ? 0 : 1;
    b.AddRow({Value(team), Value(league), Value(i % 3)});
  }
  return b.Build();
}

TEST(DiscoverFds, FindsPlantedDependency) {
  Table t = MakeFdTable();
  KeyDiscoveryResult result = FindKeys(t);
  EXPECT_TRUE(result.no_keys);

  std::vector<FdCandidate> fds = DiscoverFds(t, result);
  bool found = false;
  for (const FdCandidate& fd : fds) {
    if (fd.lhs == AttributeSet{0} && fd.rhs == 1) {
      found = true;
      EXPECT_EQ(fd.lhs_distinct, 10);
      EXPECT_NEAR(fd.redundancy, 1.0 - 10.0 / 300.0, 1e-12);
    }
    // noise (3 values) cannot determine team (10 values).
    EXPECT_FALSE(fd.lhs == AttributeSet{2} && fd.rhs == 0);
  }
  EXPECT_TRUE(found);

  // Ranked by the documented order, and deterministic across runs.
  for (size_t i = 1; i < fds.size(); ++i) {
    EXPECT_TRUE(FdCandidateLess(fds[i - 1], fds[i]));
  }
  std::vector<FdCandidate> again = DiscoverFds(t, FindKeys(t));
  ASSERT_EQ(again.size(), fds.size());
  for (size_t i = 0; i < fds.size(); ++i) {
    EXPECT_EQ(again[i].lhs, fds[i].lhs);
    EXPECT_EQ(again[i].rhs, fds[i].rhs);
    EXPECT_EQ(again[i].lhs_distinct, fds[i].lhs_distinct);
  }
}

TEST(DiscoverFds, TopKAndVerificationCap) {
  Table t = MakeFdTable();
  KeyDiscoveryResult result = FindKeys(t);

  FdOptions one;
  one.top_k = 1;
  std::vector<FdCandidate> top1 = DiscoverFds(t, result, one);
  ASSERT_EQ(top1.size(), 1u);
  std::vector<FdCandidate> all = DiscoverFds(t, result);
  ASSERT_FALSE(all.empty());
  // top-1 is the head of the full ranking.
  EXPECT_EQ(top1[0].lhs, all[0].lhs);
  EXPECT_EQ(top1[0].rhs, all[0].rhs);

  // Cap of one verification: the first candidate in enumeration order that
  // survives the prunes is ({team}, league), and it verifies true.
  FdOptions capped;
  capped.max_verifications = 1;
  std::vector<FdCandidate> first = DiscoverFds(t, result, capped);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].lhs, AttributeSet{0});
  EXPECT_EQ(first[0].rhs, 1);

  // <= 0 removes the cap entirely.
  FdOptions uncapped;
  uncapped.max_verifications = 0;
  EXPECT_EQ(DiscoverFds(t, result, uncapped).size(), all.size());
}

TEST(DiscoverFds, IncompleteResultYieldsNothing) {
  Table t = MakeFdTable();
  KeyDiscoveryResult result = FindKeys(t);
  result.incomplete = true;
  EXPECT_TRUE(DiscoverFds(t, result).empty());
}

// SQL FK semantics: referencing tuples with a NULL component do not count
// against coverage. 40 customers; 100 orders of which 20 have a NULL
// customer reference; with `dangling` one more order references a customer
// that does not exist.
struct NullFkFixture {
  Table customers;
  Table orders;
  std::vector<ProfiledTable> tables;
};

NullFkFixture MakeNullFkFixture(bool dangling) {
  NullFkFixture f;
  TableBuilder cb(Schema(std::vector<std::string>{"cust_id", "name"}));
  for (int64_t i = 0; i < 40; ++i) {
    cb.AddRow({Value(i), Value("c" + std::to_string(i))});
  }
  f.customers = cb.Build();

  TableBuilder ob(Schema(std::vector<std::string>{"order_id", "cust_ref"}));
  for (int64_t i = 0; i < 100; ++i) {
    Value ref = i >= 80 ? Value::Null() : Value(i % 40);
    if (dangling && i == 7) ref = Value(static_cast<int64_t>(999));
    ob.AddRow({Value(i), ref});
  }
  f.orders = ob.Build();

  f.tables.push_back(
      {"customers", &f.customers, FindKeys(f.customers).KeySets()});
  f.tables.push_back({"orders", &f.orders, FindKeys(f.orders).KeySets()});
  return f;
}

// Every case runs the library's discovery and the value-materializing
// oracle (oracle/foreign_key.h) and expects the same figures from both.
using FkDiscovery = std::vector<ForeignKeyCandidate> (*)(
    const std::vector<ProfiledTable>&, const ForeignKeyOptions&);
const std::pair<const char*, FkDiscovery> kVerifiers[] = {
    {"library", &DiscoverForeignKeys},
    {"oracle", &OracleDiscoverForeignKeys},
};

// The candidates of one (referencing table, referenced table, key) unit.
std::vector<ForeignKeyCandidate> UnitOf(
    const std::vector<ForeignKeyCandidate>& all, int referencing_table,
    int referenced_table, const AttributeSet& key) {
  std::vector<ForeignKeyCandidate> unit;
  for (const ForeignKeyCandidate& fk : all) {
    if (fk.referencing_table == referencing_table &&
        fk.referenced_table == referenced_table && fk.referenced_key == key) {
      unit.push_back(fk);
    }
  }
  return unit;
}

// orders -> customers{cust_id}.
std::vector<ForeignKeyCandidate> VerifyOrders(FkDiscovery discover,
                                              const NullFkFixture& f,
                                              double min_coverage) {
  ForeignKeyOptions options;
  options.min_distinct_values = 10;
  options.min_coverage = min_coverage;
  return UnitOf(discover(f.tables, options), /*referencing_table=*/1,
                /*referenced_table=*/0, AttributeSet{0});
}

TEST(ForeignKeyNullSemantics, NullTuplesExcludedFromDenominator) {
  NullFkFixture f = MakeNullFkFixture(/*dangling=*/false);
  for (const auto& [path, discover] : kVerifiers) {
    std::vector<ForeignKeyCandidate> fks = VerifyOrders(discover, f, 1.0);
    bool found = false;
    for (const ForeignKeyCandidate& fk : fks) {
      if (fk.foreign_key_columns == std::vector<int>{1}) {
        found = true;
        // 40 distinct non-NULL values, all covered. Were the NULL counted,
        // coverage would be 40/41 and strict mode would reject the FK.
        EXPECT_DOUBLE_EQ(fk.coverage, 1.0) << path;
        EXPECT_EQ(fk.distinct_fk_tuples, 40) << path;
      }
    }
    EXPECT_TRUE(found) << path;
  }
}

TEST(ForeignKeyNullSemantics, DanglingValueStillCountsBothPaths) {
  NullFkFixture f = MakeNullFkFixture(/*dangling=*/true);
  for (const auto& [path, discover] : kVerifiers) {
    std::vector<ForeignKeyCandidate> fks = VerifyOrders(discover, f, 0.5);
    bool found = false;
    for (const ForeignKeyCandidate& fk : fks) {
      if (fk.foreign_key_columns == std::vector<int>{1}) {
        found = true;
        // 41 distinct non-NULL values (40 genuine + 999), 40 covered.
        EXPECT_DOUBLE_EQ(fk.coverage, 40.0 / 41.0) << path;
        EXPECT_EQ(fk.distinct_fk_tuples, 41) << path;
      }
    }
    EXPECT_TRUE(found) << path;
  }
}

// Two-column references into the composite key (x, y). 80 rows reference
// existing pairs; 20 more carry a = 999, which is no x at all, but always
// next to a NULL b. Those tuples assert nothing, so (a, b) stays a strict
// inclusion: the per-column prune of a must not fire while b holds NULLs,
// and the NULL-bearing tuples stay out of the denominator.
TEST(ForeignKeyNullSemantics, AbsentValueBesideNullPartnerKeepsPair) {
  TableBuilder kb(Schema(std::vector<std::string>{"x", "y", "payload"}));
  for (int64_t x = 0; x < 10; ++x) {
    for (int64_t y = 0; y < 10; ++y) {
      kb.AddRow({Value(x), Value(y), Value(x * 100 + y)});
    }
  }
  Table keyed = kb.Build();
  TableBuilder rb(Schema(std::vector<std::string>{"a", "b"}));
  for (int64_t i = 0; i < 100; ++i) {
    if (i < 80) {
      rb.AddRow({Value(i / 10), Value(i % 10)});
    } else {
      rb.AddRow({Value(static_cast<int64_t>(999)), Value::Null()});
    }
  }
  Table refs = rb.Build();
  std::vector<ProfiledTable> tables;
  tables.push_back({"keyed", &keyed, FindKeys(keyed).KeySets()});
  tables.push_back({"refs", &refs, FindKeys(refs).KeySets()});

  for (double min_coverage : {1.0, 0.0}) {
    ForeignKeyOptions options;
    options.min_distinct_values = 10;
    options.min_coverage = min_coverage;
    for (const auto& [path, discover] : kVerifiers) {
      bool found = false;
      for (const ForeignKeyCandidate& fk :
           UnitOf(discover(tables, options), 1, 0, AttributeSet{0, 1})) {
        if (fk.foreign_key_columns == std::vector<int>{0, 1}) {
          found = true;
          EXPECT_DOUBLE_EQ(fk.coverage, 1.0) << path;
          EXPECT_EQ(fk.distinct_fk_tuples, 80) << path;
        }
      }
      EXPECT_TRUE(found) << path << " min_coverage=" << min_coverage;
    }
  }
}

TEST(Advisor, SchemaWideOverloadAdvisesEveryTable) {
  std::vector<NamedTable> db = GenerateTpchLite(/*scale=*/0.002, /*seed=*/31);
  ProfilingService service;
  SchemaProfiler profiler(&service);
  SchemaReport report;
  ASSERT_TRUE(profiler.Profile(Views(db), PermissiveOptions(), &report).ok());

  std::vector<std::unique_ptr<RowStore>> owned;
  std::vector<const RowStore*> stores;
  for (const SchemaReport::TableEntry& e : report.tables) {
    owned.push_back(std::make_unique<RowStore>(*e.table));
    stores.push_back(owned.back().get());
  }
  // Drop one store: that table must get an index-less planner.
  stores[1] = nullptr;

  std::vector<Planner> planners = BuildRecommendedIndexes(report, stores);
  ASSERT_EQ(planners.size(), report.tables.size());
  EXPECT_TRUE(planners[1].indexes().empty());
  bool any_indexes = false;
  for (size_t i = 0; i < planners.size(); ++i) {
    if (!planners[i].indexes().empty()) any_indexes = true;
  }
  EXPECT_TRUE(any_indexes);
}

}  // namespace
}  // namespace gordian
