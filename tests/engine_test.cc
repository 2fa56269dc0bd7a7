// Tests for the mini query engine: index correctness (equality and value
// ranges), plan/scan equivalence, the costing planner, and the advisor
// pipeline of Section 4.4.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/gordian.h"
#include "datagen/tpch_lite.h"
#include "engine/advisor.h"
#include "engine/executor.h"
#include "engine/index.h"
#include "engine/query.h"
#include "engine/row_store.h"
#include "engine/workload.h"

namespace gordian {
namespace {

Table SmallFact() { return GenerateTpchFact(5000, 21); }

TEST(RowStore, MirrorsTableCodes) {
  Table t = SmallFact();
  RowStore store(t);
  EXPECT_EQ(store.num_rows(), t.num_rows());
  EXPECT_EQ(store.num_columns(), t.num_columns());
  Random rng(1);
  for (int i = 0; i < 200; ++i) {
    int64_t r = rng.Uniform(t.num_rows());
    int c = static_cast<int>(rng.Uniform(t.num_columns()));
    EXPECT_EQ(store.at(r, c), t.code(r, c));
  }
}

TEST(CompositeIndex, EqualRangeFindsAllMatches) {
  Table t = SmallFact();
  RowStore store(t);
  int ok = t.schema().Find("f_orderkey");
  int ln = t.schema().Find("f_linenumber");
  CompositeIndex idx(t, store, {ok, ln});
  EXPECT_EQ(idx.num_entries(), t.num_rows());

  // Full-key lookup of a known row.
  uint32_t okc = t.code(123, ok), lnc = t.code(123, ln);
  auto [b, e] = idx.EqualRange({okc, lnc});
  EXPECT_EQ(e - b, 1);  // composite key -> unique entry
  EXPECT_EQ(idx.row_id(b), 123);

  // Prefix lookup: count must match a scan.
  auto [pb, pe] = idx.EqualRange({okc});
  int64_t expected = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    if (t.code(r, ok) == okc) ++expected;
  }
  EXPECT_EQ(pe - pb, expected);
}

TEST(CompositeIndex, EntriesAreValueSorted) {
  Table t = SmallFact();
  RowStore store(t);
  int ok = t.schema().Find("f_orderkey");
  int ln = t.schema().Find("f_linenumber");
  CompositeIndex idx(t, store, {ok, ln});
  const Dictionary& dok = t.dictionary(ok);
  const Dictionary& dln = t.dictionary(ln);
  for (int64_t e = 1; e < idx.num_entries(); ++e) {
    int64_t a0 = dok.Decode(idx.key(e - 1, 0)).int64();
    int64_t b0 = dok.Decode(idx.key(e, 0)).int64();
    ASSERT_LE(a0, b0) << "entry " << e;
    if (a0 == b0) {
      ASSERT_LE(dln.Decode(idx.key(e - 1, 1)).int64(),
                dln.Decode(idx.key(e, 1)).int64());
    }
  }
}

TEST(CompositeIndex, ValueRangeMatchesScanCount) {
  Table t = SmallFact();
  RowStore store(t);
  int ok = t.schema().Find("f_orderkey");
  CompositeIndex idx(t, store, {ok});
  auto [b, e] = idx.ValueRange(100, 300);
  int64_t expected = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    int64_t v = t.value(r, ok).int64();
    if (v >= 100 && v <= 300) ++expected;
  }
  EXPECT_EQ(e - b, expected);
  // Empty range.
  auto [eb, ee] = idx.ValueRange(-10, -5);
  EXPECT_EQ(eb, ee);
}

// Every NaN sorts after every other double, so a double column holding one
// is still a sorted index: each value's EqualRange finds exactly its row.
TEST(CompositeIndex, NanSortsLastAndEveryValueIsFound) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> column = {5, 1, 7, nan, 3, 9, 2, 8, 4, 6, 0};
  TableBuilder b(Schema(std::vector<std::string>{"d"}));
  for (double v : column) b.AddRow({Value(v)});
  Table t = b.Build();
  RowStore store(t);
  CompositeIndex idx(t, store, {0});
  ASSERT_EQ(idx.num_entries(), 11);
  const Dictionary& dict = t.dictionary(0);
  for (int64_t e = 0; e < 10; ++e) {
    EXPECT_EQ(dict.Decode(idx.key(e, 0)).dbl(), static_cast<double>(e));
  }
  EXPECT_TRUE(std::isnan(dict.Decode(idx.key(10, 0)).dbl()));
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    auto [begin, end] = idx.EqualRange({t.code(r, 0)});
    ASSERT_EQ(end - begin, 1) << "row " << r;
    EXPECT_EQ(idx.row_id(begin), r);
  }
  // -0.0 and 0.0 are equivalent, as == treats them; NaN is equivalent to
  // itself and above every other double.
  EXPECT_FALSE(Value(-0.0) < Value(0.0));
  EXPECT_FALSE(Value(0.0) < Value(-0.0));
  EXPECT_TRUE(Value(9.0) < Value(nan));
  EXPECT_FALSE(Value(nan) < Value(nan));
}

TEST(Executor, IndexPlansMatchScansOnTheWholeWorkload) {
  Table t = SmallFact();
  RowStore store(t);
  KeyDiscoveryResult keys = FindKeys(t);
  ASSERT_FALSE(keys.no_keys);
  Planner planner = BuildRecommendedIndexes(t, store, keys);

  for (const Query& q : MakeWarehouseWorkload(t, 33)) {
    QueryResult scan = ExecuteScan(t, store, q);
    PlanChoice plan = planner.Choose(t, q);
    QueryResult via_plan = Execute(t, store, plan, q);
    EXPECT_EQ(scan, via_plan) << q.label;
    EXPECT_GT(scan.rows_matched, 0) << q.label << " matches nothing";
  }
}

TEST(Executor, ForcedIndexAgreesWithScanOnEveryIndex) {
  // Even an index the planner would not choose must produce the right
  // answer (the executor re-verifies predicates).
  Table t = SmallFact();
  RowStore store(t);
  KeyDiscoveryResult keys = FindKeys(t);
  Planner planner = BuildRecommendedIndexes(t, store, keys);
  Query q;
  q.range.col = t.schema().Find("f_orderkey");
  q.range.lo = 50;
  q.range.hi = 500;
  q.projection = {t.schema().Find("f_quantity")};
  QueryResult scan = ExecuteScan(t, store, q);
  for (const auto& idx : planner.indexes()) {
    EXPECT_EQ(ExecuteWithIndex(t, store, *idx, q), scan) << idx->Describe();
  }
}

TEST(Executor, CoveringDetectionAndCostPreference) {
  Table t = SmallFact();
  RowStore store(t);
  int ok = t.schema().Find("f_orderkey");
  int ln = t.schema().Find("f_linenumber");
  int qty = t.schema().Find("f_quantity");
  std::vector<std::unique_ptr<CompositeIndex>> idxs;
  idxs.push_back(
      std::make_unique<CompositeIndex>(t, store, std::vector<int>{ok, ln}));
  idxs.push_back(std::make_unique<CompositeIndex>(
      t, store, std::vector<int>{ok, ln, qty}));
  Planner planner(std::move(idxs));

  Query covered;
  covered.predicates = {{ok, t.code(0, ok)}};
  covered.projection = {ok, ln};
  PlanChoice p1 = planner.Choose(t, covered);
  ASSERT_NE(p1.index, nullptr);
  EXPECT_TRUE(p1.covering);

  // Projection outside the 2-col index: the wider index covers and must be
  // preferred over fetching.
  Query wide = covered;
  wide.projection = {qty};
  PlanChoice p2 = planner.Choose(t, wide);
  ASSERT_NE(p2.index, nullptr);
  EXPECT_TRUE(p2.covering);
  EXPECT_EQ(p2.index->columns().size(), 3u);
}

TEST(Executor, PlannerFallsBackToScanWhenIndexWouldLose) {
  // A range spanning nearly the whole table with an uncovered projection:
  // per-match fetches cost more than one sequential scan.
  Table t = SmallFact();
  RowStore store(t);
  int ok = t.schema().Find("f_orderkey");
  std::vector<std::unique_ptr<CompositeIndex>> idxs;
  idxs.push_back(
      std::make_unique<CompositeIndex>(t, store, std::vector<int>{ok}));
  Planner planner(std::move(idxs));

  Query q;
  q.range.col = ok;
  q.range.lo = 0;
  q.range.hi = 1 << 30;
  q.projection = {t.schema().Find("f_quantity")};
  PlanChoice p = planner.Choose(t, q);
  EXPECT_EQ(p.index, nullptr);  // scan wins on cost

  // A narrow range flips the decision.
  q.range.lo = 10;
  q.range.hi = 20;
  PlanChoice narrow = planner.Choose(t, q);
  EXPECT_NE(narrow.index, nullptr);
}

TEST(Executor, PlannerRequiresLeadingColumnMatch) {
  Table t = SmallFact();
  RowStore store(t);
  int ok = t.schema().Find("f_orderkey");
  int ln = t.schema().Find("f_linenumber");
  int qty = t.schema().Find("f_quantity");
  std::vector<std::unique_ptr<CompositeIndex>> idxs;
  idxs.push_back(
      std::make_unique<CompositeIndex>(t, store, std::vector<int>{ok, ln}));
  Planner planner(std::move(idxs));

  // Predicate on the second index column only: not a leading prefix.
  Query q;
  q.predicates = {{ln, t.code(0, ln)}};
  q.projection = {qty};
  EXPECT_EQ(planner.Choose(t, q).index, nullptr);

  // Range on a non-leading column.
  Query q2;
  q2.range.col = ln;
  q2.range.lo = 1;
  q2.range.hi = 2;
  q2.projection = {ok};
  EXPECT_EQ(planner.Choose(t, q2).index, nullptr);

  // No predicates -> scan.
  Query q3;
  q3.projection = {ok};
  EXPECT_EQ(planner.Choose(t, q3).index, nullptr);
}

TEST(Advisor, RecommendsOneIndexPerKeyOrderedBySelectivity) {
  Table t = SmallFact();
  KeyDiscoveryResult keys = FindKeys(t);
  auto recs = RecommendIndexColumns(t, keys);
  EXPECT_EQ(recs.size(), keys.keys.size());
  for (const auto& cols : recs) {
    for (size_t i = 1; i < cols.size(); ++i) {
      EXPECT_GE(t.ColumnCardinality(cols[i - 1]),
                t.ColumnCardinality(cols[i]));
    }
  }
}

TEST(Workload, TwentyLabeledNonEmptyQueries) {
  Table t = SmallFact();
  RowStore store(t);
  auto workload = MakeWarehouseWorkload(t, 3);
  EXPECT_EQ(workload.size(), 20u);
  for (const Query& q : workload) {
    EXPECT_FALSE(q.label.empty());
    EXPECT_FALSE(q.projection.empty());
    QueryResult scan = ExecuteScan(t, store, q);
    EXPECT_GT(scan.rows_matched, 0) << q.label;
  }
}

}  // namespace
}  // namespace gordian
