// Tests for the staged profiling pipeline (core/pipeline.h): a session
// must reproduce FindKeys and the pointer-tree oracle byte for byte,
// shared frozen-tree runs must match fresh runs and leave the injected tree
// reusable, and per-stage metrics must cover the executed stages.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/gordian.h"
#include "core/pipeline.h"
#include "core/prefix_tree.h"
#include "datagen/synthetic.h"
#include "oracle/non_key_finder.h"

namespace gordian {
namespace {

Table MakeTable(int64_t rows, uint64_t seed, int columns = 6) {
  SyntheticSpec spec = UniformSpec(columns, rows, 24, 0.4, seed);
  spec.columns[0].cardinality = 200;
  spec.columns[2].cardinality = 48;
  spec.planted_keys.push_back({0, 2});
  spec.planted_keys.push_back({1, 3, 4});
  Table t;
  Status s = GenerateSynthetic(spec, &t);
  EXPECT_TRUE(s.ok());
  return t;
}

// FormatResult-level equality is the PR's definition of "byte-identical
// report": keys, non-keys, strengths, and flags all feed the text.
void ExpectSameReport(const Table& table, const KeyDiscoveryResult& a,
                      const KeyDiscoveryResult& b) {
  EXPECT_EQ(FormatResult(table, a), FormatResult(table, b));
  EXPECT_EQ(a.no_keys, b.no_keys);
  EXPECT_EQ(a.sampled, b.sampled);
  EXPECT_EQ(a.incomplete, b.incomplete);
  ASSERT_EQ(a.non_keys.size(), b.non_keys.size());
  for (size_t i = 0; i < a.non_keys.size(); ++i) {
    EXPECT_EQ(a.non_keys[i], b.non_keys[i]);
  }
}

TEST(PipelineTest, SessionMatchesFindKeys) {
  Table t = MakeTable(3000, 17);
  GordianOptions opt;
  KeyDiscoveryResult baseline = FindKeys(t, opt);

  ProfileSession session(opt);
  KeyDiscoveryResult piped;
  ASSERT_TRUE(session.Run(t, &piped).ok());
  ExpectSameReport(t, baseline, piped);
  EXPECT_EQ(baseline.stats.nodes_visited, piped.stats.nodes_visited);
  EXPECT_EQ(baseline.stats.merges_performed, piped.stats.merges_performed);
  EXPECT_EQ(baseline.stats.final_non_keys, piped.stats.final_non_keys);
}

TEST(PipelineTest, SessionMatchesOracle) {
  Table t = MakeTable(3000, 23);
  KeyDiscoveryResult oracle = OracleFindKeys(t);

  ProfileSession session(GordianOptions{});
  KeyDiscoveryResult piped;
  ASSERT_TRUE(session.Run(t, &piped).ok());
  ExpectSameReport(t, oracle, piped);
  EXPECT_EQ(oracle.stats.nodes_visited, piped.stats.nodes_visited);
  EXPECT_EQ(oracle.stats.merges_performed, piped.stats.merges_performed);
}

TEST(PipelineTest, SharedTreeRunMatchesFreshRunAndTreeStaysReusable) {
  Table t = MakeTable(2500, 31);
  GordianOptions opt;
  KeyDiscoveryResult baseline = OracleFindKeys(t, opt);

  ProfileSession builder(opt);
  KeyDiscoveryResult first;
  ASSERT_TRUE(builder.Run(t, &first).ok());
  std::unique_ptr<FrozenTree> tree = builder.TakeFrozenTree();
  ASSERT_NE(tree, nullptr);
  const int64_t pristine_bytes = tree->ApproxBytes();

  // Traversal temporarily mutates node refcounts on the shared tree; after
  // each run the tree must come back byte-identical, so it can serve an
  // unbounded sequence of runs.
  for (int round = 0; round < 3; ++round) {
    ProfileSession reuser(opt);
    reuser.set_shared_frozen_tree(tree.get());
    KeyDiscoveryResult reused;
    ASSERT_TRUE(reuser.Run(t, &reused).ok());
    ExpectSameReport(t, baseline, reused);
    EXPECT_EQ(tree->ApproxBytes(), pristine_bytes);
    EXPECT_EQ(reuser.TakeTree(), nullptr);  // run built nothing
  }
}

TEST(PipelineTest, SharedFrozenTreeRunMatchesAndStaysReusable) {
  // The tree-cache-hit shape: the frozen tree is injected, so the run skips
  // the build and the freeze.
  Table t = MakeTable(2500, 37);
  GordianOptions opt;
  KeyDiscoveryResult baseline = OracleFindKeys(t, opt);

  ProfileSession builder(opt);
  KeyDiscoveryResult first;
  ASSERT_TRUE(builder.Run(t, &first).ok());
  std::unique_ptr<PrefixTree> tree = builder.TakeTree();
  std::unique_ptr<FrozenTree> frozen = builder.TakeFrozenTree();
  ASSERT_NE(tree, nullptr);
  ASSERT_NE(frozen, nullptr);
  // The cold run seeded its traversal from the tree it built; the tree
  // keeps those seeds for every hit.
  const std::vector<AttributeSet> seeds = frozen->agree_seeds();
  ASSERT_FALSE(seeds.empty());
  EXPECT_EQ(first.stats.agree_seeds, static_cast<int64_t>(seeds.size()));
  ExpectSameReport(t, baseline, first);

  for (int round = 0; round < 2; ++round) {
    ProfileSession reuser(opt);
    reuser.set_shared_frozen_tree(frozen.get());
    KeyDiscoveryResult reused;
    ASSERT_TRUE(reuser.Run(t, &reused).ok());
    ExpectSameReport(t, baseline, reused);
    EXPECT_EQ(frozen->agree_seeds(), seeds);
    EXPECT_EQ(reused.stats.agree_seeds, first.stats.agree_seeds);
    EXPECT_EQ(reused.stats.nodes_visited, first.stats.nodes_visited);
    EXPECT_EQ(reused.stats.merges_performed, first.stats.merges_performed);
    EXPECT_EQ(reused.stats.futility_prunes, first.stats.futility_prunes);
    EXPECT_EQ(reused.stats.final_non_keys, first.stats.final_non_keys);
    EXPECT_EQ(reused.stats.freeze_seconds, 0.0);
    EXPECT_EQ(reuser.TakeFrozenTree(), nullptr);  // froze nothing
    EXPECT_TRUE(frozen->AllRefsAreOne());
  }
}

TEST(PipelineTest, SampledRunMatchesFindKeys) {
  Table t = MakeTable(4000, 41);
  GordianOptions opt;
  opt.sample_rows = 500;
  opt.sample_seed = 7;
  KeyDiscoveryResult baseline = FindKeys(t, opt);
  ASSERT_TRUE(baseline.sampled);

  ProfileSession session(opt);
  KeyDiscoveryResult piped;
  ASSERT_TRUE(session.Run(t, &piped).ok());
  ExpectSameReport(t, baseline, piped);
  ExpectSameReport(t, OracleFindKeys(t, opt), piped);
}

TEST(PipelineTest, NullExclusionRunMatchesFindKeys) {
  // A nullable column forces EncodeStage down the null-projection path
  // (nested session over the projected table).
  TableBuilder b(Schema(std::vector<std::string>{"maybe", "id", "mod"}));
  for (int64_t i = 0; i < 400; ++i) {
    b.AddRow({i % 11 == 0 ? Value::Null() : Value(i % 30), Value(i),
              Value(i % 17)});
  }
  Table t = b.Build();

  GordianOptions opt;
  opt.null_semantics = GordianOptions::NullSemantics::kExcludeNullableColumns;
  KeyDiscoveryResult baseline = FindKeys(t, opt);

  ProfileSession session(opt);
  KeyDiscoveryResult piped;
  ASSERT_TRUE(session.Run(t, &piped).ok());
  ExpectSameReport(t, baseline, piped);
  ExpectSameReport(t, OracleFindKeys(t, opt), piped);
}

TEST(PipelineTest, DuplicateEntitiesConcludeAfterTreeBuild) {
  // Two columns of cardinality 2 over 200 rows guarantee duplicate
  // entities: the run must conclude with no_keys after tree build, leaving
  // no traversal metrics behind.
  SyntheticSpec spec = UniformSpec(2, 200, 2, 0.0, 53);
  spec.ensure_unique_rows = false;
  Table t;
  ASSERT_TRUE(GenerateSynthetic(spec, &t).ok());

  ProfileSession session(GordianOptions{});
  KeyDiscoveryResult r;
  ASSERT_TRUE(session.Run(t, &r).ok());
  EXPECT_TRUE(r.no_keys);
  EXPECT_TRUE(r.keys.empty());
  for (const StageMetric& m : session.stage_metrics()) {
    EXPECT_NE(m.name, std::string("traverse"));
  }
  ExpectSameReport(t, OracleFindKeys(t), r);
  // The run still ends with its frozen tree, flagged.
  std::unique_ptr<FrozenTree> frozen = session.TakeFrozenTree();
  ASSERT_NE(frozen, nullptr);
  EXPECT_TRUE(frozen->has_duplicate_entities());
}

TEST(PipelineTest, TakeTreeBuildsThePointerTreeOfTheLastColdRun) {
  // TakeTree builds on request, over the last cold run's input in that
  // run's attribute order: the tree the run's frozen layout flattens.
  Table t = MakeTable(1500, 43);
  ProfileSession session(GordianOptions{});
  KeyDiscoveryResult r;
  ASSERT_TRUE(session.Run(t, &r).ok());
  std::unique_ptr<FrozenTree> frozen = session.TakeFrozenTree();
  std::unique_ptr<PrefixTree> tree = session.TakeTree();
  ASSERT_NE(frozen, nullptr);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->attr_order(), frozen->attr_order());
  EXPECT_EQ(tree->node_count(), frozen->node_count());
  EXPECT_EQ(tree->cell_count(), frozen->cell_count());
  EXPECT_EQ(FrozenTree::Freeze(*tree)->ApproxBytes(), frozen->ApproxBytes());
  EXPECT_EQ(session.TakeTree(), nullptr);  // already taken

  // A sampled run's rows are gone with the run.
  GordianOptions sampled;
  sampled.sample_rows = 300;
  ProfileSession sampler(sampled);
  ASSERT_TRUE(sampler.Run(t, &r).ok());
  ASSERT_TRUE(r.sampled);
  EXPECT_NE(sampler.TakeFrozenTree(), nullptr);
  EXPECT_EQ(sampler.TakeTree(), nullptr);
}

TEST(PipelineTest, TrivialTablesMatchOracle) {
  // Single row, empty table, single column: the traversal either never
  // runs or visits one leaf, and every path must still report like the
  // oracle.
  std::vector<Table> tables;
  {
    TableBuilder b(Schema(std::vector<std::string>{"a", "b", "c"}));
    b.AddRow({Value(int64_t{1}), Value("x"), Value(2.0)});
    tables.push_back(b.Build());
  }
  {
    TableBuilder b(Schema(std::vector<std::string>{"a", "b"}));
    tables.push_back(b.Build());
  }
  {
    TableBuilder b(Schema(std::vector<std::string>{"only"}));
    for (int64_t i = 0; i < 5; ++i) b.AddRow({Value(i)});
    tables.push_back(b.Build());
  }
  for (const Table& t : tables) {
    ProfileSession session(GordianOptions{});
    KeyDiscoveryResult r;
    ASSERT_TRUE(session.Run(t, &r).ok());
    ExpectSameReport(t, OracleFindKeys(t), r);
  }
}

TEST(PipelineTest, PreCancelledRunFinishesIncomplete) {
  Table t = MakeTable(1000, 59);
  std::atomic<bool> cancel{true};
  GordianOptions opt;
  opt.cancel_flag = &cancel;
  ProfileSession session(opt);
  KeyDiscoveryResult r;
  ASSERT_TRUE(session.Run(t, &r).ok());
  EXPECT_TRUE(r.incomplete);
  EXPECT_EQ(r.incomplete_reason, AbortReason::kCancelled);
  EXPECT_TRUE(r.keys.empty());
}

// Table::FromColumns does not check the width, so a table one column past
// AttributeSet::kMaxAttributes can reach the session. It must run no stage
// (no attribute set can name column 128), and FindKeys must certify
// nothing.
TEST(PipelineTest, TableWiderThanAttributeLimitRunsNoStage) {
  const int d = AttributeSet::kMaxAttributes + 1;
  std::vector<std::string> names;
  std::vector<std::shared_ptr<Dictionary>> dicts;
  std::vector<std::vector<uint32_t>> codes;
  for (int c = 0; c < d; ++c) {
    names.push_back("c" + std::to_string(c));
    auto dict = std::make_shared<Dictionary>();
    std::vector<uint32_t> column;
    for (int64_t r = 0; r < 4; ++r) column.push_back(dict->Encode(r % 2));
    dicts.push_back(std::move(dict));
    codes.push_back(std::move(column));
  }
  const Table wide =
      Table::FromColumns(Schema(names), std::move(dicts), std::move(codes));
  ASSERT_EQ(wide.num_columns(), d);

  ProfileSession session{GordianOptions{}};
  KeyDiscoveryResult r;
  EXPECT_EQ(session.Run(wide, &r).code(), Status::Code::kInvalidArgument);
  EXPECT_TRUE(session.stage_metrics().empty());
  EXPECT_EQ(session.TakeFrozenTree(), nullptr);
  for (const KeyDiscoveryResult& result : {r, FindKeys(wide)}) {
    EXPECT_TRUE(result.incomplete);
    EXPECT_EQ(result.incomplete_reason, AbortReason::kTooManyAttributes);
    EXPECT_FALSE(result.no_keys);
    EXPECT_TRUE(result.keys.empty());
    EXPECT_TRUE(result.non_keys.empty());
    EXPECT_EQ(result.stats.num_attributes, d);
  }
}

TEST(PipelineTest, StageMetricsCoverExecutedStages) {
  Table t = MakeTable(2000, 61);
  GordianOptions opt;
  ProfileSession session(opt);
  KeyDiscoveryResult r;
  ASSERT_TRUE(session.Run(t, &r).ok());

  const std::vector<StageMetric>& metrics = session.stage_metrics();
  ASSERT_EQ(metrics.size(), 5u);
  const char* expected[] = {"encode", "tree_build", "traverse", "convert",
                            "validate"};
  for (size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_EQ(metrics[i].name, expected[i]);
    EXPECT_GE(metrics[i].seconds, 0.0);
  }
  // Tree build's bytes are the frozen tree's; traversal's the run's peak.
  EXPECT_GT(metrics[1].bytes, 0);
  EXPECT_GT(metrics[2].bytes, 0);
}

TEST(PipelineTest, SessionIsReusableAcrossTables) {
  Table a = MakeTable(1500, 67);
  Table b = MakeTable(1500, 71);
  GordianOptions opt;
  ProfileSession session(opt);

  KeyDiscoveryResult ra, rb, ra2;
  ASSERT_TRUE(session.Run(a, &ra).ok());
  ASSERT_TRUE(session.Run(b, &rb).ok());
  ASSERT_TRUE(session.Run(a, &ra2).ok());
  ExpectSameReport(a, ra, ra2);
  ExpectSameReport(a, FindKeys(a, opt), ra);
  ExpectSameReport(b, FindKeys(b, opt), rb);
}

}  // namespace
}  // namespace gordian
