// Targeted unit tests for FrozenNonKeyFinder (Algorithm 4) beyond the
// end-to-end sweeps: the Section 3.5 worked trace, pruning-counter behavior
// on crafted trees, and the interaction between traversal and the
// NonKeySet. Every run is repeated with the pointer-tree oracle, which must
// find the same non-keys with the same work counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/frozen_tree.h"
#include "core/gordian.h"
#include "core/prefix_tree.h"
#include "datagen/synthetic.h"
#include "oracle/non_key_finder.h"
#include "table/table.h"

namespace gordian {
namespace {

Table PaperDataset() {
  TableBuilder b(Schema(std::vector<std::string>{
      "First Name", "Last Name", "Phone", "Emp No"}));
  b.AddRow({Value("Michael"), Value("Thompson"), Value(int64_t{3478}),
            Value(int64_t{10})});
  b.AddRow({Value("Michael"), Value("Thompson"), Value(int64_t{6791}),
            Value(int64_t{50})});
  b.AddRow({Value("Michael"), Value("Spencer"), Value(int64_t{5237}),
            Value(int64_t{20})});
  b.AddRow({Value("Sally"), Value("Kwan"), Value(int64_t{3478}),
            Value(int64_t{90})});
  return b.Build();
}

std::vector<int> SchemaOrder(int d) {
  std::vector<int> order(d);
  for (int i = 0; i < d; ++i) order[i] = i;
  return order;
}

struct RunOutcome {
  std::vector<AttributeSet> non_keys;
  GordianStats stats;
};

RunOutcome RunFinder(const Table& t, const GordianOptions& o) {
  RunOutcome out;
  const std::vector<int> order = SchemaOrder(t.num_columns());
  std::unique_ptr<FrozenTree> frozen = FrozenTree::Build(t, order);
  NonKeySet set(&out.stats);
  FrozenNonKeyFinder finder(*frozen, o, &set, &out.stats);
  EXPECT_TRUE(finder.Run());
  out.non_keys = set.non_keys();

  // Parity with the oracle: same non-keys, in the same insertion order,
  // from the same amount of work.
  PrefixTree tree =
      PrefixTree::Build(t, order, GordianOptions::TreeBuild::kSorted);
  GordianStats oracle_stats;
  NonKeySet oracle_set(&oracle_stats);
  NonKeyFinder oracle(tree, o, &oracle_set, &oracle_stats);
  EXPECT_TRUE(oracle.Run());
  EXPECT_EQ(oracle_set.non_keys(), out.non_keys);
  EXPECT_EQ(oracle_stats.nodes_visited, out.stats.nodes_visited);
  EXPECT_EQ(oracle_stats.merges_performed, out.stats.merges_performed);
  EXPECT_EQ(oracle_stats.futility_prunes, out.stats.futility_prunes);
  EXPECT_EQ(oracle_stats.singleton_traversal_prunes,
            out.stats.singleton_traversal_prunes);
  EXPECT_EQ(oracle_stats.single_entity_prunes,
            out.stats.single_entity_prunes);
  return out;
}

TEST(FrozenNonKeyFinderTest, PaperTraceFindsTheTwoNonKeysWithOneFutilityPrune) {
  // Section 3.5 narrates exactly one futility prune on this dataset (at
  // node M3, the <First Name> segment) and singleton prunes at node (6) and
  // at nodes (4),(5),(7) during the merged traversal.
  GordianOptions o;
  RunOutcome out = RunFinder(PaperDataset(), o);
  std::sort(out.non_keys.begin(), out.non_keys.end());
  EXPECT_EQ(out.non_keys,
            (std::vector<AttributeSet>{AttributeSet{0, 1}, AttributeSet{2}}));
  // The paper's trace prunes the redundant <First Name> check at the leaf
  // of node M3; in this implementation that lands either in the merge-gate
  // futility counter or in the NonKeySet's covered-rejection fast path,
  // depending on where the redundancy is caught.
  EXPECT_GE(out.stats.futility_prunes + out.stats.non_keys_rejected_covered,
            1);
  EXPECT_GT(out.stats.singleton_traversal_prunes, 0);
}

TEST(FrozenNonKeyFinderTest, NoPruningStillFindsTheSameNonKeys) {
  GordianOptions o;
  o.singleton_pruning = false;
  o.futility_pruning = false;
  o.single_entity_pruning = false;
  RunOutcome out = RunFinder(PaperDataset(), o);
  std::sort(out.non_keys.begin(), out.non_keys.end());
  EXPECT_EQ(out.non_keys,
            (std::vector<AttributeSet>{AttributeSet{0, 1}, AttributeSet{2}}));
  // Without pruning, more nodes get visited.
  RunOutcome pruned = RunFinder(PaperDataset(), GordianOptions{});
  EXPECT_GT(out.stats.nodes_visited, pruned.stats.nodes_visited);
}

TEST(FrozenNonKeyFinderTest, UniqueColumnYieldsNoNonKeysThere) {
  // Table where column 0 is unique: no non-key may contain... actually a
  // non-key may not exist at all if every column is unique; craft column 0
  // unique, column 1 constant.
  TableBuilder b(Schema(std::vector<std::string>{"id", "const"}));
  for (int i = 0; i < 10; ++i) b.AddRow({Value(int64_t{i}), Value("x")});
  RunOutcome out = RunFinder(b.Build(), GordianOptions{});
  ASSERT_EQ(out.non_keys.size(), 1u);
  EXPECT_EQ(out.non_keys[0], AttributeSet{1});
}

TEST(FrozenNonKeyFinderTest, AllRowsIdenticalInOneColumnPair) {
  // Two columns, both constant: the maximal non-key is {0,1} (all rows
  // collide), found at the leaf of the base tree... but identical full rows
  // mean "no keys" and the tree flags it; the finder is not even run by
  // the facade. Here rows differ in a third column.
  TableBuilder b(Schema(std::vector<std::string>{"c1", "c2", "id"}));
  for (int i = 0; i < 8; ++i) {
    b.AddRow({Value("a"), Value("b"), Value(int64_t{i})});
  }
  RunOutcome out = RunFinder(b.Build(), GordianOptions{});
  ASSERT_EQ(out.non_keys.size(), 1u);
  EXPECT_EQ(out.non_keys[0], (AttributeSet{0, 1}));
}

TEST(FrozenNonKeyFinderTest, SingleEntityPruneCountsSlicesOfOneEntity) {
  // Distinct ids at the root level: every level-1 slice holds one entity.
  TableBuilder b(Schema(std::vector<std::string>{"id", "x", "y"}));
  for (int i = 0; i < 16; ++i) {
    b.AddRow({Value(int64_t{i}), Value(int64_t{i % 2}), Value(int64_t{i % 3})});
  }
  GordianOptions o;
  RunOutcome out = RunFinder(b.Build(), o);
  EXPECT_EQ(out.stats.single_entity_prunes, 16);
}

TEST(FrozenNonKeyFinderTest, EmptyTreeIsANoOp) {
  TableBuilder b(Schema(std::vector<std::string>{"a"}));
  Table t = b.Build();
  GordianOptions o;
  GordianStats stats;
  std::unique_ptr<FrozenTree> frozen = FrozenTree::Build(t, {0});
  NonKeySet set(&stats);
  FrozenNonKeyFinder finder(*frozen, o, &set, &stats);
  EXPECT_TRUE(finder.Run());
  EXPECT_EQ(set.size(), 0);
  EXPECT_EQ(stats.nodes_visited, 0);
}

// One finder run over `frozen`: its non-keys and counters.
RunOutcome RunOnTree(FrozenTree& frozen, const GordianOptions& o,
                     bool expect_complete) {
  RunOutcome out;
  NonKeySet set(&out.stats);
  FrozenNonKeyFinder finder(frozen, o, &set, &out.stats);
  EXPECT_EQ(finder.Run(), expect_complete);
  EXPECT_GT(finder.ArenaBytes(), 0);
  out.non_keys = set.non_keys();
  return out;
}

void ExpectSameRun(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.non_keys, b.non_keys);
  EXPECT_EQ(a.stats.nodes_visited, b.stats.nodes_visited);
  EXPECT_EQ(a.stats.merges_performed, b.stats.merges_performed);
  EXPECT_EQ(a.stats.merge_nodes_created, b.stats.merge_nodes_created);
  EXPECT_EQ(a.stats.singleton_traversal_prunes,
            b.stats.singleton_traversal_prunes);
  EXPECT_EQ(a.stats.singleton_merge_prunes, b.stats.singleton_merge_prunes);
  EXPECT_EQ(a.stats.single_entity_prunes, b.stats.single_entity_prunes);
  EXPECT_EQ(a.stats.futility_prunes, b.stats.futility_prunes);
  EXPECT_EQ(a.stats.non_key_insert_attempts, b.stats.non_key_insert_attempts);
}

TEST(FrozenNonKeyFinderTest, MergeIntermediatesAreReleased) {
  // Six columns of cardinality 10: merges nest several levels deep, and
  // without futility pruning they also share older merge outputs.
  SyntheticSpec spec = UniformSpec(6, 2000, 10, 0.5, 77);
  Table t;
  ASSERT_TRUE(GenerateSynthetic(spec, &t).ok());
  std::unique_ptr<FrozenTree> frozen = FrozenTree::Build(t, SchemaOrder(6));
  ASSERT_FALSE(frozen->has_duplicate_entities());

  for (bool futility : {true, false}) {
    // Releasing every merged tree undoes every share it took of a frozen
    // node, so the tree is as built and the next run sees the same tree.
    GordianOptions o;
    o.futility_pruning = futility;
    const RunOutcome first = RunOnTree(*frozen, o, true);
    EXPECT_GT(first.stats.merge_nodes_created, 0);
    EXPECT_TRUE(frozen->AllRefsAreOne());
    ExpectSameRun(first, RunOnTree(*frozen, o, true));
    EXPECT_TRUE(frozen->AllRefsAreOne());

    // An abort mid-recursion releases the merged trees still open too.
    GordianOptions capped = o;
    capped.max_non_keys = 1;
    const RunOutcome aborted = RunOnTree(*frozen, capped, false);
    EXPECT_TRUE(frozen->AllRefsAreOne());
    ExpectSameRun(aborted, RunOnTree(*frozen, capped, false));
    EXPECT_TRUE(frozen->AllRefsAreOne());
    ExpectSameRun(first, RunOnTree(*frozen, o, true));
  }
}

TEST(FrozenNonKeyFinderTest, FutilityPruningNeedsDiscoveredNonKeys) {
  // On a table whose only non-key is found last (lexicographically), the
  // futility counter stays low; the counter is data-dependent, so just
  // assert consistency: prunes require at least one prior non-key.
  TableBuilder b(Schema(std::vector<std::string>{"a", "b"}));
  for (int i = 0; i < 6; ++i) {
    b.AddRow({Value(int64_t{i}), Value(int64_t{i / 2})});
  }
  RunOutcome out = RunFinder(b.Build(), GordianOptions{});
  if (out.stats.futility_prunes > 0) {
    EXPECT_GT(out.stats.non_key_insert_attempts, 0);
  }
}

}  // namespace
}  // namespace gordian
