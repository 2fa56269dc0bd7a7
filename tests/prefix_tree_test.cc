// Unit tests for the prefix tree (Algorithm 2) and node merging
// (Algorithm 3, the pointer-tree MergeNodes of tests/oracle/), including the
// structures of the paper's Figures 6-8 and the reference-counting
// discipline.

#include "core/prefix_tree.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "oracle/merge_nodes.h"

namespace gordian {
namespace {

// The reconstructed Figure 1 dataset (see paper_example_test.cc).
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

std::vector<int> SchemaOrder(const Table& t) {
  std::vector<int> order(t.num_columns());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  return order;
}

class PrefixTreeModes
    : public ::testing::TestWithParam<GordianOptions::TreeBuild> {};

TEST_P(PrefixTreeModes, PaperTreeHasFigure6Shape) {
  Table t = PaperDataset();
  PrefixTree tree = PrefixTree::Build(t, SchemaOrder(t), GetParam());

  EXPECT_FALSE(tree.has_duplicate_entities());
  EXPECT_EQ(tree.num_entities(), 4);
  // Figure 6: ten nodes; cells = 2 (root) + 3 (last names) + 4 (phones)
  // + 4 (leaf emp-nos) = 13.
  EXPECT_EQ(tree.node_count(), 10);
  EXPECT_EQ(tree.cell_count(), 13);

  // Root: two cells (Michael, Sally); Michael's subtree carries 3 entities.
  PrefixTree::Node* root = tree.root();
  ASSERT_EQ(root->cells.size(), 2u);
  EXPECT_EQ(root->EntityCount(), 4);
  int64_t c0 = root->cells[0].count, c1 = root->cells[1].count;
  EXPECT_TRUE((c0 == 3 && c1 == 1) || (c0 == 1 && c1 == 3));
}

TEST_P(PrefixTreeModes, LeafCountsAreEntityMultiplicities) {
  TableBuilder b(Schema(std::vector<std::string>{"a", "b"}));
  b.AddRow({Value(int64_t{1}), Value(int64_t{1})});
  b.AddRow({Value(int64_t{1}), Value(int64_t{1})});
  b.AddRow({Value(int64_t{1}), Value(int64_t{2})});
  Table t = b.Build();
  PrefixTree tree = PrefixTree::Build(t, SchemaOrder(t), GetParam());
  EXPECT_TRUE(tree.has_duplicate_entities());
  ASSERT_EQ(tree.root()->cells.size(), 1u);
  EXPECT_EQ(tree.root()->cells[0].count, 3);
  PrefixTree::Node* leaf = tree.root()->cells[0].child;
  ASSERT_TRUE(leaf->is_leaf);
  ASSERT_EQ(leaf->cells.size(), 2u);
  EXPECT_EQ(leaf->cells[0].count + leaf->cells[1].count, 3);
}

TEST_P(PrefixTreeModes, SingleAttributeTableRootIsLeaf) {
  TableBuilder b(Schema(std::vector<std::string>{"a"}));
  b.AddRow({Value(int64_t{5})});
  b.AddRow({Value(int64_t{6})});
  Table t = b.Build();
  PrefixTree tree = PrefixTree::Build(t, SchemaOrder(t), GetParam());
  EXPECT_TRUE(tree.root()->is_leaf);
  EXPECT_EQ(tree.root()->cells.size(), 2u);
  EXPECT_FALSE(tree.has_duplicate_entities());
}

TEST_P(PrefixTreeModes, CellsAreSortedByCode) {
  TableBuilder b(Schema(std::vector<std::string>{"a", "b"}));
  for (int i : {5, 3, 9, 1, 7}) {
    b.AddRow({Value(int64_t{i}), Value(int64_t{i * 10})});
  }
  Table t = b.Build();
  PrefixTree tree = PrefixTree::Build(t, SchemaOrder(t), GetParam());
  const auto& cells = tree.root()->cells;
  for (size_t i = 1; i < cells.size(); ++i) {
    EXPECT_LT(cells[i - 1].code, cells[i].code);
  }
}

TEST_P(PrefixTreeModes, RespectsAttributeOrderPermutation) {
  TableBuilder b(Schema(std::vector<std::string>{"low", "high"}));
  for (int i = 0; i < 8; ++i) {
    b.AddRow({Value(int64_t{i % 2}), Value(int64_t{i})});
  }
  Table t = b.Build();
  // Root level = column 1 (high cardinality): 8 root cells.
  PrefixTree tree = PrefixTree::Build(t, {1, 0}, GetParam());
  EXPECT_EQ(tree.root()->cells.size(), 8u);
  EXPECT_EQ(tree.attribute_at_level(0), 1);
  EXPECT_EQ(tree.attribute_at_level(1), 0);
}

INSTANTIATE_TEST_SUITE_P(BuildModes, PrefixTreeModes,
                         ::testing::Values(GordianOptions::TreeBuild::kSorted,
                                           GordianOptions::TreeBuild::kInsertion),
                         [](const auto& info) {
                           return info.param == GordianOptions::TreeBuild::kSorted
                                      ? "Sorted"
                                      : "Insertion";
                         });

TEST(PrefixTree, SortedAndInsertionBuildsAreStructurallyIdentical) {
  TableBuilder b(Schema(std::vector<std::string>{"a", "b", "c"}));
  for (int i = 0; i < 200; ++i) {
    b.AddRow({Value(int64_t{i % 7}), Value(int64_t{(i * 13) % 11}),
              Value(int64_t{i})});
  }
  Table t = b.Build();
  PrefixTree sorted =
      PrefixTree::Build(t, {0, 1, 2}, GordianOptions::TreeBuild::kSorted);
  PrefixTree inserted =
      PrefixTree::Build(t, {0, 1, 2}, GordianOptions::TreeBuild::kInsertion);
  EXPECT_EQ(sorted.node_count(), inserted.node_count());
  EXPECT_EQ(sorted.cell_count(), inserted.cell_count());

  // Deep structural comparison.
  struct Cmp {
    static void Compare(const PrefixTree::Node* a, const PrefixTree::Node* b) {
      ASSERT_EQ(a->is_leaf, b->is_leaf);
      ASSERT_EQ(a->cells.size(), b->cells.size());
      for (size_t i = 0; i < a->cells.size(); ++i) {
        EXPECT_EQ(a->cells[i].code, b->cells[i].code);
        EXPECT_EQ(a->cells[i].count, b->cells[i].count);
        if (!a->is_leaf) Compare(a->cells[i].child, b->cells[i].child);
      }
    }
  };
  Cmp::Compare(sorted.root(), inserted.root());
}

TEST(PrefixTree, MergeOfSingleNodeSharesIt) {
  Table t = PaperDataset();
  PrefixTree tree =
      PrefixTree::Build(t, SchemaOrder(t), GordianOptions::TreeBuild::kSorted);
  PrefixTree::Node* child = tree.root()->cells[0].child;
  EXPECT_EQ(child->ref_count, 1);
  PrefixTree::Node* merged = MergeNodes(tree.pool(), {child}, nullptr);
  EXPECT_EQ(merged, child);
  EXPECT_EQ(child->ref_count, 2);
  tree.pool().Unref(merged);
  EXPECT_EQ(child->ref_count, 1);
}

TEST(PrefixTree, MergeSumsLeafCountsAndUnionsValues) {
  // Two leaves {1:1, 2:1} and {2:1, 3:1} merge to {1:1, 2:2, 3:1}.
  TableBuilder b(Schema(std::vector<std::string>{"a", "b"}));
  b.AddRow({Value(int64_t{0}), Value(int64_t{1})});
  b.AddRow({Value(int64_t{0}), Value(int64_t{2})});
  b.AddRow({Value(int64_t{1}), Value(int64_t{2})});
  b.AddRow({Value(int64_t{1}), Value(int64_t{3})});
  Table t = b.Build();
  PrefixTree tree =
      PrefixTree::Build(t, {0, 1}, GordianOptions::TreeBuild::kSorted);
  std::vector<PrefixTree::Node*> children = {tree.root()->cells[0].child,
                                             tree.root()->cells[1].child};
  GordianStats stats;
  PrefixTree::Node* merged = MergeNodes(tree.pool(), children, &stats);
  ASSERT_TRUE(merged->is_leaf);
  ASSERT_EQ(merged->cells.size(), 3u);
  EXPECT_EQ(merged->cells[0].count, 1);
  EXPECT_EQ(merged->cells[1].count, 2);
  EXPECT_EQ(merged->cells[2].count, 1);
  EXPECT_EQ(stats.merges_performed, 1);
  EXPECT_EQ(stats.merge_nodes_created, 1);
  tree.pool().Unref(merged);
}

TEST(PrefixTree, MergeRecursesAndSharesSubtrees) {
  Table t = PaperDataset();
  PrefixTree tree =
      PrefixTree::Build(t, SchemaOrder(t), GordianOptions::TreeBuild::kSorted);
  // Merge the two children of the root (the "Michael" and "Sally" last-name
  // nodes) — this is the Figure 8(d) merge: the result must reference the
  // existing level-2 nodes rather than copy them.
  std::vector<PrefixTree::Node*> children = {tree.root()->cells[0].child,
                                             tree.root()->cells[1].child};
  int64_t nodes_before = tree.pool().live_nodes();
  PrefixTree::Node* merged = MergeNodes(tree.pool(), children, nullptr);
  ASSERT_EQ(merged->cells.size(), 3u);  // Thompson, Spencer, Kwan
  // Only one new node was allocated (the merged level-1 node): its children
  // are shared.
  EXPECT_EQ(tree.pool().live_nodes(), nodes_before + 1);
  for (const PrefixTree::Cell& c : merged->cells) {
    EXPECT_GE(c.child->ref_count, 2);
  }
  tree.pool().Unref(merged);
  EXPECT_EQ(tree.pool().live_nodes(), nodes_before);
}

TEST(PrefixTree, UnrefReleasesAllMemory) {
  Table t = PaperDataset();
  int64_t nodes;
  {
    PrefixTree tree = PrefixTree::Build(t, SchemaOrder(t),
                                        GordianOptions::TreeBuild::kSorted);
    nodes = tree.pool().live_nodes();
    EXPECT_GT(nodes, 0);
    EXPECT_GT(tree.pool().current_bytes(), 0);
    // Destructor unrefs the root; pool is owned by the tree so we observe
    // through peak vs current before destruction.
    EXPECT_LE(tree.pool().current_bytes(), tree.pool().peak_bytes());
  }
  SUCCEED();
}

TEST(PrefixTree, MoveTransfersOwnership) {
  Table t = PaperDataset();
  PrefixTree a = PrefixTree::Build(t, SchemaOrder(t),
                                   GordianOptions::TreeBuild::kSorted);
  PrefixTree b = std::move(a);
  EXPECT_NE(b.root(), nullptr);
  EXPECT_EQ(b.num_entities(), 4);
}

TEST(PrefixTree, EmptyTableYieldsEmptyRoot) {
  TableBuilder b(Schema(std::vector<std::string>{"a", "b"}));
  Table t = b.Build();
  PrefixTree tree =
      PrefixTree::Build(t, {0, 1}, GordianOptions::TreeBuild::kSorted);
  EXPECT_EQ(tree.root()->cells.size(), 0u);
  EXPECT_EQ(tree.num_entities(), 0);
  EXPECT_FALSE(tree.has_duplicate_entities());
}

}  // namespace
}  // namespace gordian
