// Algebraic property tests for prefix-tree merging (Algorithm 3): the merge
// of a node set must equal the tree built from the concatenated underlying
// data, independent of grouping and input order. These invariants are what
// make the doubly recursive traversal enumerate projections correctly.

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "core/prefix_tree.h"
#include "oracle/merge_nodes.h"
#include "table/table.h"

namespace gordian {
namespace {

// Structural equality of two subtrees.
void ExpectSameTree(const PrefixTree::Node* a, const PrefixTree::Node* b) {
  ASSERT_EQ(a->is_leaf, b->is_leaf);
  ASSERT_EQ(a->cells.size(), b->cells.size());
  for (size_t i = 0; i < a->cells.size(); ++i) {
    EXPECT_EQ(a->cells[i].code, b->cells[i].code);
    EXPECT_EQ(a->cells[i].count, b->cells[i].count);
    if (!a->is_leaf) ExpectSameTree(a->cells[i].child, b->cells[i].child);
  }
}

// Builds a random (rows x 3) table whose column 0 has `groups` distinct
// values; the subtrees under the root's cells are merge inputs.
Table GroupedTable(int rows, int groups, uint64_t seed) {
  Random rng(seed);
  TableBuilder b(Schema(std::vector<std::string>{"g", "x", "y"}));
  for (int r = 0; r < rows; ++r) {
    b.AddRow({Value(static_cast<int64_t>(rng.Uniform(groups))),
              Value(static_cast<int64_t>(rng.Uniform(5))),
              Value(static_cast<int64_t>(rng.Uniform(7)))});
  }
  return b.Build();
}

struct MergeCase {
  int rows;
  int groups;
  uint64_t seed;
};

class MergeAlgebra : public ::testing::TestWithParam<MergeCase> {};

// merge(children of root) must equal the tree of the same data with the
// grouping column dropped.
TEST_P(MergeAlgebra, MergeEqualsProjection) {
  const MergeCase& c = GetParam();
  Table t = GroupedTable(c.rows, c.groups, c.seed);
  PrefixTree tree =
      PrefixTree::Build(t, {0, 1, 2}, GordianOptions::TreeBuild::kSorted);
  std::vector<PrefixTree::Node*> children;
  for (const PrefixTree::Cell& cell : tree.root()->cells) {
    children.push_back(cell.child);
  }
  PrefixTree::Node* merged = MergeNodes(tree.pool(), children, nullptr);

  Table projected = t.SelectColumns({1, 2});
  PrefixTree expect =
      PrefixTree::Build(projected, {0, 1}, GordianOptions::TreeBuild::kSorted);
  ExpectSameTree(merged, expect.root());
  tree.pool().Unref(merged);
}

// Associativity: merging everything at once equals merging a merge result
// with the remaining nodes.
TEST_P(MergeAlgebra, MergeIsGroupingInsensitive) {
  const MergeCase& c = GetParam();
  Table t = GroupedTable(c.rows, c.groups, c.seed ^ 0xa5a5);
  PrefixTree tree =
      PrefixTree::Build(t, {0, 1, 2}, GordianOptions::TreeBuild::kSorted);
  std::vector<PrefixTree::Node*> children;
  for (const PrefixTree::Cell& cell : tree.root()->cells) {
    children.push_back(cell.child);
  }
  if (children.size() < 3) return;

  PrefixTree::Node* all = MergeNodes(tree.pool(), children, nullptr);

  std::vector<PrefixTree::Node*> first_two(children.begin(),
                                           children.begin() + 2);
  PrefixTree::Node* partial = MergeNodes(tree.pool(), first_two, nullptr);
  std::vector<PrefixTree::Node*> rest = {partial};
  rest.insert(rest.end(), children.begin() + 2, children.end());
  PrefixTree::Node* grouped = MergeNodes(tree.pool(), rest, nullptr);

  ExpectSameTree(all, grouped);
  tree.pool().Unref(grouped);
  tree.pool().Unref(partial);
  tree.pool().Unref(all);
}

// Input order must not matter.
TEST_P(MergeAlgebra, MergeIsOrderInsensitive) {
  const MergeCase& c = GetParam();
  Table t = GroupedTable(c.rows, c.groups, c.seed ^ 0x1111);
  PrefixTree tree =
      PrefixTree::Build(t, {0, 1, 2}, GordianOptions::TreeBuild::kSorted);
  std::vector<PrefixTree::Node*> children;
  for (const PrefixTree::Cell& cell : tree.root()->cells) {
    children.push_back(cell.child);
  }
  if (children.size() < 2) return;
  PrefixTree::Node* forward = MergeNodes(tree.pool(), children, nullptr);
  std::vector<PrefixTree::Node*> reversed(children.rbegin(), children.rend());
  PrefixTree::Node* backward = MergeNodes(tree.pool(), reversed, nullptr);
  ExpectSameTree(forward, backward);
  tree.pool().Unref(forward);
  tree.pool().Unref(backward);
}

// Entity counts are conserved by merging.
TEST_P(MergeAlgebra, MergePreservesEntityCount) {
  const MergeCase& c = GetParam();
  Table t = GroupedTable(c.rows, c.groups, c.seed ^ 0x2222);
  PrefixTree tree =
      PrefixTree::Build(t, {0, 1, 2}, GordianOptions::TreeBuild::kSorted);
  std::vector<PrefixTree::Node*> children;
  int64_t total = 0;
  for (const PrefixTree::Cell& cell : tree.root()->cells) {
    children.push_back(cell.child);
    total += cell.count;
  }
  PrefixTree::Node* merged = MergeNodes(tree.pool(), children, nullptr);
  EXPECT_EQ(merged->EntityCount(), total);
  EXPECT_EQ(total, t.num_rows());
  tree.pool().Unref(merged);
}

// Reference counting balances across arbitrary merge/unref sequences.
TEST_P(MergeAlgebra, RefCountsBalance) {
  const MergeCase& c = GetParam();
  Table t = GroupedTable(c.rows, c.groups, c.seed ^ 0x3333);
  PrefixTree tree =
      PrefixTree::Build(t, {0, 1, 2}, GordianOptions::TreeBuild::kSorted);
  int64_t base_nodes = tree.pool().live_nodes();
  int64_t base_bytes = tree.pool().current_bytes();

  Random rng(c.seed);
  for (int round = 0; round < 5; ++round) {
    std::vector<PrefixTree::Node*> children;
    for (const PrefixTree::Cell& cell : tree.root()->cells) {
      children.push_back(cell.child);
    }
    PrefixTree::Node* m1 = MergeNodes(tree.pool(), children, nullptr);
    PrefixTree::Node* m2 = MergeNodes(
        tree.pool(), {m1}, nullptr);  // shared re-merge
    EXPECT_EQ(m1, m2);
    tree.pool().Unref(m2);
    tree.pool().Unref(m1);
    EXPECT_EQ(tree.pool().live_nodes(), base_nodes);
    EXPECT_EQ(tree.pool().current_bytes(), base_bytes);
  }
}

std::vector<MergeCase> MakeMergeCases() {
  std::vector<MergeCase> cases;
  uint64_t seed = 400;
  for (int rows : {10, 60, 300}) {
    for (int groups : {2, 4, 9}) {
      cases.push_back({rows, groups, seed += 3});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomGroupings, MergeAlgebra,
                         ::testing::ValuesIn(MakeMergeCases()),
                         [](const auto& info) {
                           return "r" + std::to_string(info.param.rows) + "_g" +
                                  std::to_string(info.param.groups) + "_s" +
                                  std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace gordian
