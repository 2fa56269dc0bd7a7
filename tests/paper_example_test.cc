// End-to-end checks against the paper's running example (Figure 1 and the
// worked non-key search trace of Section 3.5, which FindKeys runs through
// FrozenNonKeyFinder).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bruteforce/brute_force.h"
#include "core/gordian.h"
#include "oracle/non_key_finder.h"
#include "table/table.h"

namespace gordian {
namespace {

// The four-employee dataset of Figure 1. Column positions:
// 0 = First Name, 1 = Last Name, 2 = Phone, 3 = Emp No.
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

std::vector<AttributeSet> Sorted(std::vector<AttributeSet> sets) {
  std::sort(sets.begin(), sets.end());
  return sets;
}

TEST(PaperExample, FindsExactlyTheThreeMinimalKeys) {
  Table t = PaperDataset();
  // Keep the paper's schema order so the trace matches Section 3.5.
  GordianOptions opts;
  opts.attribute_order = GordianOptions::AttributeOrder::kSchema;
  KeyDiscoveryResult r = FindKeys(t, opts);

  ASSERT_FALSE(r.no_keys);
  // Section 3.7: keys are <EmpNo>, <First Name, Phone>, <Last Name, Phone>.
  std::vector<AttributeSet> expected = {
      AttributeSet{3}, AttributeSet{0, 2}, AttributeSet{1, 2}};
  EXPECT_EQ(Sorted(r.KeySets()), Sorted(expected));
}

TEST(PaperExample, FindsExactlyTheTwoNonRedundantNonKeys) {
  Table t = PaperDataset();
  GordianOptions opts;
  opts.attribute_order = GordianOptions::AttributeOrder::kSchema;
  KeyDiscoveryResult r = FindKeys(t, opts);

  // Section 2: the non-redundant non-keys are <Phone> and
  // <First Name, Last Name>.
  std::vector<AttributeSet> expected = {AttributeSet{2}, AttributeSet{0, 1}};
  EXPECT_EQ(Sorted(r.non_keys), Sorted(expected));
}

TEST(PaperExample, BruteForceAgrees) {
  Table t = PaperDataset();
  BruteForceResult bf = BruteForceAll(t);
  GordianOptions opts;
  opts.attribute_order = GordianOptions::AttributeOrder::kSchema;
  KeyDiscoveryResult r = FindKeys(t, opts);
  EXPECT_EQ(Sorted(bf.keys), Sorted(r.KeySets()));
}

TEST(PaperExample, EveryKeyIsUniqueAndMinimal) {
  Table t = PaperDataset();
  KeyDiscoveryResult r = FindKeys(t);
  for (const DiscoveredKey& k : r.keys) {
    EXPECT_TRUE(t.IsUnique(k.attrs)) << k.attrs.ToString();
    // Minimality: dropping any attribute destroys uniqueness.
    k.attrs.ForEach([&](int a) {
      AttributeSet smaller = k.attrs;
      smaller.Reset(a);
      if (!smaller.Empty()) {
        EXPECT_FALSE(t.IsUnique(smaller)) << smaller.ToString();
      }
    });
  }
}

TEST(PaperExample, ResultIsIndependentOfAttributeOrderAndPruning) {
  Table t = PaperDataset();
  GordianOptions base;
  base.attribute_order = GordianOptions::AttributeOrder::kSchema;
  const auto expected = Sorted(FindKeys(t, base).KeySets());

  for (auto order : {GordianOptions::AttributeOrder::kCardinalityDesc,
                     GordianOptions::AttributeOrder::kCardinalityAsc,
                     GordianOptions::AttributeOrder::kRandom}) {
    for (bool singleton : {false, true}) {
      for (bool futility : {false, true}) {
        for (bool single_entity : {false, true}) {
          for (bool seeding : {false, true}) {
            GordianOptions o;
            o.attribute_order = order;
            o.order_seed = 7;
            o.singleton_pruning = singleton;
            o.futility_pruning = futility;
            o.single_entity_pruning = single_entity;
            o.agree_set_seeding = seeding;
            EXPECT_EQ(Sorted(FindKeys(t, o).KeySets()), expected);
          }
        }
      }
    }
  }
}

TEST(PaperExample, OracleReplaysTheSameTrace) {
  // The pointer-tree oracle walks the Section 3.5 trace over the same tree:
  // identical report and identical work.
  Table t = PaperDataset();
  GordianOptions opts;
  opts.attribute_order = GordianOptions::AttributeOrder::kSchema;
  KeyDiscoveryResult frozen = FindKeys(t, opts);
  KeyDiscoveryResult oracle = OracleFindKeys(t, opts);
  EXPECT_EQ(FormatResult(t, frozen), FormatResult(t, oracle));
  EXPECT_EQ(frozen.stats.nodes_visited, oracle.stats.nodes_visited);
  EXPECT_EQ(frozen.stats.merges_performed, oracle.stats.merges_performed);
  EXPECT_EQ(frozen.stats.futility_prunes, oracle.stats.futility_prunes);
  EXPECT_EQ(frozen.stats.singleton_traversal_prunes,
            oracle.stats.singleton_traversal_prunes);
}

TEST(PaperExample, DuplicateEntityMeansNoKeys) {
  TableBuilder b(Schema(std::vector<std::string>{"a", "b"}));
  b.AddRow({Value(int64_t{1}), Value(int64_t{2})});
  b.AddRow({Value(int64_t{1}), Value(int64_t{2})});
  Table t = b.Build();
  KeyDiscoveryResult r = FindKeys(t);
  EXPECT_TRUE(r.no_keys);
  EXPECT_TRUE(r.keys.empty());
  EXPECT_TRUE(BruteForceAll(t).no_keys);
}

}  // namespace
}  // namespace gordian
