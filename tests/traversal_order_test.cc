// Specification tests for the segment processing order (the paper's
// Figure 9): with pruning disabled, FrozenNonKeyFinder must examine, for a
// single slice over attributes X, Y, Z, the segments in the order
//   XYZ, XY, XZ, X, YZ, Y, Z
// — each level's attribute is projected out only after everything beneath
// it was explored, which is exactly what makes the covered-first pruning
// opportunities of Section 3.4 possible. The pointer-tree oracle must emit
// the identical event stream.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/frozen_tree.h"
#include "core/prefix_tree.h"
#include "oracle/non_key_finder.h"
#include "table/table.h"

namespace gordian {
namespace {

class RecordingObserver : public TraversalObserver {
 public:
  void OnSegment(const AttributeSet& segment) override {
    segments.push_back(segment);
  }
  void OnNonKey(const AttributeSet& nk) override { non_keys.push_back(nk); }
  void OnMerge(int level) override { merges.push_back(level); }
  void OnPrune(const char* kind, int level) override {
    prunes.emplace_back(kind, level);
  }

  std::vector<AttributeSet> segments;
  std::vector<AttributeSet> non_keys;
  std::vector<int> merges;
  std::vector<std::pair<std::string, int>> prunes;
};

std::vector<int> SchemaOrder(const Table& t) {
  std::vector<int> order(t.num_columns());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  return order;
}

RecordingObserver RunWithObserver(const Table& t, const GordianOptions& o) {
  RecordingObserver obs;
  std::unique_ptr<FrozenTree> frozen = FrozenTree::Build(t, SchemaOrder(t));
  GordianStats stats;
  NonKeySet set(&stats);
  FrozenNonKeyFinder finder(*frozen, o, &set, &stats, &obs);
  EXPECT_TRUE(finder.Run());
  return obs;
}

RecordingObserver RunOracleWithObserver(const Table& t,
                                        const GordianOptions& o) {
  RecordingObserver obs;
  PrefixTree tree =
      PrefixTree::Build(t, SchemaOrder(t), GordianOptions::TreeBuild::kSorted);
  GordianStats stats;
  NonKeySet set(&stats);
  NonKeyFinder finder(tree, o, &set, &stats, &obs);
  EXPECT_TRUE(finder.Run());
  return obs;
}

// A dense 3-attribute table (several values everywhere, duplicates in every
// projection) so that no structural pruning can hide segments even when
// enabled.
Table DenseThreeAttrTable() {
  TableBuilder b(Schema(std::vector<std::string>{"X", "Y", "Z"}));
  for (int x = 0; x < 3; ++x) {
    for (int y = 0; y < 3; ++y) {
      for (int z = 0; z < 3; ++z) {
        b.AddRow({Value(int64_t{x}), Value(int64_t{y}), Value(int64_t{z})});
      }
    }
  }
  return b.Build();
}

TEST(TraversalOrder, Figure9SegmentOrderWithoutPruning) {
  GordianOptions o;
  o.singleton_pruning = false;
  o.futility_pruning = false;
  o.single_entity_pruning = false;
  RecordingObserver obs = RunWithObserver(DenseThreeAttrTable(), o);

  // The distinct segments, in first-appearance order.
  std::vector<AttributeSet> first_seen;
  for (const AttributeSet& s : obs.segments) {
    bool seen = false;
    for (const AttributeSet& f : first_seen) {
      if (f == s) seen = true;
    }
    if (!seen) first_seen.push_back(s);
  }
  const std::vector<AttributeSet> expected = {
      AttributeSet{0, 1, 2},  // XYZ
      AttributeSet{0, 1},     // XY
      AttributeSet{0, 2},     // XZ
      AttributeSet{0},        // X
      AttributeSet{1, 2},     // YZ
      AttributeSet{1},        // Y
      AttributeSet{2},        // Z
      AttributeSet{},         // the final projection onto no attributes
  };
  EXPECT_EQ(first_seen, expected);
}

TEST(TraversalOrder, EverySegmentIsVisitedWithoutPruning) {
  GordianOptions o;
  o.singleton_pruning = false;
  o.futility_pruning = false;
  o.single_entity_pruning = false;
  RecordingObserver obs = RunWithObserver(DenseThreeAttrTable(), o);
  // All 7 non-empty subsets of 3 attributes appear (2^3 - 1), plus the
  // empty set is never a segment... it is: projecting the last attribute of
  // the top merge chain reaches {} as the final "segment" check at the
  // deepest merged leaf. Assert the seven non-empty ones.
  for (uint64_t mask = 1; mask < 8; ++mask) {
    AttributeSet s;
    for (int i = 0; i < 3; ++i) {
      if (mask & (1u << i)) s.Set(i);
    }
    bool seen = false;
    for (const AttributeSet& seg : obs.segments) {
      if (seg == s) seen = true;
    }
    EXPECT_TRUE(seen) << s.ToString();
  }
}

TEST(TraversalOrder, DuplicatesInEveryProjectionYieldNonKeyEvents) {
  GordianOptions o;
  RecordingObserver obs = RunWithObserver(DenseThreeAttrTable(), o);
  // In the dense table, XY (and everything below) has duplicates, so
  // non-key events must fire; the maximal one {X,Y} or {X,Z}... all 2-sets
  // are non-keys, and even XYZ... XYZ is unique (27 distinct rows). The
  // first reported non-key is XY.
  ASSERT_FALSE(obs.non_keys.empty());
  EXPECT_EQ(obs.non_keys.front(), (AttributeSet{0, 1}));
}

TEST(TraversalOrder, MergeEventsAreBottomUpPerSlice) {
  GordianOptions o;
  o.singleton_pruning = false;
  o.futility_pruning = false;
  o.single_entity_pruning = false;
  RecordingObserver obs = RunWithObserver(DenseThreeAttrTable(), o);
  // First merge happens at the deepest non-leaf level (projecting Z from
  // the first X,Y slice). The top-level merge (projecting X) happens
  // exactly once, near the end — only the merges *inside* the resulting
  // tree follow it.
  ASSERT_FALSE(obs.merges.empty());
  EXPECT_EQ(obs.merges.front(), 1);
  int top_level = 0;
  size_t top_pos = 0;
  for (size_t i = 0; i < obs.merges.size(); ++i) {
    if (obs.merges[i] == 0) {
      ++top_level;
      top_pos = i;
    }
  }
  EXPECT_EQ(top_level, 1);
  for (size_t i = top_pos + 1; i < obs.merges.size(); ++i) {
    EXPECT_GT(obs.merges[i], 0);
  }
}

TEST(TraversalOrder, PruningEventsCarryTheirKind) {
  // Correlated-ish data with shared subtrees triggers singleton pruning.
  TableBuilder b(Schema(std::vector<std::string>{"a", "b", "c"}));
  for (int i = 0; i < 40; ++i) {
    b.AddRow({Value(int64_t{i % 2}), Value(int64_t{i % 4}),
              Value(int64_t{i})});
  }
  RecordingObserver obs = RunWithObserver(b.Build(), GordianOptions{});
  bool saw_known_kind = false;
  for (const auto& [kind, level] : obs.prunes) {
    EXPECT_TRUE(kind == "singleton" || kind == "singleton-merge" ||
                kind == "single-entity" || kind == "futility")
        << kind;
    EXPECT_GE(level, 0);
    EXPECT_LT(level, 3);
    saw_known_kind = true;
  }
  EXPECT_TRUE(saw_known_kind);
}

TEST(TraversalOrder, ObserverDoesNotChangeResults) {
  Table t = DenseThreeAttrTable();
  GordianOptions o;
  RecordingObserver obs;
  std::unique_ptr<FrozenTree> frozen = FrozenTree::Build(t, {0, 1, 2});
  GordianStats s1;
  NonKeySet set1(&s1);
  FrozenNonKeyFinder f1(*frozen, o, &set1, &s1, &obs);
  EXPECT_TRUE(f1.Run());

  GordianStats s2;
  NonKeySet set2(&s2);
  FrozenNonKeyFinder f2(*frozen, o, &set2, &s2, nullptr);
  EXPECT_TRUE(f2.Run());

  EXPECT_EQ(set1.non_keys(), set2.non_keys());
}

// Every callback, in order, under every pruning combination: the frozen
// finder replays the oracle's traversal decision for decision.
void ExpectIdenticalEventStreams(const Table& t) {
  for (int mask = 0; mask < 8; ++mask) {
    GordianOptions o;
    o.singleton_pruning = (mask & 1) != 0;
    o.futility_pruning = (mask & 2) != 0;
    o.single_entity_pruning = (mask & 4) != 0;
    const RecordingObserver frozen = RunWithObserver(t, o);
    const RecordingObserver oracle = RunOracleWithObserver(t, o);
    EXPECT_EQ(frozen.segments, oracle.segments) << "mask " << mask;
    EXPECT_EQ(frozen.non_keys, oracle.non_keys) << "mask " << mask;
    EXPECT_EQ(frozen.merges, oracle.merges) << "mask " << mask;
    EXPECT_EQ(frozen.prunes, oracle.prunes) << "mask " << mask;
  }
}

TEST(TraversalOrder, FrozenAndOracleEmitIdenticalEventStreams) {
  ExpectIdenticalEventStreams(DenseThreeAttrTable());
  TableBuilder b(Schema(std::vector<std::string>{"a", "b", "c", "d"}));
  for (int i = 0; i < 60; ++i) {
    b.AddRow({Value(int64_t{i % 2}), Value(int64_t{i % 4}),
              Value(int64_t{i % 5}), Value(int64_t{i / 3})});
  }
  ExpectIdenticalEventStreams(b.Build());
}

}  // namespace
}  // namespace gordian
