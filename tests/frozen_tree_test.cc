// Tests for the frozen prefix-tree (core/frozen_tree.h): flat-layout
// invariants after Freeze, byte-identical equivalence of the frozen
// traversal against the pointer-tree oracle (complete and aborted runs,
// work counters included), SIMD kernel agreement with the scalar
// reference, and the tree-cache integration that serves prefrozen
// artifacts on hits.

#include "core/frozen_tree.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/gordian.h"
#include "core/non_key_set.h"
#include "core/pipeline.h"
#include "core/prefix_tree.h"
#include "datagen/synthetic.h"
#include "oracle/non_key_finder.h"
#include "service/tree_cache.h"
#include "table/fingerprint.h"

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

void ExpectSameReport(const Table& table, const KeyDiscoveryResult& a,
                      const KeyDiscoveryResult& b) {
  EXPECT_EQ(FormatResult(table, a), FormatResult(table, b));
  EXPECT_EQ(a.no_keys, b.no_keys);
  EXPECT_EQ(a.incomplete, b.incomplete);
  EXPECT_EQ(a.incomplete_reason, b.incomplete_reason);
  ASSERT_EQ(a.non_keys.size(), b.non_keys.size());
  for (size_t i = 0; i < a.non_keys.size(); ++i) {
    EXPECT_EQ(a.non_keys[i], b.non_keys[i]);
  }
}

// The frozen traversal replays the oracle's traversal decision for
// decision, so the work counters must agree exactly, not just the results.
void ExpectSameCounters(const GordianStats& a, const GordianStats& b) {
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.merges_performed, b.merges_performed);
  EXPECT_EQ(a.merge_nodes_created, b.merge_nodes_created);
  EXPECT_EQ(a.singleton_traversal_prunes, b.singleton_traversal_prunes);
  EXPECT_EQ(a.singleton_merge_prunes, b.singleton_merge_prunes);
  EXPECT_EQ(a.single_entity_prunes, b.single_entity_prunes);
  EXPECT_EQ(a.futility_prunes, b.futility_prunes);
  EXPECT_EQ(a.final_non_keys, b.final_non_keys);
}

TEST(FrozenTreeLayoutTest, FreezePreservesStructure) {
  Table t = MakeTable(2000, 11);
  std::vector<int> order(static_cast<size_t>(t.num_columns()));
  std::iota(order.begin(), order.end(), 0);
  PrefixTree tree =
      PrefixTree::Build(t, order, GordianOptions::TreeBuild::kSorted);
  std::unique_ptr<FrozenTree> frozen = FrozenTree::Freeze(tree);
  ASSERT_NE(frozen, nullptr);

  EXPECT_EQ(frozen->num_levels(), tree.num_levels());
  EXPECT_EQ(frozen->num_entities(), tree.num_entities());
  EXPECT_EQ(frozen->node_count(), tree.node_count());
  EXPECT_EQ(frozen->cell_count(), tree.cell_count());
  EXPECT_EQ(frozen->attr_order(), tree.attr_order());
  EXPECT_GT(frozen->ApproxBytes(), 0);
  EXPECT_GT(frozen->BytesPerNode(), 0.0);
  EXPECT_TRUE(frozen->AllRefsAreOne());

  const int depth = frozen->num_levels();
  EXPECT_EQ(frozen->level(0).num_nodes(), 1u);  // the root
  int64_t total_nodes = 0, total_cells = 0;
  for (int l = 0; l < depth; ++l) {
    const FrozenTree::Level& lv = frozen->level(l);
    ASSERT_EQ(lv.cell_begin.size(), lv.num_nodes() + 1);
    ASSERT_EQ(lv.count.size(), lv.num_cells());
    ASSERT_EQ(lv.ref.size(), lv.num_nodes());
    EXPECT_EQ(lv.cell_begin.front(), 0u);
    EXPECT_EQ(lv.cell_begin.back(), lv.num_cells());
    for (size_t i = 0; i < lv.num_nodes(); ++i) {
      const uint32_t b = lv.cell_begin[i], e = lv.cell_begin[i + 1];
      ASSERT_LE(b, e);
      int64_t entity_sum = 0;
      for (uint32_t c = b; c < e; ++c) {
        if (c > b) EXPECT_LT(lv.code[c - 1], lv.code[c]);  // sorted, strict
        EXPECT_GT(lv.count[c], 0);
        entity_sum += lv.count[c];
      }
      EXPECT_EQ(entity_sum, lv.entity_total[i]);
      EXPECT_EQ(lv.ref[i], 1);
    }
    // BFS identity: level l's cell with global index g is the parent of
    // node g at level l + 1.
    if (l + 1 < depth) {
      EXPECT_EQ(frozen->level(l + 1).num_nodes(), lv.num_cells());
    }
    total_nodes += static_cast<int64_t>(lv.num_nodes());
    total_cells += static_cast<int64_t>(lv.num_cells());
  }
  EXPECT_EQ(total_nodes, frozen->node_count());
  EXPECT_EQ(total_cells, frozen->cell_count());
}

TEST(FrozenTraversalTest, MatchesOracle) {
  for (uint64_t seed : {3u, 7u, 17u, 29u, 41u}) {
    Table t = MakeTable(2500, seed);
    KeyDiscoveryResult oracle = OracleFindKeys(t);
    KeyDiscoveryResult frozen = FindKeys(t);
    EXPECT_GT(frozen.stats.frozen_tree_bytes, 0);
    ExpectSameReport(t, oracle, frozen);
    ExpectSameCounters(oracle.stats, frozen.stats);
  }
}

TEST(FrozenTraversalTest, RandomizedFuzzAcrossShapes) {
  std::mt19937_64 rng(20260808);
  for (int round = 0; round < 6; ++round) {
    const int columns = 4 + static_cast<int>(rng() % 4);       // 4..7
    const int64_t rows = 500 + static_cast<int64_t>(rng() % 2000);
    const int card = 4 + static_cast<int>(rng() % 40);
    SyntheticSpec spec =
        UniformSpec(columns, rows, card, 0.5, rng());
    Table t;
    ASSERT_TRUE(GenerateSynthetic(spec, &t).ok());

    GordianOptions opt;
    opt.tree_build = (round % 2 == 0) ? GordianOptions::TreeBuild::kSorted
                                      : GordianOptions::TreeBuild::kInsertion;
    KeyDiscoveryResult oracle = OracleFindKeys(t, opt);
    KeyDiscoveryResult frozen = FindKeys(t, opt);
    ExpectSameReport(t, oracle, frozen);
    ExpectSameCounters(oracle.stats, frozen.stats);
  }
}

TEST(FrozenTraversalTest, NonKeyBudgetAbortMatchesOracle) {
  Table t = MakeTable(3000, 53);
  GordianOptions opt;
  opt.max_non_keys = 2;
  KeyDiscoveryResult oracle = OracleFindKeys(t, opt);
  ASSERT_TRUE(oracle.incomplete);
  EXPECT_EQ(oracle.incomplete_reason, AbortReason::kNonKeyBudget);

  KeyDiscoveryResult frozen = FindKeys(t, opt);
  ExpectSameReport(t, oracle, frozen);
  ExpectSameCounters(oracle.stats, frozen.stats);
}

TEST(FrozenTraversalTest, PreCancelledRunAbortsWithCancelled) {
  Table t = MakeTable(1500, 59);
  std::atomic<bool> cancel{true};
  GordianOptions opt;
  opt.cancel_flag = &cancel;
  KeyDiscoveryResult r = FindKeys(t, opt);
  EXPECT_TRUE(r.incomplete);
  EXPECT_EQ(r.incomplete_reason, AbortReason::kCancelled);
  EXPECT_TRUE(r.keys.empty());
}

TEST(FrozenTraversalTest, AbortedRunFullyUnwindsFrozenRefs) {
  Table t = MakeTable(3000, 61);
  std::vector<int> order(static_cast<size_t>(t.num_columns()));
  std::iota(order.begin(), order.end(), 0);
  PrefixTree tree =
      PrefixTree::Build(t, order, GordianOptions::TreeBuild::kSorted);
  std::unique_ptr<FrozenTree> frozen = FrozenTree::Freeze(tree);

  GordianOptions opt;
  opt.max_non_keys = 1;  // trips almost immediately, mid-recursion
  GordianStats stats;
  NonKeySet set(&stats);
  FrozenNonKeyFinder finder(*frozen, opt, &set, &stats);
  EXPECT_FALSE(finder.Run());
  EXPECT_EQ(finder.abort_reason(), AbortReason::kNonKeyBudget);
  // The abort unwound every temporary share: the frozen tree is
  // bit-identical to freshly frozen and can serve the next run.
  EXPECT_TRUE(frozen->AllRefsAreOne());

  GordianOptions opt2;  // named: the finder keeps a reference to it
  GordianStats stats2;
  NonKeySet set2(&stats2);
  FrozenNonKeyFinder second(*frozen, opt2, &set2, &stats2);
  EXPECT_TRUE(second.Run());
  EXPECT_TRUE(frozen->AllRefsAreOne());
}

TEST(FrozenSimdTest, KernelsAgreeWithScalarReference) {
  EXPECT_NE(frozen_simd::ActiveKernel(), nullptr);
  std::mt19937_64 rng(42);
  for (int round = 0; round < 200; ++round) {
    const size_t n = rng() % 70;
    std::vector<uint32_t> codes(n);
    uint32_t next = 0;
    for (size_t i = 0; i < n; ++i) {
      next += 1 + static_cast<uint32_t>(rng() % 50);
      codes[i] = next;
    }
    // Probe below, inside, between, and above the span — including values
    // past INT32_MAX, which the AVX2 kernel handles via the sign-bias trick.
    for (int probe = 0; probe < 8; ++probe) {
      uint32_t target = static_cast<uint32_t>(rng());
      if (probe < 4 && n > 0) target = codes[rng() % n] + (probe % 2);
      EXPECT_EQ(frozen_simd::LowerBound(codes.data(), n, target),
                frozen_simd::LowerBoundScalar(codes.data(), n, target))
          << "n=" << n << " target=" << target;
    }

    std::vector<int64_t> counts(n, 1);
    EXPECT_EQ(frozen_simd::AnyCountNotOne(counts.data(), n),
              frozen_simd::AnyCountNotOneScalar(counts.data(), n));
    if (n > 0) {
      counts[rng() % n] = 2 + static_cast<int64_t>(rng() % 5);
      EXPECT_TRUE(frozen_simd::AnyCountNotOne(counts.data(), n));
      EXPECT_EQ(frozen_simd::AnyCountNotOne(counts.data(), n),
                frozen_simd::AnyCountNotOneScalar(counts.data(), n));
    }
  }
}

TEST(FrozenTreeCacheTest, HitServesPrefrozenArtifact) {
  Table t = MakeTable(1500, 71);
  GordianOptions opt;
  const uint64_t fp = TableFingerprint(t);
  TreeArtifactCache cache;

  bool hit = false;
  KeyDiscoveryResult first = ProfileWithTreeCache(t, opt, fp, &cache, &hit);
  EXPECT_FALSE(hit);
  EXPECT_GT(first.stats.freeze_seconds, 0.0);
  // The miss admitted the run's own frozen artifact; Insert refroze nothing.
  TreeArtifactCache::Stats cs = cache.GetStats();
  EXPECT_EQ(cs.trees_frozen, 0);
  EXPECT_GT(cs.frozen_bytes, 0);

  KeyDiscoveryResult second = ProfileWithTreeCache(t, opt, fp, &cache, &hit);
  EXPECT_TRUE(hit);
  EXPECT_GT(second.stats.frozen_tree_bytes, 0);
  // A hit pays neither build nor freeze: the prefrozen twin was injected.
  EXPECT_EQ(second.stats.freeze_seconds, 0.0);
  ExpectSameReport(t, first, second);

  // Inserting a raw tree (no artifact handed over) makes the cache freeze
  // it so later hits are still served frozen.
  std::vector<int> order(static_cast<size_t>(t.num_columns()));
  std::iota(order.begin(), order.end(), 0);
  auto raw = std::make_unique<PrefixTree>(
      PrefixTree::Build(t, order, GordianOptions::TreeBuild::kSorted));
  TreeCacheKey other_key = MakeTreeCacheKey(fp + 1, t.num_columns(), opt);
  TreeArtifactCache::Lease lease = cache.Insert(other_key, std::move(raw));
  EXPECT_NE(lease.frozen(), nullptr);
  EXPECT_EQ(cache.GetStats().trees_frozen, 1);
  EXPECT_GT(cache.GetStats().freeze_seconds, 0.0);
}

// Regression for the cell_count data race: the memo used to be a plain
// mutable int64_t written on first call, racing when TreeArtifactCache
// served one tree to back-to-back runs probed from several threads. Build
// now fills the memo eagerly and the fallback publishes through an atomic;
// under TSan this test is the proof.
TEST(PrefixTreeTest, ConcurrentCellCountReadsAreRaceFree) {
  Table t = MakeTable(2000, 73);
  std::vector<int> order(static_cast<size_t>(t.num_columns()));
  std::iota(order.begin(), order.end(), 0);
  PrefixTree tree =
      PrefixTree::Build(t, order, GordianOptions::TreeBuild::kSorted);
  const int64_t expected = tree.cell_count();

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      for (int k = 0; k < 1000; ++k) {
        if (tree.cell_count() != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace gordian
