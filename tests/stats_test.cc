// Tests for the statistics and pruning instrumentation: the counters that
// feed Table 2 and Figure 13 must reflect real algorithmic work.

#include <gtest/gtest.h>

#include "bruteforce/brute_force.h"
#include "core/gordian.h"
#include "datagen/opic_like.h"
#include "datagen/synthetic.h"

namespace gordian {
namespace {

Table CorrelatedTable(uint64_t seed) {
  return GenerateOpicLike(3000, 16, seed);
}

TEST(Stats, PhasesAndBasicCountsArePopulated) {
  Table t = CorrelatedTable(1);
  KeyDiscoveryResult r = FindKeys(t);
  EXPECT_EQ(r.stats.rows_processed, 3000);
  EXPECT_EQ(r.stats.num_attributes, 16);
  EXPECT_GT(r.stats.base_tree_nodes, 0);
  EXPECT_GT(r.stats.base_tree_cells, 0);
  EXPECT_GT(r.stats.nodes_visited, 0);
  EXPECT_GT(r.stats.merges_performed, 0);
  EXPECT_GE(r.stats.build_seconds, 0);
  EXPECT_GE(r.stats.find_seconds, 0);
  EXPECT_GE(r.stats.convert_seconds, 0);
  EXPECT_EQ(r.stats.final_non_keys,
            static_cast<int64_t>(r.non_keys.size()));
}

TEST(Stats, PruningCountersFireOnCorrelatedData) {
  Table t = CorrelatedTable(2);
  KeyDiscoveryResult r = FindKeys(t);
  EXPECT_GT(r.stats.singleton_traversal_prunes +
                r.stats.singleton_merge_prunes,
            0);
  EXPECT_GT(r.stats.single_entity_prunes, 0);
  EXPECT_GT(r.stats.futility_prunes, 0);
}

TEST(Stats, DisabledPruningsReportZero) {
  Table t = CorrelatedTable(3);
  GordianOptions o;
  o.singleton_pruning = false;
  o.futility_pruning = false;
  o.single_entity_pruning = false;
  KeyDiscoveryResult r = FindKeys(t, o);
  EXPECT_EQ(r.stats.singleton_traversal_prunes, 0);
  EXPECT_EQ(r.stats.futility_prunes, 0);
  EXPECT_EQ(r.stats.single_entity_prunes, 0);
  // The single-cell merge skip (Algorithm 4, line 23) is structural and
  // fires regardless of the toggles.
  EXPECT_GT(r.stats.singleton_merge_prunes, 0);
}

TEST(Stats, PruningReducesWork) {
  Table t = CorrelatedTable(4);
  GordianOptions with;
  GordianOptions without;
  without.singleton_pruning = false;
  without.futility_pruning = false;
  without.single_entity_pruning = false;
  KeyDiscoveryResult rw = FindKeys(t, with);
  KeyDiscoveryResult ro = FindKeys(t, without);
  EXPECT_LT(rw.stats.nodes_visited, ro.stats.nodes_visited);
  EXPECT_LT(rw.stats.merges_performed, ro.stats.merges_performed);
}

TEST(Stats, PeakMemoryIsPositiveAndAtLeastTreeFootprint) {
  Table t = CorrelatedTable(5);
  KeyDiscoveryResult r = FindKeys(t);
  EXPECT_GT(r.stats.peak_memory_bytes, 0);
  // The peak covers at least the base tree's nodes.
  EXPECT_GE(r.stats.peak_memory_bytes,
            r.stats.base_tree_nodes *
                static_cast<int64_t>(sizeof(void*)));
}

TEST(Stats, PeakMemoryCoversFrozenTreeAndBuildScratch) {
  // The direct build holds one int64 row id per row beside the frozen
  // arrays it writes, so the peak is at least their sum — for complete
  // runs and for runs that stop at duplicate entities alike.
  Table t = CorrelatedTable(6);
  KeyDiscoveryResult r = FindKeys(t);
  ASSERT_FALSE(r.no_keys);
  EXPECT_GT(r.stats.frozen_tree_bytes, 0);
  EXPECT_GE(r.stats.peak_memory_bytes,
            r.stats.frozen_tree_bytes +
                r.stats.rows_processed * static_cast<int64_t>(sizeof(int64_t)));

  SyntheticSpec spec = UniformSpec(2, 500, 3, 0.0, 7);
  spec.ensure_unique_rows = false;
  Table dup;
  ASSERT_TRUE(GenerateSynthetic(spec, &dup).ok());
  KeyDiscoveryResult d = FindKeys(dup);
  ASSERT_TRUE(d.no_keys);
  EXPECT_GT(d.stats.frozen_tree_bytes, 0);
  EXPECT_GE(d.stats.peak_memory_bytes,
            d.stats.frozen_tree_bytes +
                d.stats.rows_processed * static_cast<int64_t>(sizeof(int64_t)));
}

TEST(Stats, BruteForceMemoryGrowsWithArity) {
  Table t = CorrelatedTable(6);
  BruteForceResult single = BruteForceSingle(t);
  BruteForceResult up4 = BruteForceUpTo4(t);
  EXPECT_GT(up4.candidates_checked, single.candidates_checked);
  EXPECT_GE(up4.peak_memory_bytes, single.peak_memory_bytes);
  EXPECT_GT(single.peak_memory_bytes, 0);
}

TEST(Stats, BruteForceTimeBudgetTruncates) {
  // A wide table with an astronomically large candidate space must hit the
  // budget and stop quickly rather than hang.
  Table t = GenerateOpicLike(2000, 40, 7);
  BruteForceOptions o;
  o.max_arity = 0;
  o.prune_superkeys = false;
  o.time_budget_seconds = 0.2;
  BruteForceResult r = BruteForceFindKeys(t, o);
  EXPECT_TRUE(r.truncated);
  EXPECT_LT(r.seconds, 30.0);  // generous: CI machines run tests in parallel
}

TEST(Stats, SampledRunProcessesSampleRows) {
  Table t = CorrelatedTable(8);
  GordianOptions o;
  o.sample_rows = 500;
  KeyDiscoveryResult r = FindKeys(t, o);
  EXPECT_EQ(r.stats.rows_processed, 500);
  EXPECT_TRUE(r.sampled);
}

}  // namespace
}  // namespace gordian
