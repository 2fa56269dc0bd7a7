// Tests for the TreeArtifactCache (service/tree_cache.h): hit/miss/busy-miss
// accounting, LRU eviction under the byte budget, lease pinning, and
// cross-job reuse correctness through ProfileWithTreeCache and the
// profiling service.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/frozen_tree.h"
#include "core/gordian.h"
#include "core/pipeline.h"
#include "datagen/synthetic.h"
#include "oracle/non_key_finder.h"
#include "service/profiling_service.h"
#include "service/tree_cache.h"
#include "table/fingerprint.h"

namespace gordian {
namespace {

Table MakeTable(int64_t rows, uint64_t seed, int columns = 5) {
  SyntheticSpec spec = UniformSpec(columns, rows, 32, 0.4, seed);
  spec.columns[0].cardinality = 256;
  spec.planted_keys.push_back({0, 2});
  Table t;
  Status s = GenerateSynthetic(spec, &t);
  EXPECT_TRUE(s.ok());
  return t;
}

// Builds the frozen tree the default plan would build for (table, options).
std::unique_ptr<FrozenTree> BuildTree(const Table& t,
                                      const GordianOptions& opt) {
  ProfileSession session(opt);
  KeyDiscoveryResult r;
  EXPECT_TRUE(session.Run(t, &r).ok());
  std::unique_ptr<FrozenTree> tree = session.TakeFrozenTree();
  EXPECT_NE(tree, nullptr);
  return tree;
}

// The byte footprint one cache entry for `tree` will occupy. The
// budget-sensitive tests below size their caches in this unit.
int64_t EntryFootprint(const FrozenTree& tree) { return tree.ApproxBytes(); }

TEST(TreeCacheKeyTest, DistinguishesTreeShapingOptions) {
  GordianOptions base;
  TreeCacheKey a = MakeTreeCacheKey(1, 5, base);
  EXPECT_EQ(a, MakeTreeCacheKey(1, 5, base));
  EXPECT_FALSE(a == MakeTreeCacheKey(2, 5, base));
  EXPECT_FALSE(a == MakeTreeCacheKey(1, 4, base));

  GordianOptions other = base;
  other.attribute_order = GordianOptions::AttributeOrder::kSchema;
  EXPECT_FALSE(a == MakeTreeCacheKey(1, 5, other));

  other = base;
  other.sample_rows = 100;
  EXPECT_FALSE(a == MakeTreeCacheKey(1, 5, other));

  // Budget/pruning knobs do not change the tree: keys must collide so the
  // artifact is shared across them.
  other = base;
  other.max_non_keys = 10;
  other.futility_pruning = false;
  other.time_budget_seconds = 1.0;
  EXPECT_EQ(a, MakeTreeCacheKey(1, 5, other));

  // The sample seed only matters when sampling is on.
  other = base;
  other.sample_seed = 999;
  EXPECT_EQ(a, MakeTreeCacheKey(1, 5, other));
}

TEST(TreeCacheTest, MissInsertHitLifecycle) {
  Table t = MakeTable(1000, 3);
  GordianOptions opt;
  TreeCacheKey key = MakeTreeCacheKey(TableFingerprint(t), t.num_columns(), opt);

  TreeArtifactCache cache;
  EXPECT_FALSE(cache.Acquire(key).valid());  // miss
  {
    TreeArtifactCache::Lease lease = cache.Insert(key, BuildTree(t, opt));
    ASSERT_TRUE(lease.valid());
    EXPECT_NE(lease.frozen(), nullptr);

    // While leased, a second acquire is a busy miss.
    EXPECT_FALSE(cache.Acquire(key).valid());
  }
  EXPECT_TRUE(cache.Contains(key));
  {
    TreeArtifactCache::Lease lease = cache.Acquire(key);
    EXPECT_TRUE(lease.valid());  // hit
  }

  TreeArtifactCache::Stats s = cache.GetStats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.busy_misses, 1);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.insertions, 1);
  EXPECT_EQ(s.entries, 1);
  EXPECT_GT(s.bytes, 0);

  cache.Clear();
  EXPECT_FALSE(cache.Contains(key));
  EXPECT_EQ(cache.GetStats().entries, 0);
}

TEST(TreeCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  Table t = MakeTable(1200, 5);
  GordianOptions opt;
  std::unique_ptr<FrozenTree> t1 = BuildTree(t, opt);
  std::unique_ptr<FrozenTree> t2 = BuildTree(t, opt);
  std::unique_ptr<FrozenTree> t3 = BuildTree(t, opt);
  const int64_t one = EntryFootprint(*t1);
  ASSERT_GT(one, 0);

  // Budget fits two trees but not three; distinct fingerprints keep the
  // entries separate.
  TreeArtifactCache cache(2 * one);
  TreeCacheKey k1 = MakeTreeCacheKey(1, t.num_columns(), opt);
  TreeCacheKey k2 = MakeTreeCacheKey(2, t.num_columns(), opt);
  TreeCacheKey k3 = MakeTreeCacheKey(3, t.num_columns(), opt);
  cache.Insert(k1, std::move(t1)).Release();
  cache.Insert(k2, std::move(t2)).Release();
  EXPECT_TRUE(cache.Contains(k1));
  EXPECT_TRUE(cache.Contains(k2));

  // Touch k1 so k2 becomes the LRU victim.
  cache.Acquire(k1).Release();
  cache.Insert(k3, std::move(t3)).Release();
  EXPECT_TRUE(cache.Contains(k1));
  EXPECT_FALSE(cache.Contains(k2));
  EXPECT_TRUE(cache.Contains(k3));

  TreeArtifactCache::Stats s = cache.GetStats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries, 2);
  EXPECT_LE(s.bytes, cache.byte_budget());
}

TEST(TreeCacheTest, LeasedEntriesAreNeverEvicted) {
  Table t = MakeTable(1200, 7);
  GordianOptions opt;
  std::unique_ptr<FrozenTree> t1 = BuildTree(t, opt);
  std::unique_ptr<FrozenTree> t2 = BuildTree(t, opt);
  const int64_t one = EntryFootprint(*t1);

  // Budget fits only one tree.
  TreeArtifactCache cache(one);
  TreeCacheKey k1 = MakeTreeCacheKey(1, t.num_columns(), opt);
  TreeCacheKey k2 = MakeTreeCacheKey(2, t.num_columns(), opt);

  TreeArtifactCache::Lease pinned = cache.Insert(k1, std::move(t1));
  ASSERT_TRUE(pinned.valid());
  TreeArtifactCache::Lease second = cache.Insert(k2, std::move(t2));
  ASSERT_TRUE(second.valid());

  // Resident bytes are twice the budget, but both entries are leased:
  // eviction must defer rather than touch a pinned entry.
  EXPECT_TRUE(cache.Contains(k1));
  EXPECT_TRUE(cache.Contains(k2));
  EXPECT_EQ(cache.GetStats().evictions, 0);

  // Releasing k2 makes it the only evictable entry; the deferred eviction
  // reclaims it while k1 stays pinned.
  second.Release();
  EXPECT_TRUE(cache.Contains(k1));
  EXPECT_FALSE(cache.Contains(k2));
  EXPECT_EQ(cache.GetStats().evictions, 1);

  // After the pin drops, the survivor fits the budget and stays resident.
  pinned.Release();
  EXPECT_TRUE(cache.Contains(k1));
  EXPECT_LE(cache.GetStats().bytes, cache.byte_budget());
}

TEST(TreeCacheTest, OversizedArtifactIsServedButNotAdmitted) {
  Table t = MakeTable(1200, 9);
  GordianOptions opt;
  std::unique_ptr<FrozenTree> tree = BuildTree(t, opt);
  FrozenTree* raw = tree.get();

  TreeArtifactCache cache(/*byte_budget=*/1);
  TreeCacheKey key = MakeTreeCacheKey(1, t.num_columns(), opt);
  TreeArtifactCache::Lease lease = cache.Insert(key, std::move(tree));
  // The inserting job still gets its tree...
  ASSERT_TRUE(lease.valid());
  EXPECT_EQ(lease.frozen(), raw);
  lease.Release();
  // ...but the cache never admits it.
  EXPECT_FALSE(cache.Contains(key));
  TreeArtifactCache::Stats s = cache.GetStats();
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.insertions, 0);
  EXPECT_EQ(s.entries, 0);
}

TEST(TreeCacheTest, ProfileWithTreeCacheReusesTreeAndMatchesOracle) {
  Table t = MakeTable(2000, 11);
  GordianOptions opt;
  const uint64_t fp = TableFingerprint(t);
  KeyDiscoveryResult baseline = OracleFindKeys(t, opt);

  TreeArtifactCache cache;
  bool hit = true;
  KeyDiscoveryResult cold = ProfileWithTreeCache(t, opt, fp, &cache, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(FormatResult(t, baseline), FormatResult(t, cold));

  // Repeated runs hit the cache and stay byte-identical — the reused tree
  // comes back pristine every time.
  for (int round = 0; round < 3; ++round) {
    std::vector<StageMetric> metrics;
    KeyDiscoveryResult warm =
        ProfileWithTreeCache(t, opt, fp, &cache, &hit, &metrics);
    EXPECT_TRUE(hit);
    EXPECT_EQ(FormatResult(t, baseline), FormatResult(t, warm));
    // The tree_build stage still runs on a hit (duplicate-entity check,
    // node-count stats) but skips the build itself, so every stage is
    // present in the metrics.
    EXPECT_EQ(metrics.size(), 5u);
  }
  EXPECT_EQ(cache.GetStats().hits, 3);

  // A different budget profile of the same table shares the artifact.
  GordianOptions budget = opt;
  budget.max_non_keys = 1000000;
  KeyDiscoveryResult other = ProfileWithTreeCache(t, budget, fp, &cache, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(FormatResult(t, baseline), FormatResult(t, other));

  // With no cache this is plain FindKeys.
  KeyDiscoveryResult plain = ProfileWithTreeCache(t, opt, fp, nullptr, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(FormatResult(t, baseline), FormatResult(t, plain));
}

TEST(TreeCacheTest, ServiceJobsReuseTreesAcrossRepeatedProfiles) {
  Table t = MakeTable(2000, 13);
  KeyDiscoveryResult baseline = OracleFindKeys(t);

  ServiceOptions sopt;
  sopt.num_threads = 2;
  ProfilingService service(sopt);

  // use_catalog=false forces every job through discovery; only the tree
  // artifact is shared. Sequential waits keep the jobs from coalescing.
  ProfileJobOptions jopt;
  jopt.use_catalog = false;
  ProfileOutcome first = service.Wait(service.SubmitTable("t", &t, jopt));
  EXPECT_FALSE(first.tree_cache_hit);
  EXPECT_EQ(FormatResult(t, baseline), FormatResult(t, first.result));

  for (int round = 0; round < 3; ++round) {
    ProfileOutcome again = service.Wait(service.SubmitTable("t", &t, jopt));
    EXPECT_TRUE(again.tree_cache_hit);
    EXPECT_FALSE(again.cache_hit);
    EXPECT_EQ(FormatResult(t, baseline), FormatResult(t, again.result));
  }

  ServiceMetrics::Snapshot m = service.Metrics();
  EXPECT_EQ(m[Counter::kTreeCacheHits], 3);
  EXPECT_EQ(m[Counter::kTreeCacheMisses], 1);
  ASSERT_NE(service.tree_cache(), nullptr);
  EXPECT_EQ(service.tree_cache()->GetStats().hits, 3);

  // Per-stage metrics accumulated across all four discovery runs.
  EXPECT_EQ(m[Counter::kTraverseRuns], 4);
  EXPECT_EQ(m[Counter::kTreeBuildRuns], 4);  // a hit skips only Build
}

TEST(TreeCacheTest, ConcurrentJobsOnIdenticalTablesStayCorrect) {
  // Identical content generated twice: same fingerprint, distinct Table
  // objects (so the service cannot coalesce them). Concurrent jobs race on
  // the one cached artifact; exclusive leases make losers build privately,
  // and every result must still match.
  Table a = MakeTable(1500, 17);
  Table b = MakeTable(1500, 17);
  ASSERT_EQ(TableFingerprint(a), TableFingerprint(b));
  const std::string expected = FormatResult(a, OracleFindKeys(a));

  ServiceOptions sopt;
  sopt.num_threads = 4;
  ProfilingService service(sopt);
  ProfileJobOptions jopt;
  jopt.use_catalog = false;

  std::vector<JobId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(
        service.SubmitTable("t", i % 2 == 0 ? &a : &b, jopt));
  }
  for (JobId id : ids) {
    ProfileOutcome out = service.Wait(id);
    EXPECT_EQ(expected, FormatResult(a, out.result));
  }
}

TEST(TreeCacheTest, ServiceTreeCacheCanBeDisabled) {
  Table t = MakeTable(1000, 19);
  ServiceOptions sopt;
  sopt.num_threads = 1;
  sopt.tree_cache_bytes = 0;
  ProfilingService service(sopt);
  EXPECT_EQ(service.tree_cache(), nullptr);

  ProfileJobOptions jopt;
  jopt.use_catalog = false;
  for (int i = 0; i < 2; ++i) {
    ProfileOutcome out = service.Wait(service.SubmitTable("t", &t, jopt));
    EXPECT_FALSE(out.tree_cache_hit);
  }
  ServiceMetrics::Snapshot m = service.Metrics();
  EXPECT_EQ(m[Counter::kTreeCacheHits], 0);
  EXPECT_EQ(m[Counter::kTreeCacheMisses], 0);
}

}  // namespace
}  // namespace gordian
