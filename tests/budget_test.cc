// Tests for the discovery budget guards (GordianOptions::max_non_keys and
// time_budget_seconds) and cooperative cancellation (cancel_flag): the
// safety valves for adversarial inputs whose non-key antichain is
// combinatorial, and for service jobs that must stop early.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/gordian.h"
#include "datagen/opic_like.h"
#include "datagen/synthetic.h"

namespace gordian {
namespace {

Table WorkyTable() {
  // Uncorrelated low-cardinality data: plenty of non-keys to find.
  SyntheticSpec spec = UniformSpec(10, 2000, 32, 0.4, 321);
  spec.columns[0].cardinality = 128;
  spec.columns[1].cardinality = 64;
  spec.planted_keys.push_back({0, 1});
  Table t;
  Status s = GenerateSynthetic(spec, &t);
  EXPECT_TRUE(s.ok());
  return t;
}

// Uniform data with distinct rows (no duplicate entities), for the abort
// paths: low cardinality gives many non-redundant non-keys.
Table UniformUniqueTable(int rows, int cols, uint64_t cardinality,
                         uint64_t seed) {
  SyntheticSpec spec = UniformSpec(cols, rows, cardinality, 0.0, seed);
  spec.ensure_unique_rows = true;
  Table t;
  Status s = GenerateSynthetic(spec, &t);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return t;
}

TEST(Budget, NonKeyLimitTripsAndMarksIncomplete) {
  Table t = WorkyTable();
  KeyDiscoveryResult unbounded = FindKeys(t);
  ASSERT_GT(unbounded.non_keys.size(), 2u);

  GordianOptions o;
  o.max_non_keys = 1;
  KeyDiscoveryResult r = FindKeys(t, o);
  EXPECT_TRUE(r.incomplete);
  EXPECT_EQ(r.incomplete_reason, AbortReason::kNonKeyBudget);
  EXPECT_TRUE(r.keys.empty());
  EXPECT_FALSE(r.non_keys.empty());
  // Everything reported is still a genuine non-key.
  for (const AttributeSet& nk : r.non_keys) {
    EXPECT_FALSE(t.IsUnique(nk));
  }
}

TEST(Budget, NonKeyLimitTripsOnLowCardinalityData) {
  // Far more than one non-redundant non-key, so max_non_keys = 1 trips
  // inside the traversal.
  Table t = UniformUniqueTable(300, 7, 4, 88);
  GordianOptions o;
  o.max_non_keys = 1;
  KeyDiscoveryResult r = FindKeys(t, o);
  EXPECT_TRUE(r.incomplete);
  EXPECT_EQ(r.incomplete_reason, AbortReason::kNonKeyBudget);
  EXPECT_TRUE(r.keys.empty());
}

TEST(Budget, TimeBudgetTripsOnLargeInput) {
  Table t = GenerateOpicLike(20000, 30, 99);
  GordianOptions o;
  o.time_budget_seconds = 1e-9;
  KeyDiscoveryResult r = FindKeys(t, o);
  EXPECT_TRUE(r.incomplete);
  EXPECT_EQ(r.incomplete_reason, AbortReason::kTimeBudget);
  EXPECT_TRUE(r.keys.empty());
}

TEST(Budget, TimeBudgetTripsPastTheAmortizedClockCheck) {
  // The clock is read once every 4096 visits. With futility pruning off
  // this table needs well over that many, so an unmeetable budget must
  // trip inside the traversal.
  Table t = UniformUniqueTable(2000, 9, 4, 99);
  GordianOptions probe_opts;
  probe_opts.futility_pruning = false;
  KeyDiscoveryResult probe = FindKeys(t, probe_opts);
  ASSERT_GT(probe.stats.nodes_visited, 10 * 4096)
      << "table too small to exercise the amortized clock check";

  GordianOptions o;
  o.futility_pruning = false;
  o.time_budget_seconds = 1e-9;
  KeyDiscoveryResult r = FindKeys(t, o);
  EXPECT_TRUE(r.incomplete);
  EXPECT_EQ(r.incomplete_reason, AbortReason::kTimeBudget);
  EXPECT_TRUE(r.keys.empty());
}

TEST(Budget, PreRaisedCancelFlagAbortsWithCancelled) {
  Table t = UniformUniqueTable(500, 6, 16, 77);
  std::atomic<bool> cancel{true};
  GordianOptions o;
  o.cancel_flag = &cancel;
  KeyDiscoveryResult r = FindKeys(t, o);
  EXPECT_TRUE(r.incomplete);
  EXPECT_EQ(r.incomplete_reason, AbortReason::kCancelled);
  EXPECT_TRUE(r.keys.empty());
}

TEST(Budget, CancelRaisedMidRunAbortsCleanly) {
  // The flag flips while discovery runs; the run must come back either
  // complete or incomplete-with-kCancelled, never crash. (Timing decides
  // how much work happened first; the outcome classification is what is
  // deterministic.)
  Table t = UniformUniqueTable(2000, 8, 6, 55);
  std::atomic<bool> cancel{false};
  GordianOptions o;
  o.cancel_flag = &cancel;
  std::thread flipper([&cancel] { cancel.store(true); });
  KeyDiscoveryResult r = FindKeys(t, o);
  flipper.join();
  if (r.incomplete) {
    EXPECT_EQ(r.incomplete_reason, AbortReason::kCancelled);
    EXPECT_TRUE(r.keys.empty());
  } else {
    EXPECT_EQ(r.KeySets(), FindKeys(t).KeySets());
  }
}

TEST(Budget, GenerousBudgetsDoNotChangeResults) {
  Table t = WorkyTable();
  KeyDiscoveryResult base = FindKeys(t);
  GordianOptions o;
  o.max_non_keys = 1 << 20;
  o.time_budget_seconds = 3600;
  KeyDiscoveryResult r = FindKeys(t, o);
  EXPECT_FALSE(r.incomplete);
  EXPECT_EQ(r.KeySets(), base.KeySets());
  EXPECT_EQ(r.non_keys, base.non_keys);
}

TEST(Budget, IncompleteNeverSetOnDefaults) {
  Table t = WorkyTable();
  EXPECT_FALSE(FindKeys(t).incomplete);
}

}  // namespace
}  // namespace gordian
