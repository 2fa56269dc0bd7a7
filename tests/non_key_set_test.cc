// Unit tests for the NonKeySet container (Algorithm 5), plus a
// differential fuzz that drives it and the bucketed reference
// (tests/oracle/non_key_set.h) with the same random Insert/CoversSet
// sequences. The fuzz's iteration count honours GORDIAN_FUZZ_ITERS.

#include "core/non_key_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/random.h"
#include "oracle/non_key_set.h"

namespace gordian {
namespace {

TEST(NonKeySet, InsertsAndRejectsCovered) {
  NonKeySet s;
  EXPECT_TRUE(s.Insert(AttributeSet{0, 1}));
  // Subsets of an existing non-key are redundant.
  EXPECT_FALSE(s.Insert(AttributeSet{0}));
  EXPECT_FALSE(s.Insert(AttributeSet{1}));
  EXPECT_FALSE(s.Insert(AttributeSet{0, 1}));  // duplicates too
  EXPECT_EQ(s.size(), 1);
}

TEST(NonKeySet, SupersetEvictsCoveredMembers) {
  NonKeySet s;
  EXPECT_TRUE(s.Insert(AttributeSet{0}));
  EXPECT_TRUE(s.Insert(AttributeSet{2}));
  EXPECT_TRUE(s.Insert(AttributeSet{0, 1}));  // evicts {0}
  EXPECT_EQ(s.size(), 2);
  EXPECT_TRUE(s.CoversSet(AttributeSet{0}));
  EXPECT_TRUE(s.CoversSet(AttributeSet{2}));
  EXPECT_TRUE(s.Insert(AttributeSet{0, 1, 2}));  // evicts both
  EXPECT_EQ(s.size(), 1);
}

TEST(NonKeySet, MaintainsAntichainInvariant) {
  NonKeySet s;
  s.Insert(AttributeSet{0, 1});
  s.Insert(AttributeSet{1, 2});
  s.Insert(AttributeSet{2, 3});
  s.Insert(AttributeSet{0, 1, 2});  // evicts {0,1} and {1,2}
  const auto& nks = s.non_keys();
  for (size_t i = 0; i < nks.size(); ++i) {
    for (size_t j = 0; j < nks.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(nks[i].Covers(nks[j]));
      }
    }
  }
  EXPECT_EQ(s.size(), 2);
}

TEST(NonKeySet, CoversSetSemantics) {
  NonKeySet s;
  s.Insert(AttributeSet{0, 1, 2});
  EXPECT_TRUE(s.CoversSet(AttributeSet{0, 2}));
  EXPECT_TRUE(s.CoversSet(AttributeSet{}));  // empty covered by anything
  EXPECT_FALSE(s.CoversSet(AttributeSet{3}));
  EXPECT_FALSE(s.CoversSet(AttributeSet{0, 3}));
  NonKeySet empty;
  EXPECT_FALSE(empty.CoversSet(AttributeSet{}));
}

TEST(NonKeySet, StatsCounters) {
  GordianStats stats;
  NonKeySet s(&stats);
  s.Insert(AttributeSet{0});
  s.Insert(AttributeSet{0});       // rejected (covered)
  s.Insert(AttributeSet{0, 1});    // evicts {0}
  EXPECT_EQ(stats.non_key_insert_attempts, 3);
  EXPECT_EQ(stats.non_keys_rejected_covered, 1);
  EXPECT_EQ(stats.non_keys_evicted, 1);
}

TEST(NonKeySet, EmptySetMemberCoversOnlyEmpty) {
  NonKeySet s;
  EXPECT_TRUE(s.Insert(AttributeSet{}));
  EXPECT_TRUE(s.CoversSet(AttributeSet{}));
  EXPECT_FALSE(s.CoversSet(AttributeSet{0}));
  // Any non-empty non-key evicts the empty one.
  EXPECT_TRUE(s.Insert(AttributeSet{0}));
  EXPECT_EQ(s.size(), 1);
}

TEST(NonKeySet, AttributesAcrossBothWords) {
  NonKeySet s;
  EXPECT_TRUE(s.Insert(AttributeSet{3, 64, 127}));
  EXPECT_TRUE(s.CoversSet(AttributeSet{64, 127}));
  EXPECT_FALSE(s.CoversSet(AttributeSet{63, 127}));
  EXPECT_FALSE(s.CoversSet(AttributeSet{126}));
  EXPECT_TRUE(s.Insert(AttributeSet{0, 1}));
  EXPECT_TRUE(s.Insert(AttributeSet::FirstN(128)));  // evicts both
  EXPECT_EQ(s.non_keys(), std::vector<AttributeSet>{AttributeSet::FirstN(128)});
}

int FuzzIters() {
  const char* env = std::getenv("GORDIAN_FUZZ_ITERS");
  if (env != nullptr && *env != '\0') {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 3;
}

// What the fuzz's sequences reached, so a generator change that stops
// exercising a case fails instead of passing vacuously.
struct Coverage {
  int64_t max_size = 0;
  bool empty_member = false;
  bool empty_probe = false;
  bool duplicate_rejected = false;
  bool foreign_probe = false;  // a probe naming an attribute no member has
  // An insert accepted right after an eviction, with more than 64 members
  // live: slots are taken lowest first, so it reuses a freed slot while
  // several slot words are in use.
  bool reuse_after_evict = false;
};

// `k` distinct attributes of [0, width), k clamped to [0, width].
AttributeSet RandomSetOfSize(Random* rng, int width, int k) {
  k = std::clamp(k, 0, width);
  std::vector<int> attrs(static_cast<size_t>(width));
  for (int a = 0; a < width; ++a) attrs[static_cast<size_t>(a)] = a;
  AttributeSet s;
  for (int i = 0; i < k; ++i) {
    const size_t j = static_cast<size_t>(i) + rng->Uniform(width - i);
    std::swap(attrs[static_cast<size_t>(i)], attrs[j]);
    s.Set(attrs[static_cast<size_t>(i)]);
  }
  return s;
}

::testing::AssertionResult SameState(const NonKeySet& fast,
                                     const GordianStats& fast_stats,
                                     const OracleNonKeySet& oracle,
                                     const GordianStats& oracle_stats) {
  if (fast.size() != oracle.size()) {
    return ::testing::AssertionFailure()
           << "size " << fast.size() << " vs oracle " << oracle.size();
  }
  if (fast.non_keys() != oracle.non_keys()) {
    return ::testing::AssertionFailure() << "non_keys() differ";
  }
  if (fast_stats.non_key_insert_attempts !=
          oracle_stats.non_key_insert_attempts ||
      fast_stats.non_keys_rejected_covered !=
          oracle_stats.non_keys_rejected_covered ||
      fast_stats.non_keys_evicted != oracle_stats.non_keys_evicted) {
    return ::testing::AssertionFailure() << "stats counters differ";
  }
  return ::testing::AssertionSuccess();
}

// One random sequence over `width` attributes. Members are drawn over
// [0, member_width), which widens as the sequence runs, so probes over the
// full width often name an attribute no member has, and the index widens
// with members live. Inserted sets hover around half of member_width, so
// most are incomparable and the antichain grows past several slot words,
// while supersets of members evict and later inserts reuse their slots.
void RunSequence(Random* rng, int width, Coverage* cov) {
  GordianStats fast_stats, oracle_stats;
  NonKeySet fast(&fast_stats);
  OracleNonKeySet oracle(&oracle_stats);
  int member_width = 1 + static_cast<int>(rng->Uniform(width));
  bool evicted_last = false;
  constexpr int kSteps = 600;
  for (int step = 0; step < kSteps; ++step) {
    if (step % 150 == 149 && member_width < width) {
      member_width += 1 + static_cast<int>(rng->Uniform(width - member_width));
    }
    const std::vector<AttributeSet> members = oracle.non_keys();
    const AttributeSet member = members.empty()
                                    ? AttributeSet()
                                    : members[rng->Uniform(members.size())];
    const int k = member_width / 2 + static_cast<int>(rng->UniformRange(-1, 1));
    const int kind = static_cast<int>(rng->Uniform(20));
    AttributeSet set;
    bool insert = true;
    switch (kind) {
      case 0:  // the empty set as a member
        break;
      case 1:  // the empty set as a probe
        insert = false;
        cov->empty_probe = true;
        break;
      case 2:  // a duplicate insert
        set = member;
        break;
      case 3:  // a superset of a member: evicts it unless equal
        set = member | RandomSetOfSize(rng, member_width,
                                       1 + static_cast<int>(rng->Uniform(3)));
        break;
      case 4:  // a member as a probe
        set = member;
        insert = false;
        break;
      case 5:  // a subset of a member as a probe
        set = member & RandomSetOfSize(rng, member_width, member_width / 2);
        insert = false;
        break;
      case 6:  // a member plus an attribute no member has
        set = member;
        if (member_width < width) {
          set.Set(member_width +
                  static_cast<int>(rng->Uniform(width - member_width)));
          cov->foreign_probe = true;
        }
        insert = false;
        break;
      default:
        if (kind < 13) {
          set = RandomSetOfSize(rng, member_width, k);
        } else {
          const int extra = static_cast<int>(rng->Uniform(width - k + 1));
          set = RandomSetOfSize(rng, width, k + extra);
          insert = false;
        }
        break;
    }
    if (insert) {
      const int64_t evicted_before = oracle_stats.non_keys_evicted;
      const bool added = oracle.Insert(set);
      ASSERT_EQ(fast.Insert(set), added) << "Insert " << set.ToString();
      if (added && set.Empty()) cov->empty_member = true;
      if (!added && kind == 2 && !members.empty()) {
        cov->duplicate_rejected = true;
      }
      if (added && evicted_last && oracle.size() > 64) {
        cov->reuse_after_evict = true;
      }
      evicted_last = oracle_stats.non_keys_evicted > evicted_before;
    } else {
      ASSERT_EQ(fast.CoversSet(set), oracle.CoversSet(set))
          << "CoversSet " << set.ToString();
    }
    ASSERT_TRUE(SameState(fast, fast_stats, oracle, oracle_stats))
        << "after step " << step << " at width " << width;
    cov->max_size = std::max(cov->max_size, oracle.size());
  }
}

TEST(NonKeySetFuzz, MatchesBucketedOracle) {
  Random rng(20061);
  Coverage cov;
  const int iters = FuzzIters();
  for (int it = 0; it < iters; ++it) {
    // Both ends of each AttributeSet word, plus a random width.
    const int random_width = 1 + static_cast<int>(rng.Uniform(128));
    for (int width : {1, 2, 13, 63, 64, 65, 127, 128, random_width}) {
      RunSequence(&rng, width, &cov);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(cov.max_size, 128);  // three slot words live at once
  EXPECT_TRUE(cov.empty_member);
  EXPECT_TRUE(cov.empty_probe);
  EXPECT_TRUE(cov.duplicate_rejected);
  EXPECT_TRUE(cov.foreign_probe);
  EXPECT_TRUE(cov.reuse_after_evict);
}

}  // namespace
}  // namespace gordian
