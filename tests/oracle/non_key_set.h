#ifndef GORDIAN_TESTS_ORACLE_NON_KEY_SET_H_
#define GORDIAN_TESTS_ORACLE_NON_KEY_SET_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/attribute_set.h"
#include "core/options.h"

namespace gordian {

// The bucketed reference for NonKeySet (Algorithm 5, Section 3.6): the same
// antichain, insertion order and GordianStats counters, but every cover
// test compares members one at a time.
//
// Members are bucketed by cardinality (popcount). A member can cover a set
// only if it has at least as many attributes, and can be covered only by a
// set with at least as many, so CoversSet scans only the buckets at or above
// the probe's size, and Insert's reject/evict passes each scan one side of
// the candidate's cardinality. The library's NonKeySet answers both
// questions on per-attribute slot bitmaps instead; tests pin it against this
// container, counters and order included.
class OracleNonKeySet {
 public:
  explicit OracleNonKeySet(GordianStats* stats = nullptr) : stats_(stats) {}

  // Algorithm 5. Returns true if `non_key` was added.
  bool Insert(const AttributeSet& non_key);

  // True iff some member covers (is a superset of) `attrs`.
  bool CoversSet(const AttributeSet& attrs) const;

  // Members in insertion order (the order Algorithm 5 accepted them, with
  // evicted members absent).
  std::vector<AttributeSet> non_keys() const;

  int64_t size() const { return count_; }

 private:
  struct Member {
    AttributeSet attrs;
    uint64_t seq;  // global insertion counter, for insertion-order recall
  };

  // buckets_[c] holds the members with exactly c attributes. Index range
  // covers popcounts 0..kMaxAttributes inclusive.
  std::array<std::vector<Member>, AttributeSet::kMaxAttributes + 1> buckets_;
  int min_count_ = AttributeSet::kMaxAttributes + 1;  // lowest non-empty
  int max_count_ = -1;                                // highest non-empty
  int64_t count_ = 0;
  uint64_t next_seq_ = 0;
  GordianStats* stats_;
};

}  // namespace gordian

#endif  // GORDIAN_TESTS_ORACLE_NON_KEY_SET_H_
