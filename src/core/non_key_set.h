#ifndef GORDIAN_CORE_NON_KEY_SET_H_
#define GORDIAN_CORE_NON_KEY_SET_H_

#include <cstdint>
#include <vector>

#include "common/attribute_set.h"
#include "core/options.h"

namespace gordian {

// The NonKeySet container of Section 3.6: a non-redundant (antichain) set of
// non-keys, stored as attribute bitmaps. Insertion follows Algorithm 5: a
// candidate covered by an existing member is rejected; otherwise members
// covered by the candidate are evicted and the candidate is added.
//
// The bitmaps are sliced by attribute. Members sit in reusable slots, 64 to
// a slot word; each slot word has a live mask and, for every attribute up
// to the widest one inserted, one word marking the slots whose member has
// that attribute. A member covers a probe exactly when it has every
// attribute of the probe, so the futility test CoversSet (Section 3.4.2),
// the hottest predicate of the traversal, ANDs the live mask with the
// probe's attribute words, 64 members per AND, and Insert's evict pass ANDs
// the complements of the words of the attributes outside the candidate. No
// member is tested on its own.
class NonKeySet {
 public:
  explicit NonKeySet(GordianStats* stats = nullptr) : stats_(stats) {}

  // Algorithm 5. Returns true if `non_key` was added.
  bool Insert(const AttributeSet& non_key);

  // True iff some member covers (is a superset of) `attrs`. This is the
  // futility test: every non-key that is a subset of `attrs` would be
  // redundant.
  bool CoversSet(const AttributeSet& attrs) const;

  // Members in insertion order (the order Algorithm 5 accepted them, with
  // evicted members absent).
  std::vector<AttributeSet> non_keys() const;

  int64_t size() const { return count_; }

  // Bytes of the slot array and the bitmaps.
  int64_t ApproxBytes() const;

 private:
  struct Slot {
    AttributeSet attrs;
    uint64_t seq = 0;  // insertion number, for insertion-order recall
  };

  // True iff some live member has all `n` attributes of `attrs`, each of
  // which must lie below width_.
  bool AnyLiveHasAll(const uint8_t* attrs, int n) const;
  // Re-lays the attribute words out for attributes [0, width).
  void Widen(int width);
  // The lowest free slot, adding a slot word when every slot is live.
  size_t FreeSlot();

  // Bit i of live_[w]: slot 64w+i holds a member.
  std::vector<uint64_t> live_;
  // Bit i of has_[w * width_ + a]: the member in slot 64w+i has attribute
  // a. Bits of free slots are stale; every test masks them with live_.
  std::vector<uint64_t> has_;
  int width_ = 0;  // one past the widest attribute ever inserted
  std::vector<Slot> slots_;
  int64_t count_ = 0;
  uint64_t next_seq_ = 0;
  GordianStats* stats_;
};

}  // namespace gordian

#endif  // GORDIAN_CORE_NON_KEY_SET_H_
