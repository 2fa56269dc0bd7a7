#include "oracle/key_conversion.h"

#include <algorithm>

namespace gordian {

std::vector<AttributeSet> MinimizeSets(std::vector<AttributeSet> sets) {
  // Sort by ascending cardinality so a kept set can only be covered by an
  // earlier (smaller or equal) kept set; then filter.
  std::sort(sets.begin(), sets.end(), [](const AttributeSet& a,
                                         const AttributeSet& b) {
    int ca = a.Count(), cb = b.Count();
    if (ca != cb) return ca < cb;
    return a < b;
  });
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  std::vector<AttributeSet> kept;
  for (const AttributeSet& s : sets) {
    bool redundant = false;
    for (const AttributeSet& k : kept) {
      if (s.Covers(k)) {  // s is a superset of a kept (smaller) set
        redundant = true;
        break;
      }
    }
    if (!redundant) kept.push_back(s);
  }
  return kept;
}

std::vector<AttributeSet> OracleNonKeysToKeys(
    const std::vector<AttributeSet>& non_keys, int num_attributes) {
  const AttributeSet all = AttributeSet::FirstN(num_attributes);

  std::vector<AttributeSet> key_set;
  bool first = true;
  for (const AttributeSet& non_key : non_keys) {
    // Complement set: the single-attribute candidate keys not covered by
    // this non-key (Section 2).
    const AttributeSet complement = all - non_key;
    std::vector<AttributeSet> complement_singletons;
    complement.ForEach([&](int a) {
      complement_singletons.push_back(AttributeSet::Single(a));
    });

    if (first) {
      key_set = std::move(complement_singletons);
      first = false;
      continue;
    }
    std::vector<AttributeSet> new_set;
    new_set.reserve(key_set.size() *
                    std::max<size_t>(1, complement_singletons.size()));
    for (const AttributeSet& p_key : complement_singletons) {
      for (const AttributeSet& key : key_set) {
        new_set.push_back(key | p_key);
      }
    }
    key_set = MinimizeSets(std::move(new_set));
    if (key_set.empty()) return {};  // some non-key covers everything
  }

  if (first) {
    // No non-keys at all: every attribute alone is a key.
    std::vector<AttributeSet> keys;
    for (int a = 0; a < num_attributes; ++a) {
      keys.push_back(AttributeSet::Single(a));
    }
    return keys;
  }
  return MinimizeSets(std::move(key_set));
}

}  // namespace gordian
