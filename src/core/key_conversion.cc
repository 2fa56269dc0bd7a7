#include "core/key_conversion.h"

#include <algorithm>

namespace gordian {

namespace {

// (cardinality, bitset order): the canonical order keys are reported in.
bool CardinalityLess(const AttributeSet& a, const AttributeSet& b) {
  const int ca = a.Count(), cb = b.Count();
  if (ca != cb) return ca < cb;
  return a < b;
}

}  // namespace

std::vector<AttributeSet> NonKeysToKeys(
    const std::vector<AttributeSet>& non_keys, int num_attributes) {
  if (non_keys.empty()) {
    // No non-keys at all: every attribute alone is a key.
    std::vector<AttributeSet> keys;
    for (int a = 0; a < num_attributes; ++a) {
      keys.push_back(AttributeSet::Single(a));
    }
    return keys;
  }

  // Complement sets: the single-attribute candidate keys not covered by
  // each non-key (Section 2). Smallest first keeps the intermediate key
  // sets small; an empty complement means a non-key covers everything.
  const AttributeSet all = AttributeSet::FirstN(num_attributes);
  std::vector<AttributeSet> complements;
  complements.reserve(non_keys.size());
  for (const AttributeSet& non_key : non_keys) {
    complements.push_back(all - non_key);
  }
  std::sort(complements.begin(), complements.end(), CardinalityLess);
  if (complements.front().Empty()) return {};

  // Berge step: `keys` is the antichain of minimal sets hitting every
  // complement so far. For the next complement C, a key that hits C stays
  // as it is. A key M that misses C becomes M | {e} for each e in C, and
  // that product is dominated exactly when it covers a kept key containing
  // e. No other product can be dominated or repeated: C meets M | {e} only
  // in e, and the keys are an antichain.
  std::vector<AttributeSet> keys;
  complements.front().ForEach(
      [&](int a) { keys.push_back(AttributeSet::Single(a)); });
  std::vector<AttributeSet> next, missed;
  std::vector<std::vector<AttributeSet>> kept_with(
      AttributeSet::kMaxAttributes);
  for (size_t i = 1; i < complements.size(); ++i) {
    const AttributeSet& c = complements[i];
    next.clear();
    missed.clear();
    c.ForEach([&](int e) { kept_with[e].clear(); });
    for (const AttributeSet& key : keys) {
      if (!key.Intersects(c)) {
        missed.push_back(key);
        continue;
      }
      next.push_back(key);
      (key & c).ForEach([&](int e) { kept_with[e].push_back(key); });
    }
    if (missed.empty()) continue;  // every key already hits C
    for (const AttributeSet& m : missed) {
      c.ForEach([&](int e) {
        AttributeSet product = m;
        product.Set(e);
        for (const AttributeSet& kept : kept_with[e]) {
          if (product.Covers(kept)) return;
        }
        next.push_back(product);
      });
    }
    keys.swap(next);
  }

  std::sort(keys.begin(), keys.end(), CardinalityLess);
  return keys;
}

}  // namespace gordian
