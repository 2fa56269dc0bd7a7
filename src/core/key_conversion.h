#ifndef GORDIAN_CORE_KEY_CONVERSION_H_
#define GORDIAN_CORE_KEY_CONVERSION_H_

#include <vector>

#include "common/attribute_set.h"

namespace gordian {

// Algorithm 6 (Section 3.7): converts a set of non-keys into the
// non-redundant set of minimal keys, the minimal sets that hit every
// non-key's complement (with respect to `num_attributes` columns). The
// paper folds the complements in by forming every product key | {a} and
// pruning redundant (superset) keys; this takes Berge's transversal step
// instead, which builds only the products that survive, so no
// minimization pass runs. Keys return sorted by (cardinality, bit
// pattern), the order the product fold's final minimization gives.
//
// Special cases follow from the definition:
//  - no non-keys: every single attribute is a key, so all singletons return;
//  - some non-key equals the full attribute set: no key exists, returns {}.
std::vector<AttributeSet> NonKeysToKeys(const std::vector<AttributeSet>& non_keys,
                                        int num_attributes);

}  // namespace gordian

#endif  // GORDIAN_CORE_KEY_CONVERSION_H_
