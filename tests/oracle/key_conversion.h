#ifndef GORDIAN_TESTS_ORACLE_KEY_CONVERSION_H_
#define GORDIAN_TESTS_ORACLE_KEY_CONVERSION_H_

#include <vector>

#include "common/attribute_set.h"

namespace gordian {

// Removes duplicates and any set that is a strict superset of another,
// returning the minimal antichain sorted by (cardinality, bit pattern).
std::vector<AttributeSet> MinimizeSets(std::vector<AttributeSet> sets);

// The product oracle for Algorithm 6 (Section 3.7), written as the paper
// states it: fold the non-keys' complement sets (with respect to
// `num_attributes` columns) into the key set by forming every product
// key | {a} and minimizing after each step. The library's NonKeysToKeys
// takes Berge steps instead; tests pin it against this fold, order
// included.
std::vector<AttributeSet> OracleNonKeysToKeys(
    const std::vector<AttributeSet>& non_keys, int num_attributes);

}  // namespace gordian

#endif  // GORDIAN_TESTS_ORACLE_KEY_CONVERSION_H_
