#ifndef GORDIAN_CORE_GORDIAN_H_
#define GORDIAN_CORE_GORDIAN_H_

#include <string>
#include <vector>

#include "common/attribute_set.h"
#include "core/options.h"
#include "table/table.h"

namespace gordian {

// One discovered key together with its quality measures. For a run on the
// full dataset every key is strict (strength 1). For a run on a sample,
// `estimated_strength` carries the T(K) lower bound computed from the sample
// (Section 3.9); `exact_strength` is filled in by ValidateKeys.
struct DiscoveredKey {
  AttributeSet attrs;
  double estimated_strength = 1.0;
  double exact_strength = -1.0;  // < 0 until validated against full data
};

// The result of a key-discovery run.
struct KeyDiscoveryResult {
  // True iff some entity appears more than once, in which case no attribute
  // set can be a key (Algorithm 2, lines 17-18) and `keys` is empty.
  bool no_keys = false;

  // Minimal keys of the profiled (possibly sampled) entity collection,
  // sorted by ascending cardinality.
  std::vector<DiscoveredKey> keys;

  // The non-redundant (maximal) non-keys from which the keys were derived.
  std::vector<AttributeSet> non_keys;

  // True iff the run profiled a proper sample rather than the full table.
  bool sampled = false;

  // True iff discovery stopped early because a budget in GordianOptions
  // (max_non_keys / time_budget_seconds) tripped or the run was cancelled
  // through options.cancel_flag. The non-keys listed are all genuine but
  // possibly not exhaustive; `keys` is left empty because a partial non-key
  // set cannot certify keys.
  bool incomplete = false;

  // Which limit stopped the run; kNone when incomplete is false.
  AbortReason incomplete_reason = AbortReason::kNone;

  GordianStats stats;

  // Keys as bare attribute sets, in result order.
  std::vector<AttributeSet> KeySets() const {
    std::vector<AttributeSet> out;
    out.reserve(keys.size());
    for (const DiscoveredKey& k : keys) out.push_back(k.attrs);
    return out;
  }
};

class ByteReader;
class ByteWriter;

// The key and non-key lists of a result in the one byte layout that the
// catalog files (GRDC, GRDS) and the RPC payloads (net/wire.h) share: a u32
// key count; per key an attribute list, then the estimated and exact
// strengths as IEEE-754 bit patterns; a u32 non-key count; per non-key an
// attribute list. An attribute list is a u8 count followed by strictly
// ascending u8 positions.
void EncodeKeyLists(const KeyDiscoveryResult& result, ByteWriter* out);

// Decodes into result->keys and result->non_keys. A position at or above
// `num_attributes`, a list out of order, truncation, and a count above 2^20
// or beyond the bytes left (common/byte_codec.h) are InvalidArgument.
Status DecodeKeyLists(ByteReader* in, int num_attributes,
                      KeyDiscoveryResult* result);

// Runs GORDIAN on `table`: builds the prefix tree, finds all non-redundant
// non-keys (Algorithm 4 with the configured prunings), and converts them to
// the exact set of minimal composite keys (Algorithm 6). When
// options.sample_rows selects a proper subset, discovery runs on that sample
// and the result's keys carry T(K) strength estimates. A table wider than
// AttributeSet::kMaxAttributes yields an incomplete result with no keys
// (AbortReason::kTooManyAttributes).
KeyDiscoveryResult FindKeys(const Table& table,
                            const GordianOptions& options = {});

// Re-validates sample-discovered keys against the full table: fills in
// exact_strength for every key of `result`. A key with exact_strength == 1
// is a true key; others are approximate keys.
void ValidateKeys(const Table& full_table, KeyDiscoveryResult* result);

// Human-readable multi-line report of a discovery result (one key per line
// with column names and strengths).
std::string FormatResult(const Table& table, const KeyDiscoveryResult& result);

// Independent verification of a (non-sampled) discovery result against the
// table it was computed from: every key must be unique and minimal, every
// non-key genuinely duplicated, and both lists antichains. Intended for
// cautious adopters and used throughout the test suite. Stops collecting
// after 20 problems.
struct VerificationReport {
  bool ok = true;
  std::vector<std::string> problems;
};
VerificationReport VerifyResult(const Table& table,
                                const KeyDiscoveryResult& result);

}  // namespace gordian

#endif  // GORDIAN_CORE_GORDIAN_H_
