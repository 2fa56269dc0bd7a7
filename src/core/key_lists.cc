// EncodeKeyLists and DecodeKeyLists (core/gordian.h). They sit in their own
// file, listed after the traversal's code in the library (as are
// frozen_build.cc and foreign_key.cc, for the same reason), so that the
// traversal code linked after gordian.cc keeps its alignment: with them in
// gordian.cc, the node pool and non-key set functions moved by 32 bytes and
// perfbench's routed_reprofile traversal read about 20% slower (4-vCPU
// x86-64 VM, GCC 12, -O2). Foreign-key discovery, which the traversal never
// calls, was listed before frozen_tree.cc, so every change to its size
// moved every FrozenNonKeyFinder and NonKeySet function.

#include "common/byte_codec.h"
#include "core/gordian.h"

namespace gordian {

namespace {

// Plausibility cap on either list: a flipped byte in a count field must not
// talk the decoder into a gigabyte allocation.
constexpr uint32_t kMaxSets = 1u << 20;
// The smallest encoded key (an empty attribute list and two strengths) and
// non-key (an empty attribute list): the count rule's item sizes.
constexpr size_t kMinKeyBytes = 1 + 2 * sizeof(double);
constexpr size_t kMinNonKeyBytes = 1;

void EncodeAttrs(const AttributeSet& attrs, ByteWriter* out) {
  out->U8(static_cast<uint8_t>(attrs.Count()));
  attrs.ForEach([&](int a) { out->U8(static_cast<uint8_t>(a)); });
}

bool DecodeAttrs(ByteReader* in, int num_attributes, AttributeSet* attrs) {
  uint8_t count;
  if (!in->U8(&count)) return false;
  *attrs = AttributeSet();
  int prev = -1;
  for (int i = 0; i < count; ++i) {
    uint8_t a;
    if (!in->U8(&a) || a >= num_attributes || a <= prev) return false;
    attrs->Set(a);
    prev = a;
  }
  return true;
}

}  // namespace

void EncodeKeyLists(const KeyDiscoveryResult& result, ByteWriter* out) {
  out->U32(static_cast<uint32_t>(result.keys.size()));
  for (const DiscoveredKey& k : result.keys) {
    EncodeAttrs(k.attrs, out);
    out->F64(k.estimated_strength);
    out->F64(k.exact_strength);
  }
  out->U32(static_cast<uint32_t>(result.non_keys.size()));
  for (const AttributeSet& nk : result.non_keys) EncodeAttrs(nk, out);
}

Status DecodeKeyLists(ByteReader* in, int num_attributes,
                      KeyDiscoveryResult* result) {
  uint32_t num_keys;
  if (!in->Count(&num_keys, kMinKeyBytes) || num_keys > kMaxSets) {
    return Status::InvalidArgument("corrupt key count");
  }
  result->keys.resize(num_keys);
  for (DiscoveredKey& key : result->keys) {
    if (!DecodeAttrs(in, num_attributes, &key.attrs) ||
        !in->F64(&key.estimated_strength) || !in->F64(&key.exact_strength)) {
      return Status::InvalidArgument("corrupt key record");
    }
  }
  uint32_t num_non_keys;
  if (!in->Count(&num_non_keys, kMinNonKeyBytes) || num_non_keys > kMaxSets) {
    return Status::InvalidArgument("corrupt non-key count");
  }
  result->non_keys.resize(num_non_keys);
  for (AttributeSet& nk : result->non_keys) {
    if (!DecodeAttrs(in, num_attributes, &nk)) {
      return Status::InvalidArgument("corrupt non-key record");
    }
  }
  return Status::OK();
}

}  // namespace gordian
