#ifndef GORDIAN_TABLE_DICTIONARY_H_
#define GORDIAN_TABLE_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "table/column_chunk.h"
#include "table/value.h"

namespace gordian {

// Bidirectional mapping between Values and dense uint32 codes for one
// column. Codes are assigned in first-seen order; the code space of a
// column is [0, size()).
//
// Each Value is stored exactly once, in `values_`; the reverse direction is
// an open-addressed table of codes probed by Value::Hash() and resolved by
// comparing against `values_[code]`. This halves dictionary memory versus
// keeping a second Value copy inside a map key.
//
// The typed Encode overloads and EncodeBatch are the vectorized ingest
// path: they probe with the same per-type hashes Value::Hash() composes
// (Value::HashOf), so a value reaches the same slot — and therefore the
// same code — whether it arrives as a Value or as a raw int64/double/
// string_view. A Value is only constructed when the probe misses and the
// value is genuinely new.
class Dictionary {
 public:
  // Returns the code for `v`, inserting it if new.
  uint32_t Encode(const Value& v) {
    return EncodeWith(
        v.Hash(), [&](const Value& u) { return u == v; },
        [&] { return Value(v); });
  }

  uint32_t EncodeNull() {
    return EncodeWith(
        Value::NullHash(), [](const Value& u) { return u.is_null(); },
        [] { return Value::Null(); });
  }

  uint32_t Encode(int64_t v) {
    return EncodeWith(
        Value::HashOf(v),
        [&](const Value& u) {
          return u.type() == ValueType::kInt64 && u.int64() == v;
        },
        [&] { return Value(v); });
  }

  uint32_t Encode(double v) {
    return EncodeWith(
        Value::HashOf(v),
        [&](const Value& u) {
          return u.type() == ValueType::kDouble &&
                 Value::SameDouble(u.dbl(), v);
        },
        [&] { return Value(v); });
  }

  uint32_t Encode(std::string_view v) {
    return EncodeWith(
        Value::HashOf(v),
        [&](const Value& u) {
          return u.type() == ValueType::kString && u.str() == v;
        },
        [&] { return Value(std::string(v)); });
  }

  // Encodes every entry of `chunk` in order, appending one code per entry
  // to *codes. Equivalent to (and code-for-code identical with) calling the
  // row-at-a-time Encode on each materialized Value.
  void EncodeBatch(const ColumnChunk& chunk, std::vector<uint32_t>* codes) {
    const int64_t n = chunk.size();
    codes->reserve(codes->size() + static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      switch (chunk.type(i)) {
        case ValueType::kNull:
          codes->push_back(EncodeNull());
          break;
        case ValueType::kInt64:
          codes->push_back(Encode(chunk.int64_at(i)));
          break;
        case ValueType::kDouble:
          codes->push_back(Encode(chunk.double_at(i)));
          break;
        case ValueType::kString:
          codes->push_back(Encode(chunk.string_at(i)));
          break;
      }
    }
  }

  // Returns the code for `v`, or UINT32_MAX if absent.
  uint32_t Lookup(const Value& v) const {
    if (slots_.empty()) return UINT32_MAX;
    size_t i = Probe(v.Hash(), [&](const Value& u) { return u == v; });
    return slots_[i] == kEmpty ? UINT32_MAX : slots_[i];
  }

  const Value& Decode(uint32_t code) const { return values_[code]; }

  uint32_t size() const { return static_cast<uint32_t>(values_.size()); }

  // Approximate heap footprint; used by memory accounting.
  int64_t ApproxBytes() const {
    return static_cast<int64_t>(values_.capacity() * sizeof(Value) +
                                slots_.capacity() * sizeof(uint32_t));
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  // Probe first, so a hit pays no load-factor check. A miss inserts in
  // place unless one more value would pass a 0.7 load, in which case the
  // table doubles and is probed again. Codes are first-seen order either
  // way.
  template <typename Eq, typename Make>
  uint32_t EncodeWith(uint64_t hash, const Eq& eq, const Make& make) {
    if (!slots_.empty()) {
      const size_t i = Probe(hash, eq);
      if (slots_[i] != kEmpty) return slots_[i];
      if (values_.size() + 1 <= (slots_.size() * 7) / 10) {
        return Insert(i, make());
      }
    }
    Rehash();
    return Insert(Probe(hash, eq), make());
  }

  uint32_t Insert(size_t slot, Value v) {
    uint32_t code = static_cast<uint32_t>(values_.size());
    values_.push_back(std::move(v));
    slots_[slot] = code;
    return code;
  }

  // Index of the slot whose stored value satisfies `eq`, or of the empty
  // slot where such a value would be inserted. Requires a non-empty,
  // never-full table.
  template <typename Eq>
  size_t Probe(uint64_t hash, const Eq& eq) const {
    size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(hash) & mask;
    while (slots_[i] != kEmpty && !eq(values_[slots_[i]])) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Rehash() {
    size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
    slots_.assign(cap, kEmpty);
    size_t mask = cap - 1;
    for (uint32_t code = 0; code < values_.size(); ++code) {
      size_t i = static_cast<size_t>(values_[code].Hash()) & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = code;
    }
  }

  std::vector<Value> values_;
  // Power-of-two open-addressing table of codes; kEmpty marks a free slot.
  std::vector<uint32_t> slots_;
};

}  // namespace gordian

#endif  // GORDIAN_TABLE_DICTIONARY_H_
