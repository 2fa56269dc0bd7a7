#include "core/non_key_set.h"

#include <algorithm>

namespace gordian {

namespace {

// Writes the attributes of `s` to `out` in ascending order; returns how
// many there are.
int ListAttrs(const AttributeSet& s, uint8_t* out) {
  int n = 0;
  s.ForEach([&](int a) { out[n++] = static_cast<uint8_t>(a); });
  return n;
}

}  // namespace

bool NonKeySet::AnyLiveHasAll(const uint8_t* attrs, int n) const {
  const uint64_t* has = has_.data();
  for (size_t w = 0; w < live_.size(); ++w, has += width_) {
    uint64_t acc = live_[w];
    for (int i = 0; i < n && acc != 0; ++i) acc &= has[attrs[i]];
    if (acc != 0) return true;
  }
  return false;
}

bool NonKeySet::Insert(const AttributeSet& non_key) {
  if (stats_ != nullptr) ++stats_->non_key_insert_attempts;
  uint8_t attrs[AttributeSet::kMaxAttributes];
  const int n = ListAttrs(non_key, attrs);
  // No member has an attribute at or past width_, so a candidate naming one
  // is covered by none.
  const bool fits = n == 0 || attrs[n - 1] < width_;
  if (fits && AnyLiveHasAll(attrs, n)) {
    if (stats_ != nullptr) ++stats_->non_keys_rejected_covered;
    return false;
  }
  // Evict the members the candidate covers: those with no attribute outside
  // it.
  uint8_t outside[AttributeSet::kMaxAttributes];
  int m = 0;
  for (int a = 0; a < width_; ++a) {
    if (!non_key.Test(a)) outside[m++] = static_cast<uint8_t>(a);
  }
  int64_t evicted = 0;
  const uint64_t* has = has_.data();
  for (size_t w = 0; w < live_.size(); ++w, has += width_) {
    uint64_t gone = live_[w];
    for (int i = 0; i < m && gone != 0; ++i) gone &= ~has[outside[i]];
    live_[w] &= ~gone;
    evicted += __builtin_popcountll(gone);
  }
  if (stats_ != nullptr) stats_->non_keys_evicted += evicted;
  count_ -= evicted;

  if (!fits) Widen(attrs[n - 1] + 1);
  const size_t slot = FreeSlot();
  const uint64_t bit = uint64_t{1} << (slot & 63);
  uint64_t* words = has_.data() + (slot >> 6) * static_cast<size_t>(width_);
  // A reused slot still carries its evicted member's bits.
  slots_[slot].attrs.ForEach([&](int a) { words[a] &= ~bit; });
  for (int i = 0; i < n; ++i) words[attrs[i]] |= bit;
  live_[slot >> 6] |= bit;
  slots_[slot] = Slot{non_key, next_seq_++};
  ++count_;
  return true;
}

bool NonKeySet::CoversSet(const AttributeSet& attrs) const {
  uint8_t list[AttributeSet::kMaxAttributes];
  const int n = ListAttrs(attrs, list);
  if (n > 0 && list[n - 1] >= width_) return false;
  return AnyLiveHasAll(list, n);
}

void NonKeySet::Widen(int width) {
  std::vector<uint64_t> has(live_.size() * static_cast<size_t>(width), 0);
  for (size_t w = 0; w < live_.size(); ++w) {
    std::copy_n(has_.data() + w * width_, width_, has.data() + w * width);
  }
  has_ = std::move(has);
  width_ = width;
}

size_t NonKeySet::FreeSlot() {
  for (size_t w = 0; w < live_.size(); ++w) {
    if (~live_[w] != 0) return w * 64 + __builtin_ctzll(~live_[w]);
  }
  live_.push_back(0);
  has_.resize(live_.size() * static_cast<size_t>(width_), 0);
  slots_.resize(live_.size() * 64);
  return (live_.size() - 1) * 64;
}

std::vector<AttributeSet> NonKeySet::non_keys() const {
  std::vector<const Slot*> members;
  members.reserve(static_cast<size_t>(count_));
  for (size_t w = 0; w < live_.size(); ++w) {
    for (uint64_t bits = live_[w]; bits != 0; bits &= bits - 1) {
      members.push_back(&slots_[w * 64 + __builtin_ctzll(bits)]);
    }
  }
  std::sort(members.begin(), members.end(),
            [](const Slot* a, const Slot* b) { return a->seq < b->seq; });
  std::vector<AttributeSet> out;
  out.reserve(members.size());
  for (const Slot* s : members) out.push_back(s->attrs);
  return out;
}

int64_t NonKeySet::ApproxBytes() const {
  return static_cast<int64_t>((live_.capacity() + has_.capacity()) *
                                  sizeof(uint64_t) +
                              slots_.capacity() * sizeof(Slot));
}

}  // namespace gordian
