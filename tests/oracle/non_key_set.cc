#include "oracle/non_key_set.h"

#include <algorithm>

namespace gordian {

bool OracleNonKeySet::Insert(const AttributeSet& non_key) {
  if (stats_ != nullptr) ++stats_->non_key_insert_attempts;
  const int c = non_key.Count();
  // First pass: reject if covered by an existing non-key. Only members with
  // cardinality >= c can cover the candidate.
  for (int b = std::max(c, min_count_); b <= max_count_; ++b) {
    for (const Member& m : buckets_[b]) {
      if (m.attrs.Covers(non_key)) {
        if (stats_ != nullptr) ++stats_->non_keys_rejected_covered;
        return false;
      }
    }
  }
  // Second pass: evict members covered by the candidate — they all have
  // cardinality <= c (and the equal-cardinality bucket can only hold an
  // exact duplicate, which the reject pass already caught).
  int64_t evicted = 0;
  for (int b = min_count_; b < c && b <= max_count_; ++b) {
    std::vector<Member>& bucket = buckets_[b];
    if (bucket.empty()) continue;
    auto keep = std::remove_if(bucket.begin(), bucket.end(),
                               [&](const Member& m) {
                                 return non_key.Covers(m.attrs);
                               });
    evicted += static_cast<int64_t>(bucket.end() - keep);
    bucket.erase(keep, bucket.end());
  }
  if (stats_ != nullptr) stats_->non_keys_evicted += evicted;
  count_ -= evicted;

  buckets_[c].push_back(Member{non_key, next_seq_++});
  ++count_;
  min_count_ = std::min(min_count_, c);
  max_count_ = std::max(max_count_, c);
  // Eviction may have emptied the extreme buckets; the bounds are advisory
  // (scans skip empty buckets cheaply), so no re-tightening pass is needed.
  return true;
}

bool OracleNonKeySet::CoversSet(const AttributeSet& attrs) const {
  // Only members at least as large as the probe can cover it.
  for (int b = std::max(attrs.Count(), min_count_); b <= max_count_; ++b) {
    for (const Member& m : buckets_[b]) {
      if (m.attrs.Covers(attrs)) return true;
    }
  }
  return false;
}

std::vector<AttributeSet> OracleNonKeySet::non_keys() const {
  std::vector<Member> all;
  all.reserve(static_cast<size_t>(count_));
  for (int b = std::max(0, min_count_); b <= max_count_; ++b) {
    all.insert(all.end(), buckets_[b].begin(), buckets_[b].end());
  }
  std::sort(all.begin(), all.end(),
            [](const Member& a, const Member& b) { return a.seq < b.seq; });
  std::vector<AttributeSet> out;
  out.reserve(all.size());
  for (const Member& m : all) out.push_back(m.attrs);
  return out;
}

}  // namespace gordian
