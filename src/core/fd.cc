#include "core/fd.h"

#include <algorithm>
#include <cstdint>
#include <set>

namespace gordian {

namespace {

// Candidate enumeration order shared by every run: LHS width ascending,
// then LHS ascending (AttributeSet order), then RHS ascending. The
// max_verifications cap cuts a prefix of this order, so capped runs are
// still deterministic.
struct CandidateLess {
  bool operator()(const std::pair<AttributeSet, int>& a,
                  const std::pair<AttributeSet, int>& b) const {
    int ac = a.first.Count(), bc = b.first.Count();
    if (ac != bc) return ac < bc;
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;
  }
};

// All non-empty subsets of `space` with at most max_size attributes.
// Widths beyond 2 extend recursively; in practice max_lhs_size is 1 or 2.
void EnumerateSubsets(const AttributeSet& space, int max_size,
                      std::vector<AttributeSet>* out) {
  std::vector<int> attrs;
  space.ForEach([&](int a) { attrs.push_back(a); });
  out->clear();
  std::vector<AttributeSet> frontier;
  frontier.push_back(AttributeSet());
  std::vector<int> frontier_max = {-1};  // largest member per frontier set
  for (int size = 1; size <= max_size; ++size) {
    std::vector<AttributeSet> next;
    std::vector<int> next_max;
    for (size_t f = 0; f < frontier.size(); ++f) {
      for (int a : attrs) {
        if (a <= frontier_max[f]) continue;  // each subset exactly once
        AttributeSet s = frontier[f];
        s.Set(a);
        next.push_back(s);
        next_max.push_back(a);
      }
    }
    out->insert(out->end(), next.begin(), next.end());
    frontier = std::move(next);
    frontier_max = std::move(next_max);
  }
}

// Dense group ids of the table's rows under one determinant X: two rows
// share an id iff they agree on every attribute of X. The first column's
// codes are the ids; each further column folds in by relabelling the
// packed (id, code) pair to a new dense id.
class LhsGroups {
 public:
  explicit LhsGroups(const Table& table)
      : table_(table), dense_ids_(table.num_rows()) {}

  // Groups the rows by `lhs` (non-empty) and returns the group count,
  // |distinct(X)|, exactly.
  int64_t Group(const AttributeSet& lhs) {
    const int first = lhs.First();
    ids_ = table_.column_codes(first).data();
    id_space_ = table_.dictionary(first).size();
    int64_t groups = table_.ColumnCardinality(first);
    for (int a = lhs.Next(first); a >= 0; a = lhs.Next(a)) {
      groups = FoldIn(table_.column_codes(a).data());
    }
    return groups;
  }

  // X -> A iff every group of the last Group call sees one code of `rhs`.
  // One pass over the rows, stopping at the first conflict.
  bool Determines(int rhs) {
    const uint32_t* codes = table_.column_codes(rhs).data();
    first_seen_.assign(id_space_, kUnseen);
    const int64_t rows = table_.num_rows();
    for (int64_t r = 0; r < rows; ++r) {
      uint32_t& seen = first_seen_[ids_[r]];
      if (seen == kUnseen) {
        seen = codes[r];
      } else if (seen != codes[r]) {
        return false;
      }
    }
    return true;
  }

 private:
  // No dictionary code is UINT32_MAX, and no dense id either (ids count
  // groups, which are at most the rows, uint32-addressed like the codes),
  // so it marks both an unseen group and an empty slot.
  static constexpr uint32_t kUnseen = UINT32_MAX;

  // Replaces every row's id by a dense id of its (id, code) pair, through
  // an open-addressing table kept at most half full. Returns the number of
  // distinct pairs.
  uint32_t FoldIn(const uint32_t* codes) {
    const int64_t rows = table_.num_rows();
    size_t capacity = 2;
    int shift = 63;
    while (capacity < static_cast<size_t>(2 * rows)) {
      capacity <<= 1;
      --shift;
    }
    slot_keys_.resize(capacity);
    slot_ids_.assign(capacity, kUnseen);
    uint32_t count = 0;
    for (int64_t r = 0; r < rows; ++r) {
      const uint64_t key = (uint64_t{ids_[r]} << 32) | codes[r];
      size_t slot = static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift);
      while (slot_ids_[slot] != kUnseen && slot_keys_[slot] != key) {
        slot = (slot + 1) & (capacity - 1);
      }
      if (slot_ids_[slot] == kUnseen) {
        slot_keys_[slot] = key;
        slot_ids_[slot] = count++;
      }
      // Row r's old id is read before its new one is written, so folding
      // in place over dense_ids_ is safe.
      dense_ids_[r] = slot_ids_[slot];
    }
    ids_ = dense_ids_.data();
    id_space_ = count;
    return count;
  }

  const Table& table_;
  const uint32_t* ids_ = nullptr;  // one group id per row
  size_t id_space_ = 0;            // every id is below this
  std::vector<uint32_t> dense_ids_;
  std::vector<uint64_t> slot_keys_;
  std::vector<uint32_t> slot_ids_;
  std::vector<uint32_t> first_seen_;
};

}  // namespace

bool FdCandidateLess(const FdCandidate& a, const FdCandidate& b) {
  if (a.redundancy != b.redundancy) return a.redundancy > b.redundancy;
  int ac = a.lhs.Count(), bc = b.lhs.Count();
  if (ac != bc) return ac < bc;
  if (a.lhs != b.lhs) return a.lhs < b.lhs;
  return a.rhs < b.rhs;
}

std::vector<FdCandidate> DiscoverFds(const Table& table,
                                     const KeyDiscoveryResult& result,
                                     const FdOptions& options) {
  std::vector<FdCandidate> out;
  if (table.num_rows() == 0 || result.incomplete) return out;

  // Candidate space: for each maximal non-key N, every (X ⊆ N, A ∈ N \ X)
  // with |X| <= max_lhs_size. When no_keys is set every attribute set is a
  // non-key, so the whole schema acts as the single "non-key".
  std::vector<AttributeSet> non_keys = result.non_keys;
  if (result.no_keys || (non_keys.empty() && result.keys.empty())) {
    non_keys = {AttributeSet::FirstN(table.num_columns())};
  }

  // Deduplicate (X, A) pairs across overlapping non-keys, then order them
  // deterministically before applying the verification cap.
  std::set<std::pair<AttributeSet, int>, CandidateLess> candidates;
  std::vector<AttributeSet> subsets;
  for (const AttributeSet& nk : non_keys) {
    EnumerateSubsets(nk, options.max_lhs_size, &subsets);
    for (const AttributeSet& lhs : subsets) {
      AttributeSet rest = nk - lhs;
      rest.ForEach([&](int a) { candidates.insert({lhs, a}); });
    }
  }

  // Verify each candidate on the dense group ids of its LHS, computed once
  // per LHS (all RHSs of one LHS are contiguous in enumeration order). The
  // cardinality prune skips pairs where A alone has more distinct values
  // than X (A cannot be a function of X).
  LhsGroups groups(table);
  AttributeSet grouped;  // LHS `groups` holds; empty before the first
  int64_t lhs_distinct = 0;
  int64_t verifications = 0;
  const double rows = static_cast<double>(table.num_rows());
  for (const auto& [lhs, rhs] : candidates) {
    if (options.max_verifications > 0 &&
        verifications >= options.max_verifications) {
      break;
    }
    if (lhs != grouped) {
      lhs_distinct = groups.Group(lhs);
      grouped = lhs;
    }
    if (lhs_distinct >= table.num_rows()) continue;  // X unique -> trivial
    if (table.ColumnCardinality(rhs) > lhs_distinct) continue;  // prune
    ++verifications;
    if (!groups.Determines(rhs)) continue;  // FD does not hold
    FdCandidate fd;
    fd.lhs = lhs;
    fd.rhs = rhs;
    fd.lhs_distinct = lhs_distinct;
    fd.redundancy = 1.0 - static_cast<double>(lhs_distinct) / rows;
    out.push_back(fd);
  }

  std::sort(out.begin(), out.end(), FdCandidateLess);
  if (options.top_k > 0 && static_cast<int>(out.size()) > options.top_k) {
    out.resize(options.top_k);
  }
  return out;
}

}  // namespace gordian
