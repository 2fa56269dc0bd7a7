#include "oracle/fd.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>

namespace gordian {

namespace {

// LHS width ascending, then LHS ascending (AttributeSet order), then RHS
// ascending: the enumeration order the verification cap cuts a prefix of.
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

}  // namespace

std::vector<FdCandidate> OracleDiscoverFds(const Table& table,
                                           const KeyDiscoveryResult& result,
                                           const FdOptions& options) {
  std::vector<FdCandidate> out;
  if (table.num_rows() == 0 || result.incomplete) return out;

  std::vector<AttributeSet> non_keys = result.non_keys;
  if (result.no_keys || (non_keys.empty() && result.keys.empty())) {
    non_keys = {AttributeSet::FirstN(table.num_columns())};
  }

  std::set<std::pair<AttributeSet, int>, CandidateLess> candidates;
  std::vector<AttributeSet> subsets;
  for (const AttributeSet& nk : non_keys) {
    EnumerateSubsets(nk, options.max_lhs_size, &subsets);
    for (const AttributeSet& lhs : subsets) {
      AttributeSet rest = nk - lhs;
      rest.ForEach([&](int a) { candidates.insert({lhs, a}); });
    }
  }

  // Verify: X -> A iff distinct(X ∪ {A}) == distinct(X). Distinct counts
  // for repeated LHSs are memoized; the cardinality prune skips pairs where
  // A alone has more distinct values than X (A cannot be a function of X).
  std::unordered_map<AttributeSet, int64_t, AttributeSetHash> distinct_memo;
  auto distinct_of = [&](const AttributeSet& s) {
    auto it = distinct_memo.find(s);
    if (it != distinct_memo.end()) return it->second;
    int64_t d = table.DistinctCountFast(s);
    distinct_memo.emplace(s, d);
    return d;
  };

  int64_t verifications = 0;
  const double rows = static_cast<double>(table.num_rows());
  for (const auto& [lhs, rhs] : candidates) {
    if (options.max_verifications > 0 &&
        verifications >= options.max_verifications) {
      break;
    }
    int64_t lhs_distinct = distinct_of(lhs);
    if (lhs_distinct >= table.num_rows()) continue;  // X unique -> trivial
    if (table.ColumnCardinality(rhs) > lhs_distinct) continue;  // prune
    ++verifications;
    AttributeSet both = lhs;
    both.Set(rhs);
    if (distinct_of(both) != lhs_distinct) continue;  // FD does not hold
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
