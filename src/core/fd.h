#ifndef GORDIAN_CORE_FD_H_
#define GORDIAN_CORE_FD_H_

#include <vector>

#include "common/attribute_set.h"
#include "core/gordian.h"
#include "table/table.h"

namespace gordian {

// Ranked top-k functional-dependency discovery, derived from the artifacts a
// GORDIAN run already produced. The maximal non-keys bound the candidate
// space for free: a non-trivial FD X -> A with non-unique X can only hold if
// X ∪ {A} fits inside some maximal non-key (were X unique, X would be a
// superkey and the FD trivial; were X ∪ {A} not inside a non-key it would
// contain a key, again making X a superkey). So candidates are enumerated as
// subsets of the discovered non-keys instead of the full 2^d lattice, then
// verified exactly on dense group ids: the rows are grouped by X once per
// determinant, and X -> A holds iff one pass over the rows sees a single A
// value per group. The pass stops at the first row that disagrees with its
// group.
//
// Candidates are ranked by redundancy = 1 - |distinct(X)| / rows — the
// fraction of rows that repeat an X-value and are therefore determined "for
// free" by the dependency (cf. redundancy-driven top-k FD discovery). High
// redundancy means the FD compresses/normalizes many rows; redundancy 0
// would mean X is a key and the FD trivial.

struct FdCandidate {
  AttributeSet lhs;       // determinant X (never empty, never a key)
  int rhs = 0;            // determined attribute A, not in X
  int64_t lhs_distinct = 0;
  double redundancy = 0;  // 1 - lhs_distinct / rows
};

struct FdOptions {
  // Determinants with more attributes than this are not considered; the
  // verified FD space grows combinatorially with LHS width and wide
  // determinants are rarely meaningful.
  int max_lhs_size = 2;

  // Keep only the top-k ranked FDs per table. <= 0 keeps all verified FDs.
  int top_k = 10;

  // Hard cap on exact verifications (row passes) per table, a guard
  // against adversarially wide non-keys. Candidates are enumerated in
  // the documented deterministic order, so the cap cuts a stable prefix.
  // <= 0 removes the cap.
  int64_t max_verifications = 10000;
};

// The documented total order used for the ranking: redundancy descending,
// then LHS size ascending, LHS ascending (AttributeSet order), RHS
// ascending. No two distinct candidates compare equal, so reports are
// byte-stable across thread counts and discovery paths.
bool FdCandidateLess(const FdCandidate& a, const FdCandidate& b);

// Derives ranked FD candidates for `table` from `result` (a completed
// discovery on the same data). Returns at most options.top_k FDs, sorted by
// FdCandidateLess. Empty when the result is incomplete (a partial non-key
// set would silently truncate the candidate space).
std::vector<FdCandidate> DiscoverFds(const Table& table,
                                     const KeyDiscoveryResult& result,
                                     const FdOptions& options = {});

}  // namespace gordian

#endif  // GORDIAN_CORE_FD_H_
