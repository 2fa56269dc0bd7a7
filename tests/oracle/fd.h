#ifndef GORDIAN_TESTS_ORACLE_FD_H_
#define GORDIAN_TESTS_ORACLE_FD_H_

#include <vector>

#include "core/fd.h"
#include "core/gordian.h"
#include "table/table.h"

namespace gordian {

// The distinct-count oracle for DiscoverFds: the same candidate space,
// enumeration order, prunes, verification cap and ranking, but each
// candidate X -> A is verified by comparing two fingerprint distinct
// counts, |distinct(X ∪ {A})| = |distinct(X)|, memoized per attribute set.
// The library groups rows by X once per LHS and stops at the first
// conflicting row instead; tests pin it against this reference.
std::vector<FdCandidate> OracleDiscoverFds(const Table& table,
                                           const KeyDiscoveryResult& result,
                                           const FdOptions& options = {});

}  // namespace gordian

#endif  // GORDIAN_TESTS_ORACLE_FD_H_
