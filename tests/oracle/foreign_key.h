#ifndef GORDIAN_TESTS_ORACLE_FOREIGN_KEY_H_
#define GORDIAN_TESTS_ORACLE_FOREIGN_KEY_H_

#include <vector>

#include "common/attribute_set.h"
#include "core/foreign_key.h"
#include "table/table.h"

namespace gordian {

// The value-materializing reference for foreign-key discovery: every
// referencing and referenced tuple is decoded back into Values and hashed
// into a fingerprint set, row by row. It has its own candidate enumeration,
// type check, SQL NULL exclusion, strict early break and filters, and
// shares only SortForeignKeyCandidates with the library, so the value-id
// verifier in core/foreign_key is pinned against code it does not call.
// OracleVerifyForeignKeysAgainstKey checks one unit: every candidate column
// tuple of tables[referencing_table] against the single key `key` of
// tables[referenced_table]. OracleDiscoverForeignKeys loops over every
// (referenced table, key, referencing table) unit and sorts, with the
// signature and contract of DiscoverForeignKeys.
std::vector<ForeignKeyCandidate> OracleVerifyForeignKeysAgainstKey(
    const std::vector<ProfiledTable>& tables, int referencing_table,
    int referenced_table, const AttributeSet& key,
    const ForeignKeyOptions& options = {});

std::vector<ForeignKeyCandidate> OracleDiscoverForeignKeys(
    const std::vector<ProfiledTable>& tables,
    const ForeignKeyOptions& options = {});

// Coverage of the inclusion fk_cols(fk_table) <= key_cols(key_table):
// fraction of the referencing table's distinct NULL-free fk tuples that
// occur among the referenced table's key tuples, with no filters applied.
double InclusionCoverage(const Table& fk_table, const AttributeSet& fk_cols,
                         const Table& key_table, const AttributeSet& key_cols);

}  // namespace gordian

#endif  // GORDIAN_TESTS_ORACLE_FOREIGN_KEY_H_
