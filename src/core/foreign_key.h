#ifndef GORDIAN_CORE_FOREIGN_KEY_H_
#define GORDIAN_CORE_FOREIGN_KEY_H_

#include <string>
#include <vector>

#include "common/attribute_set.h"
#include "core/gordian.h"
#include "table/table.h"

namespace gordian {

// Foreign-key (inclusion dependency) discovery — the extension the paper
// names as future work ("we plan to extend our approach to permit
// identification of foreign-key relationships, thereby automating the
// discovery of full entity-relationship diagrams", Section 6).
//
// A candidate foreign key is a column set F of a referencing table whose
// projected value set is (almost) contained in the value set of a discovered
// key K of a referenced table. Candidates are scored by coverage =
// |distinct F-tuples that appear among K-tuples| / |distinct F-tuples|; a
// strict inclusion dependency has coverage 1.
//
// NULL semantics follow SQL foreign keys: a referencing tuple containing a
// NULL in any foreign-key column asserts nothing, so it is excluded from
// the coverage denominator entirely (it is neither covered nor uncovered,
// and does not count toward distinct_fk_tuples).
//
// Discovery works on schema-wide value ids. Each call first builds one
// index: every dictionary code that occurs in a column's rows (one
// chunk-streamed pass, so spilled tables verify without residency) and is
// not NULL gets the id of its value, shared by every column of every table
// that holds that value. Inclusion is then a gather over ids: a
// single-column candidate is decided, and a two-column one pruned, from
// per-column id sets before any row is touched, and surviving two-column
// candidates probe the referenced key's id pairs with the referencing
// tuples. A value-materializing reference (tests/oracle/foreign_key.h)
// decodes every tuple instead; tests pin the two to identical candidate
// lists.
//
// Value types must match position-wise: a column's type is that of the
// first non-NULL entry in its dictionary, so a numeric FK never references
// a string key.

struct ForeignKeyCandidate {
  int referencing_table = 0;  // index into the input table list
  // Columns of the referencing table, ordered to correspond position-wise
  // with the referenced key's columns (ascending). A plain AttributeSet
  // would lose that pairing for multi-column foreign keys.
  std::vector<int> foreign_key_columns;
  int referenced_table = 0;    // index into the input table list
  AttributeSet referenced_key; // a discovered key of that table
  double coverage = 0;         // fraction of distinct FK tuples found in K
  // Reverse direction: fraction of the referenced key's values that are
  // actually referenced. Genuine foreign keys tend to reference a sizable
  // share of the key's domain; a small integer column that merely falls
  // inside a dense surrogate-key range does not.
  double referenced_coverage = 0;
  int64_t distinct_fk_tuples = 0;  // NULL-free distinct tuples (denominator)
};

struct ForeignKeyOptions {
  // Candidates below this coverage are dropped. 1.0 = strict inclusion only.
  double min_coverage = 1.0;

  // Widest foreign key searched. Only arities 1 and 2 are ever verified:
  // 1 restricts the search to single-column keys, and any value above 2
  // acts as 2 (wider FKs are rare and the candidate space grows as
  // d^arity).
  int max_arity = 2;

  // Skip referencing column sets whose distinct count is below this (tiny
  // domains like flags produce meaningless inclusions).
  int64_t min_distinct_values = 20;

  // Candidates referencing less than this fraction of the key's values are
  // dropped (see ForeignKeyCandidate::referenced_coverage). 0 keeps all.
  double min_referenced_coverage = 0.0;
};

// One profiled table: its data plus the keys GORDIAN discovered for it.
struct ProfiledTable {
  std::string name;
  const Table* table = nullptr;
  std::vector<AttributeSet> keys;
};

// Searches all ordered table pairs for inclusion dependencies from column
// sets of the referencing table into discovered keys of the referenced
// table. Self-references are allowed (hierarchies) but the identical column
// set is excluded. The result is in the documented total order (see
// ForeignKeyCandidateLess), so it is byte-stable across runs and paths.
// Reads only const Table accessors without lazy caches, so concurrent
// calls over the same tables are safe.
std::vector<ForeignKeyCandidate> DiscoverForeignKeys(
    const std::vector<ProfiledTable>& tables,
    const ForeignKeyOptions& options = {});

// The documented total order over candidates: coverage descending, then
// referencing table, referenced table, foreign-key columns, referenced key,
// all ascending. No two distinct candidates compare equal, so a sorted
// report is byte-stable regardless of discovery path or thread count.
bool ForeignKeyCandidateLess(const ForeignKeyCandidate& a,
                             const ForeignKeyCandidate& b);
void SortForeignKeyCandidates(std::vector<ForeignKeyCandidate>* candidates);

}  // namespace gordian

#endif  // GORDIAN_CORE_FOREIGN_KEY_H_
