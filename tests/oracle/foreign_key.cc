#include "oracle/foreign_key.h"

#include <cstdint>
#include <unordered_set>

#include "common/hashing.h"

namespace gordian {

namespace {

using TupleSet = std::unordered_set<Fingerprint128, Fingerprint128Hash>;

std::vector<int> ToCols(const AttributeSet& attrs) {
  std::vector<int> cols;
  attrs.ForEach([&](int a) { cols.push_back(a); });
  return cols;
}

// Value tuples must be compared across tables, whose dictionaries assign
// codes independently, so fingerprints hash the decoded Values.
Fingerprint128 TupleFingerprint(const Table& t, int64_t row,
                                const std::vector<int>& cols) {
  Fingerprint128 fp;
  for (int c : cols) fp.Update(t.value(row, c).Hash());
  return fp;
}

bool RowHasNull(const Table& t, int64_t row, const std::vector<int>& cols) {
  for (int c : cols) {
    if (t.value(row, c).is_null()) return true;
  }
  return false;
}

// The type of the column's first non-NULL dictionary entry; kNull when the
// dictionary holds nothing else.
ValueType ColumnType(const Table& t, int col) {
  const Dictionary& d = t.dictionary(col);
  for (uint32_t code = 0; code < d.size(); ++code) {
    if (!d.Decode(code).is_null()) return d.Decode(code).type();
  }
  return ValueType::kNull;
}

// Every distinct tuple of `cols`, NULL components included.
TupleSet AllTuples(const Table& t, const std::vector<int>& cols) {
  TupleSet tuples;
  tuples.reserve(static_cast<size_t>(t.num_rows()));
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    tuples.insert(TupleFingerprint(t, r, cols));
  }
  return tuples;
}

// Counts the distinct NULL-free tuples of `cols` and how many of them are
// in `key_tuples`. Under `strict`, returns false at the first tuple that is
// not (the candidate cannot reach coverage 1).
bool CountCovered(const Table& t, const std::vector<int>& cols,
                  const TupleSet& key_tuples, bool strict, int64_t* covered,
                  int64_t* distinct) {
  TupleSet seen;
  *covered = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    if (RowHasNull(t, r, cols)) continue;  // SQL FK NULL semantics
    Fingerprint128 fp = TupleFingerprint(t, r, cols);
    if (!seen.insert(fp).second) continue;
    if (key_tuples.count(fp) > 0) {
      ++*covered;
    } else if (strict) {
      return false;
    }
  }
  *distinct = static_cast<int64_t>(seen.size());
  return true;
}

}  // namespace

double InclusionCoverage(const Table& fk_table, const AttributeSet& fk_cols,
                         const Table& key_table,
                         const AttributeSet& key_cols) {
  const std::vector<int> fcols = ToCols(fk_cols);
  const std::vector<int> kcols = ToCols(key_cols);
  if (fcols.size() != kcols.size() || fcols.empty()) return 0;
  int64_t covered = 0, distinct = 0;
  CountCovered(fk_table, fcols, AllTuples(key_table, kcols), /*strict=*/false,
               &covered, &distinct);
  if (distinct == 0) return 0;
  return static_cast<double>(covered) / static_cast<double>(distinct);
}

std::vector<ForeignKeyCandidate> OracleVerifyForeignKeysAgainstKey(
    const std::vector<ProfiledTable>& tables, int referencing_table,
    int referenced_table, const AttributeSet& key,
    const ForeignKeyOptions& options) {
  std::vector<ForeignKeyCandidate> out;
  const std::vector<int> kcols = ToCols(key);
  if (kcols.empty() || kcols.size() > 2 ||
      static_cast<int>(kcols.size()) > options.max_arity) {
    return out;
  }
  const Table& ft = *tables[referencing_table].table;
  const Table& kt = *tables[referenced_table].table;
  const TupleSet key_tuples = AllTuples(kt, kcols);

  // Ordered tuples of distinct referencing columns with the key's arity.
  std::vector<std::vector<int>> candidates;
  for (int c1 = 0; c1 < ft.num_columns(); ++c1) {
    if (kcols.size() == 1) {
      candidates.push_back({c1});
      continue;
    }
    for (int c2 = 0; c2 < ft.num_columns(); ++c2) {
      if (c2 != c1) candidates.push_back({c1, c2});
    }
  }

  for (const std::vector<int>& fcols : candidates) {
    if (referencing_table == referenced_table && fcols == kcols) continue;
    bool types_match = true;
    for (size_t i = 0; i < kcols.size(); ++i) {
      if (ColumnType(ft, fcols[i]) != ColumnType(kt, kcols[i])) {
        types_match = false;
      }
    }
    if (!types_match) continue;

    int64_t covered = 0, distinct = 0;
    if (!CountCovered(ft, fcols, key_tuples, options.min_coverage >= 1.0,
                      &covered, &distinct)) {
      continue;
    }
    if (distinct == 0 || distinct < options.min_distinct_values) continue;
    const double coverage =
        static_cast<double>(covered) / static_cast<double>(distinct);
    if (coverage + 1e-12 < options.min_coverage) continue;
    const double referenced_coverage =
        key_tuples.empty() ? 0.0
                           : static_cast<double>(covered) /
                                 static_cast<double>(key_tuples.size());
    if (referenced_coverage + 1e-12 < options.min_referenced_coverage) {
      continue;
    }

    ForeignKeyCandidate cand;
    cand.referencing_table = referencing_table;
    cand.referenced_table = referenced_table;
    cand.foreign_key_columns = fcols;
    cand.referenced_key = key;
    cand.coverage = coverage;
    cand.referenced_coverage = referenced_coverage;
    cand.distinct_fk_tuples = distinct;
    out.push_back(std::move(cand));
  }
  return out;
}

std::vector<ForeignKeyCandidate> OracleDiscoverForeignKeys(
    const std::vector<ProfiledTable>& tables,
    const ForeignKeyOptions& options) {
  std::vector<ForeignKeyCandidate> found;
  for (size_t ki = 0; ki < tables.size(); ++ki) {
    for (const AttributeSet& key : tables[ki].keys) {
      for (size_t fi = 0; fi < tables.size(); ++fi) {
        std::vector<ForeignKeyCandidate> unit =
            OracleVerifyForeignKeysAgainstKey(tables, static_cast<int>(fi),
                                              static_cast<int>(ki), key,
                                              options);
        found.insert(found.end(), unit.begin(), unit.end());
      }
    }
  }
  SortForeignKeyCandidates(&found);
  return found;
}

}  // namespace gordian
