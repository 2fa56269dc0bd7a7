#include "core/foreign_key.h"

#include <algorithm>
#include <cstdint>

#include "common/hashing.h"

namespace gordian {

namespace {

// No value id: a dictionary code that occurs in no row, or the NULL code.
constexpr uint32_t kNoId = UINT32_MAX;
// A key pair's NULL component. Never a value id: ids count distinct
// values, which are uint32-coded like the dictionaries.
constexpr uint32_t kNullId = UINT32_MAX - 1;

std::vector<int> ToCols(const AttributeSet& attrs) {
  std::vector<int> cols;
  attrs.ForEach([&](int a) { cols.push_back(a); });
  return cols;
}

uint64_t PackPair(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

// An open-addressing set of packed pairs, sized by Reset to stay at most
// half full. No pair of codes or ids packs to UINT64_MAX, so it marks an
// empty slot.
class PairSet {
 public:
  // Empties the set and sizes it for up to `max_keys` insertions.
  void Reset(int64_t max_keys) {
    size_t capacity = 16;
    while (capacity < static_cast<size_t>(2 * max_keys)) capacity <<= 1;
    slots_.assign(capacity, kEmpty);
    size_ = 0;
  }

  // Adds `key`; false when it was already present.
  bool Insert(uint64_t key) {
    uint64_t& slot = slots_[Find(key)];
    if (slot == key) return false;
    slot = key;
    ++size_;
    return true;
  }

  bool Contains(uint64_t key) const { return slots_[Find(key)] == key; }
  int64_t size() const { return size_; }

 private:
  static constexpr uint64_t kEmpty = UINT64_MAX;

  size_t Find(uint64_t key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(Mix64(key)) & mask;
    while (slots_[i] != kEmpty && slots_[i] != key) i = (i + 1) & mask;
    return i;
  }

  std::vector<uint64_t> slots_;
  int64_t size_ = 0;
};

// What verification needs of one column, derived without decoding rows.
struct ColumnIds {
  ValueType type = ValueType::kNull;  // first non-NULL dictionary entry's
  uint32_t null_code = UINT32_MAX;
  bool null_present = false;    // the NULL code occurs in rows
  int64_t present_total = 0;    // distinct codes occurring in rows
  std::vector<uint32_t> id_of;  // per dictionary code, kNoId if absent/NULL
  std::vector<uint32_t> ids;    // ids of the occurring non-NULL codes
};

// The schema-wide value index, [table][column]: every present non-NULL
// dictionary code gets the id of its value. Ids come from one
// open-addressing table of pointers into the dictionaries (const for the
// call), probed with Value::Hash() and resolved with Value ==, so two
// codes share an id exactly when Dictionary::Lookup would translate one
// into the other. *num_ids receives the number of distinct values.
std::vector<std::vector<ColumnIds>> BuildValueIndex(
    const std::vector<ProfiledTable>& tables, uint32_t* num_ids) {
  size_t entries = 0;  // bounds the ids, so the table stays half full
  for (const ProfiledTable& t : tables) {
    for (int c = 0; c < t.table->num_columns(); ++c) {
      entries += t.table->dictionary(c).size();
    }
  }
  size_t capacity = 16;
  while (capacity < 2 * entries) capacity <<= 1;
  std::vector<const Value*> values;  // by id
  std::vector<uint32_t> slots(capacity, kNoId);
  auto intern = [&](const Value& v) {
    size_t i = static_cast<size_t>(v.Hash()) & (capacity - 1);
    while (slots[i] != kNoId && !(*values[slots[i]] == v)) {
      i = (i + 1) & (capacity - 1);
    }
    if (slots[i] == kNoId) {
      slots[i] = static_cast<uint32_t>(values.size());
      values.push_back(&v);
    }
    return slots[i];
  };

  std::vector<std::vector<ColumnIds>> index(tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    const Table& table = *tables[t].table;
    index[t].resize(table.num_columns());
    for (int c = 0; c < table.num_columns(); ++c) {
      ColumnIds& col = index[t][c];
      const Dictionary& d = table.dictionary(c);
      for (uint32_t code = 0; code < d.size(); ++code) {
        if (!d.Decode(code).is_null()) {
          col.type = d.Decode(code).type();
          break;
        }
      }
      col.null_code = d.Lookup(Value::Null());
      // One chunk-streamed presence pass: spilled columns are read through
      // their mmap a chunk at a time, never materialized.
      col.id_of.assign(d.size(), kNoId);
      const CodeColumn& codes = table.column_codes(c);
      for (int64_t ch = 0; ch < codes.num_chunks(); ++ch) {
        const CodeColumn::Span span = codes.Scan(ch);
        for (int64_t i = 0; i < span.count; ++i) col.id_of[span.data[i]] = 0;
      }
      for (uint32_t code = 0; code < d.size(); ++code) {
        if (col.id_of[code] == kNoId) continue;
        ++col.present_total;
        if (code == col.null_code) {
          col.null_present = true;
          col.id_of[code] = kNoId;
          continue;
        }
        col.id_of[code] = intern(d.Decode(code));
        col.ids.push_back(col.id_of[code]);
      }
    }
  }
  *num_ids = static_cast<uint32_t>(values.size());
  return index;
}

// Applies the shared tail filters and appends the candidate when it passes.
void EmitIfQualified(int fi, int ki, const std::vector<int>& fcols,
                     const AttributeSet& key, int64_t covered,
                     int64_t denominator, int64_t key_tuples,
                     const ForeignKeyOptions& options,
                     std::vector<ForeignKeyCandidate>* out) {
  if (denominator == 0) return;  // every referencing tuple carried a NULL
  if (denominator < options.min_distinct_values) return;
  double coverage =
      static_cast<double>(covered) / static_cast<double>(denominator);
  if (coverage + 1e-12 < options.min_coverage) return;
  double referenced_coverage =
      key_tuples == 0 ? 0.0
                      : static_cast<double>(covered) /
                            static_cast<double>(key_tuples);
  if (referenced_coverage + 1e-12 < options.min_referenced_coverage) return;

  ForeignKeyCandidate cand;
  cand.referencing_table = fi;
  cand.referenced_table = ki;
  cand.foreign_key_columns = fcols;
  cand.referenced_key = key;
  cand.coverage = coverage;
  cand.referenced_coverage = referenced_coverage;
  cand.distinct_fk_tuples = denominator;
  out->push_back(std::move(cand));
}

// All candidate column tuples of a `width`-column table with the key's
// arity: ordered tuples of distinct columns, first column outermost.
std::vector<std::vector<int>> EnumerateCandidates(int width, size_t arity) {
  std::vector<std::vector<int>> candidates;
  for (int c1 = 0; c1 < width; ++c1) {
    if (arity == 1) candidates.push_back({c1});
    for (int c2 = 0; arity == 2 && c2 < width; ++c2) {
      if (c1 != c2) candidates.push_back({c1, c2});
    }
  }
  return candidates;
}

// Calls fn(a, b) with the codes of columns c1 and c2 of each row in order,
// streaming c1 chunk by chunk, until fn returns false.
template <typename Fn>
void ForEachCodePair(const Table& t, int c1, int c2, Fn fn) {
  const CodeColumn& first = t.column_codes(c1);
  const uint32_t* second = t.column_codes(c2).data();
  for (int64_t ch = 0; ch < first.num_chunks(); ++ch) {
    const CodeColumn::Span span = first.Scan(ch);
    for (int64_t i = 0; i < span.count; ++i) {
      if (!fn(span.data[i], second[span.begin + i])) return;
    }
  }
}

// One DiscoverForeignKeys call: the index, the scratch verification reuses,
// and the candidates found.
class Search {
 public:
  Search(const std::vector<ProfiledTable>& tables,
         const ForeignKeyOptions& options)
      : tables_(tables),
        options_(options),
        strict_(options.min_coverage >= 1.0),
        index_(BuildValueIndex(tables, &num_ids_)),
        mark_(num_ids_, 0) {}

  std::vector<ForeignKeyCandidate> Run() {
    for (size_t ki = 0; ki < tables_.size(); ++ki) {
      covered_.assign(tables_.size(), {});
      for (const AttributeSet& key : tables_[ki].keys) {
        VerifyKey(static_cast<int>(ki), key);
      }
    }
    SortForeignKeyCandidates(&found_);
    return std::move(found_);
  }

 private:
  void VerifyKey(int ki, const AttributeSet& key) {
    const std::vector<int> kcols = ToCols(key);
    if (kcols.empty() || static_cast<int>(kcols.size()) > options_.max_arity ||
        kcols.size() > 2) {
      return;
    }
    if (kcols.size() == 2) BuildKeyPairs(ki, kcols);
    for (int fi = 0; fi < static_cast<int>(tables_.size()); ++fi) {
      for (const std::vector<int>& fcols : EnumerateCandidates(
               tables_[fi].table->num_columns(), kcols.size())) {
        // The key referencing itself.
        if (fi == ki && fcols == kcols) continue;
        bool types_match = true;
        for (size_t i = 0; i < kcols.size(); ++i) {
          if (index_[fi][fcols[i]].type != index_[ki][kcols[i]].type) {
            types_match = false;
          }
        }
        if (!types_match) continue;
        if (kcols.size() == 2) {
          VerifyPair(fi, fcols, ki, kcols, key);
          continue;
        }
        // Arity 1 is decided from the index alone: coverage counts the
        // referencing column's present non-NULL values the key column holds.
        const int64_t covered = Covered(fi, fcols[0], ki, kcols[0]);
        const int64_t distinct = index_[fi][fcols[0]].ids.size();
        if (strict_ && covered != distinct) continue;
        EmitIfQualified(fi, ki, fcols, key, covered, distinct,
                        index_[ki][kcols[0]].present_total, options_, &found_);
      }
    }
  }

  void VerifyPair(int fi, const std::vector<int>& fcols, int ki,
                  const std::vector<int>& kcols, const AttributeSet& key) {
    const ColumnIds& f1 = index_[fi][fcols[0]];
    const ColumnIds& f2 = index_[fi][fcols[1]];
    // Column-level prune first: under strict inclusion every component of
    // a NULL-free tuple must occur in its key column, so a failing value in
    // one column kills the pair — provided the *other* column holds no
    // NULL in the rows (otherwise the failing value might only ever
    // co-occur with NULLs, which the denominator excludes, and the prune
    // would be unsound).
    auto included = [&](int side) {
      return Covered(fi, fcols[side], ki, kcols[side]) ==
             static_cast<int64_t>(index_[fi][fcols[side]].ids.size());
    };
    if (strict_ && ((!f2.null_present && !included(0)) ||
                    (!f1.null_present && !included(1)))) {
      return;
    }
    // Survivors: dedupe the referencing code pairs and probe the key's id
    // pairs with them.
    const Table& ft = *tables_[fi].table;
    seen_.Reset(ft.num_rows());
    int64_t covered = 0;
    bool viable = true;
    ForEachCodePair(ft, fcols[0], fcols[1], [&](uint32_t a, uint32_t b) {
      if (a == f1.null_code || b == f2.null_code) return true;  // SQL NULLs
      if (!seen_.Insert(PackPair(a, b))) return true;
      if (key_pairs_.Contains(PackPair(f1.id_of[a], f2.id_of[b]))) {
        ++covered;
      } else {
        viable = !strict_;
      }
      return viable;
    });
    if (!viable) return;
    EmitIfQualified(fi, ki, fcols, key, covered, seen_.size(),
                    key_pairs_.size(), options_, &found_);
  }

  // The key's distinct (id, id) pairs, built once per key. A NULL
  // component maps to kNullId, so there are as many pairs as the key has
  // distinct code pairs, NULL-bearing ones included.
  void BuildKeyPairs(int ki, const std::vector<int>& kcols) {
    const ColumnIds& k1 = index_[ki][kcols[0]];
    const ColumnIds& k2 = index_[ki][kcols[1]];
    key_pairs_.Reset(tables_[ki].table->num_rows());
    ForEachCodePair(*tables_[ki].table, kcols[0], kcols[1],
                    [&](uint32_t a, uint32_t b) {
                      key_pairs_.Insert(PackPair(
                          a == k1.null_code ? kNullId : k1.id_of[a],
                          b == k2.null_code ? kNullId : k2.id_of[b]));
                      return true;
                    });
  }

  // |ids(fc) ∩ ids(kc)|, memoized per (referencing table, fc, kc) for the
  // current referenced table. A miss marks kc's ids in the scratch array
  // once and counts every column of the referencing table with kc's type.
  int64_t Covered(int fi, int fc, int ki, int kc) {
    const size_t key_width = index_[ki].size();
    std::vector<int64_t>& memo = covered_[fi];
    if (memo.empty()) memo.assign(index_[fi].size() * key_width, -1);
    if (memo[fc * key_width + kc] < 0) {
      const ColumnIds& k = index_[ki][kc];
      ++epoch_;
      for (uint32_t id : k.ids) mark_[id] = epoch_;
      for (size_t c = 0; c < index_[fi].size(); ++c) {
        if (index_[fi][c].type != k.type) continue;
        int64_t n = 0;
        for (uint32_t id : index_[fi][c].ids) n += mark_[id] == epoch_;
        memo[c * key_width + kc] = n;
      }
    }
    return memo[fc * key_width + kc];
  }

  const std::vector<ProfiledTable>& tables_;
  const ForeignKeyOptions& options_;
  const bool strict_;
  uint32_t num_ids_ = 0;
  const std::vector<std::vector<ColumnIds>> index_;
  std::vector<uint32_t> mark_;  // by id: epoch_ when the marked column has it
  uint32_t epoch_ = 0;
  // Per referencing table, Covered's memo for the current referenced
  // table: [fc * key_width + kc], -1 until counted.
  std::vector<std::vector<int64_t>> covered_;
  PairSet key_pairs_;
  PairSet seen_;
  std::vector<ForeignKeyCandidate> found_;
};

}  // namespace

bool ForeignKeyCandidateLess(const ForeignKeyCandidate& a,
                             const ForeignKeyCandidate& b) {
  if (a.coverage != b.coverage) return a.coverage > b.coverage;
  if (a.referencing_table != b.referencing_table) {
    return a.referencing_table < b.referencing_table;
  }
  if (a.referenced_table != b.referenced_table) {
    return a.referenced_table < b.referenced_table;
  }
  if (a.foreign_key_columns != b.foreign_key_columns) {
    return a.foreign_key_columns < b.foreign_key_columns;
  }
  return a.referenced_key < b.referenced_key;
}

void SortForeignKeyCandidates(std::vector<ForeignKeyCandidate>* candidates) {
  std::sort(candidates->begin(), candidates->end(), ForeignKeyCandidateLess);
}

std::vector<ForeignKeyCandidate> DiscoverForeignKeys(
    const std::vector<ProfiledTable>& tables,
    const ForeignKeyOptions& options) {
  return Search(tables, options).Run();
}

}  // namespace gordian
