// FrozenTree::Build: the cold path's construction of the frozen layout,
// straight from the table's sorted rows, and of the tree's agree-set seeds.
// It is kept out of frozen_tree.cc so that adding or tuning it moves none of
// the traversal's code.

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>
#include <vector>

#include "core/frozen_tree.h"

namespace gordian {

namespace {

// Heap bytes of one level: frozen_tree.cc's LevelBytes, which Freeze and
// Absorb apply, so a built tree's ApproxBytes equals theirs. It is repeated
// rather than shared so that frozen_tree.cc's code stays where it is.
int64_t BuiltLevelBytes(const FrozenTree::Level& lv) {
  return static_cast<int64_t>(lv.cell_begin.capacity() * sizeof(uint32_t) +
                              lv.code.capacity() * sizeof(uint32_t) +
                              lv.count.capacity() * sizeof(int64_t) +
                              lv.entity_total.capacity() * sizeof(int64_t) +
                              lv.ref.capacity() * sizeof(int32_t) +
                              sizeof(FrozenTree::Level));
}

// The distinct agree sets of one build, deduplicated as they are made:
// open addressing over AttributeSet::Hash, doubled at half load.
class AgreeSets {
 public:
  void Add(const AttributeSet& s) {
    if (2 * (sets_.size() + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = s.Hash() & mask;; i = (i + 1) & mask) {
      const uint32_t k = slots_[i];
      if (k == 0) {
        sets_.push_back(s);
        slots_[i] = static_cast<uint32_t>(sets_.size());
        return;
      }
      if (sets_[k - 1] == s) return;
    }
  }

  // The maximal sets, by Algorithm 5. Larger sets go in first, so a set is
  // either rejected as covered or kept, and none is ever evicted.
  std::vector<AttributeSet> Antichain() {
    std::sort(sets_.begin(), sets_.end(),
              [](const AttributeSet& a, const AttributeSet& b) {
                const int ca = a.Count(), cb = b.Count();
                if (ca != cb) return ca > cb;
                return a < b;
              });
    NonKeySet maximal;
    for (const AttributeSet& s : sets_) maximal.Insert(s);
    return maximal.non_keys();
  }

 private:
  void Grow() {
    std::vector<uint32_t> slots(std::max<size_t>(64, 2 * slots_.size()), 0);
    const size_t mask = slots.size() - 1;
    for (size_t k = 0; k < sets_.size(); ++k) {
      size_t i = sets_[k].Hash() & mask;
      while (slots[i] != 0) i = (i + 1) & mask;
      slots[i] = static_cast<uint32_t>(k + 1);
    }
    slots_ = std::move(slots);
  }

  std::vector<AttributeSet> sets_;
  std::vector<uint32_t> slots_;  // index into sets_ plus one; 0 is empty
};

// Order B: `rows` (order A on entry) stably sorted by the codes of the
// shortest suffix of levels whose column cardinalities multiply to at least
// the row count, the last level most significant. Returns the sorted ids,
// which sit in `rows` or in `other`. Dense codes take one counting sort per
// level, least significant first. A level whose largest code reaches the
// row count (a sample keeps its full dictionary) would need more buckets
// than rows, so such an order is left to std::stable_sort.
const std::vector<int64_t>& SortBySuffix(
    const Table& table, const std::vector<int>& attr_order,
    const std::vector<const uint32_t*>& level_codes,
    const std::vector<FrozenTree::Level>& levels, std::vector<int64_t>* rows,
    std::vector<int64_t>* other) {
  const int depth = static_cast<int>(attr_order.size());
  const int64_t n = static_cast<int64_t>(rows->size());
  int first = depth;
  double product = 1;
  bool dense = true;
  while (first > 0 && product < static_cast<double>(n)) {
    --first;
    product *= static_cast<double>(
        table.ColumnCardinality(attr_order[static_cast<size_t>(first)]));
    dense = dense && levels[static_cast<size_t>(first)].max_code < n;
  }
  if (!dense) {
    std::stable_sort(rows->begin(), rows->end(), [&](int64_t a, int64_t b) {
      for (int l = depth - 1; l >= first; --l) {
        const uint32_t* codes = level_codes[static_cast<size_t>(l)];
        if (codes[a] != codes[b]) return codes[a] < codes[b];
      }
      return false;
    });
    return *rows;
  }
  other->resize(static_cast<size_t>(n));
  std::vector<int64_t> start;
  std::vector<int64_t>* src = rows;
  std::vector<int64_t>* dst = other;
  for (int l = first; l < depth; ++l) {
    const uint32_t* codes = level_codes[static_cast<size_t>(l)];
    start.assign(levels[static_cast<size_t>(l)].max_code + size_t{2}, 0);
    for (int64_t r = 0; r < n; ++r) ++start[codes[r] + size_t{1}];
    std::partial_sum(start.begin(), start.end(), start.begin());
    int64_t* out = dst->data();
    for (int64_t r : *src) out[start[codes[r]]++] = r;
    std::swap(src, dst);
  }
  return *src;
}

}  // namespace

int64_t FrozenTree::BuildScratchBytes(int64_t num_rows) {
  const int64_t order_a = num_rows * static_cast<int64_t>(sizeof(AttributeSet));
  const int64_t order_b =
      (2 * num_rows + 1) * static_cast<int64_t>(sizeof(int64_t));
  return num_rows * static_cast<int64_t>(sizeof(int64_t) + sizeof(uint8_t)) +
         std::max(order_a, order_b);
}

std::unique_ptr<FrozenTree> FrozenTree::Build(
    const Table& table, const std::vector<int>& attr_order) {
  assert(!attr_order.empty());
  assert(attr_order.size() <=
         static_cast<size_t>(AttributeSet::kMaxAttributes));
  std::unique_ptr<FrozenTree> out(new FrozenTree());
  out->attr_order_ = attr_order;
  const int64_t n = table.num_rows();
  out->num_entities_ = n;
  const int depth = static_cast<int>(attr_order.size());
  out->levels_.resize(static_cast<size_t>(depth));

  std::vector<const uint32_t*> level_codes;
  level_codes.reserve(attr_order.size());
  for (int c : attr_order) level_codes.push_back(table.column_codes(c).data());

  // Lexicographic order by level codes, as PrefixTree's sorted build and
  // Absorb sort: every node and every cell becomes a contiguous run of rows,
  // and runs appear in the order the levels store them.
  std::vector<int64_t> rows(static_cast<size_t>(n));
  std::iota(rows.begin(), rows.end(), int64_t{0});
  std::sort(rows.begin(), rows.end(), [&](int64_t a, int64_t b) {
    for (const uint32_t* codes : level_codes) {
      if (codes[a] != codes[b]) return codes[a] < codes[b];
    }
    return false;
  });

  // lcp[i]: the number of leading levels on which sorted row i agrees with
  // row i - 1. Row i opens a new node at level l when lcp[i] < l and a new
  // cell there when lcp[i] <= l; row 0 opens the first of both at every
  // level. lcp[i] == depth is a repeated entity (Algorithm 2, lines 17-18).
  // `hist` counts rows 1.. by lcp, which sizes every level up front.
  std::vector<uint8_t> lcp(static_cast<size_t>(n), 0);
  std::vector<int64_t> hist(static_cast<size_t>(depth) + 1, 0);
  for (int64_t i = 1; i < n; ++i) {
    const int64_t a = rows[static_cast<size_t>(i) - 1];
    const int64_t b = rows[static_cast<size_t>(i)];
    int p = 0;
    while (p < depth && level_codes[static_cast<size_t>(p)][a] ==
                            level_codes[static_cast<size_t>(p)][b]) {
      ++p;
    }
    lcp[static_cast<size_t>(i)] = static_cast<uint8_t>(p);
    ++hist[static_cast<size_t>(p)];
  }
  out->has_duplicate_entities_ = hist[static_cast<size_t>(depth)] > 0;
  // A repeated row settles the run before the traversal: no seeds then.
  const bool seeded = n > 1 && !out->has_duplicate_entities_;
  // again[i]: the attributes of the levels past lcp[i] on which sorted rows
  // i - 1 and i agree again. The level passes fill it: at such a level row
  // i opens a node, and its code equals that of the cell it closes, so no
  // code is read twice.
  std::vector<AttributeSet> again(seeded ? static_cast<size_t>(n) : 0);

  // Rows 1.. whose lcp is below the current level: each opens one node.
  int64_t opens_node = 0;
  for (int l = 0; l < depth; ++l) {
    Level& lv = out->levels_[static_cast<size_t>(l)];
    const int64_t opens_cell = opens_node + hist[static_cast<size_t>(l)];
    // An empty table still has its root: one node without cells.
    const size_t num_nodes =
        n > 0 ? static_cast<size_t>(1 + opens_node) : (l == 0 ? 1 : 0);
    const size_t num_cells = n > 0 ? static_cast<size_t>(1 + opens_cell) : 0;
    assert(num_cells < UINT32_MAX && "level too wide for uint32 cell offsets");
    lv.cell_begin.resize(num_nodes + 1);
    lv.code.resize(num_cells);
    lv.count.resize(num_cells);
    lv.entity_total.resize(num_nodes);
    lv.ref.assign(num_nodes, 1);

    if (n > 0) {
      // One pass over the sorted rows: a cell's count and a node's entity
      // total are the lengths of their row runs.
      const uint32_t* codes = level_codes[static_cast<size_t>(l)];
      // Indexed by whether a node-opening row repeats the closed cell's
      // code, so the update does not branch on it.
      const int attr = attr_order[static_cast<size_t>(l)];
      const AttributeSet agree_at[2] = {{}, AttributeSet::Single(attr)};
      uint32_t* code = lv.code.data();
      int64_t* count = lv.count.data();
      uint32_t* cell_begin = lv.cell_begin.data();
      int64_t* entity_total = lv.entity_total.data();
      size_t node = 0, cell = 0;
      int64_t node_start = 0, cell_start = 0;
      code[0] = codes[rows[0]];
      uint32_t max_code = code[0];
      for (int64_t i = 1; i < n; ++i) {
        const int p = lcp[static_cast<size_t>(i)];
        if (p > l) continue;
        count[cell++] = i - cell_start;
        cell_start = i;
        const uint32_t c = codes[rows[static_cast<size_t>(i)]];
        code[cell] = c;
        max_code = std::max(max_code, c);
        if (p < l) {
          entity_total[node++] = i - node_start;
          node_start = i;
          cell_begin[node] = static_cast<uint32_t>(cell);
          if (seeded) {
            again[static_cast<size_t>(i)] |= agree_at[c == code[cell - 1]];
          }
        }
      }
      count[cell] = n - cell_start;
      entity_total[node] = n - node_start;
      assert(cell + 1 == num_cells && node + 1 == num_nodes);
      cell_begin[num_nodes] = static_cast<uint32_t>(num_cells);
      lv.max_code = max_code;
    }
    out->node_count_ += static_cast<int64_t>(num_nodes);
    out->cell_count_ += static_cast<int64_t>(num_cells);
    out->approx_bytes_ += BuiltLevelBytes(lv);
    opens_node = opens_cell;
  }

  if (seeded) {
    // Order A's agree sets: the leading levels the pair shares, plus those
    // where it agrees again.
    std::vector<AttributeSet> prefix(static_cast<size_t>(depth) + 1);
    for (int l = 0; l < depth; ++l) {
      prefix[static_cast<size_t>(l) + 1] = prefix[static_cast<size_t>(l)];
      prefix[static_cast<size_t>(l) + 1].Set(
          attr_order[static_cast<size_t>(l)]);
    }
    AgreeSets agree;
    for (int64_t i = 1; i < n; ++i) {
      agree.Add(prefix[lcp[static_cast<size_t>(i)]] |
                again[static_cast<size_t>(i)]);
    }
    std::vector<AttributeSet>().swap(again);  // freed before order B's
    std::vector<int64_t> other;
    const std::vector<int64_t>& by_suffix = SortBySuffix(
        table, attr_order, level_codes, out->levels_, &rows, &other);
    // Order B's agree sets, over every level.
    for (size_t i = 1; i < by_suffix.size(); ++i) {
      const int64_t a = by_suffix[i - 1];
      const int64_t b = by_suffix[i];
      AttributeSet s;
      for (int l = 0; l < depth; ++l) {
        const uint32_t* codes = level_codes[static_cast<size_t>(l)];
        if (codes[a] == codes[b]) s.Set(attr_order[static_cast<size_t>(l)]);
      }
      agree.Add(s);
    }
    out->agree_seeds_ = agree.Antichain();
  }
  return out;
}

}  // namespace gordian
