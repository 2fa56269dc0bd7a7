// FrozenTree::Build: the cold path's construction of the frozen layout,
// straight from the table's sorted rows. It is kept out of frozen_tree.cc so
// that adding or tuning it moves none of the traversal's code.

#include <algorithm>
#include <cassert>
#include <numeric>

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

}  // namespace

int64_t FrozenTree::BuildScratchBytes(int64_t num_rows) {
  return num_rows * static_cast<int64_t>(sizeof(int64_t) + sizeof(uint8_t));
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
  return out;
}

}  // namespace gordian
