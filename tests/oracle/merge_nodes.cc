#include "oracle/merge_nodes.h"

#include <algorithm>
#include <cassert>

namespace gordian {

PrefixTree::Node* MergeNodes(PrefixTree::NodePool& pool,
                             const std::vector<PrefixTree::Node*>& to_merge,
                             GordianStats* stats) {
  MergeScratch scratch;
  return MergeNodes(pool, to_merge, stats, &scratch, 0);
}

PrefixTree::Node* MergeNodes(PrefixTree::NodePool& pool,
                             const std::vector<PrefixTree::Node*>& to_merge,
                             GordianStats* stats, MergeScratch* scratch,
                             size_t depth) {
  assert(!to_merge.empty());
  if (stats != nullptr) ++stats->merges_performed;
  if (to_merge.size() == 1) {
    // Algorithm 3, lines 1-2: nothing to merge; share the node.
    pool.AddRef(to_merge[0]);
    return to_merge[0];
  }
  const bool leaf = to_merge[0]->is_leaf;
  PrefixTree::Node* merged = pool.NewNode(leaf);
  if (stats != nullptr) ++stats->merge_nodes_created;

  // Gather every input cell and sort by code: O(N log N) in the total cell
  // count, independent of the fan-in (a naive k-way scan would cost O(k)
  // per output cell, which is quadratic when a node with thousands of cells
  // is merged). The gather and partial buffers live in the per-depth
  // scratch, so a traversal performing millions of merges reuses them
  // instead of reallocating per call.
  MergeScratch::Level& lv = scratch->AtDepth(depth);
  lv.gathered.clear();
  size_t total = 0;
  for (const PrefixTree::Node* n : to_merge) total += n->cells.size();
  lv.gathered.reserve(total);
  for (const PrefixTree::Node* n : to_merge) {
    for (const PrefixTree::Cell& c : n->cells) lv.gathered.push_back(&c);
  }
  std::sort(lv.gathered.begin(), lv.gathered.end(),
            [](const PrefixTree::Cell* a, const PrefixTree::Cell* b) {
              return a->code < b->code;
            });

  // Exact output size, so the merged cell vector is allocated once instead
  // of growing geometrically.
  size_t distinct = 0;
  for (size_t i = 0; i < lv.gathered.size(); ++i) {
    if (i == 0 || lv.gathered[i]->code != lv.gathered[i - 1]->code) ++distinct;
  }
  merged->cells.reserve(distinct);

  size_t i = 0;
  while (i < lv.gathered.size()) {
    const uint32_t code = lv.gathered[i]->code;
    PrefixTree::Cell cell;
    cell.code = code;
    cell.count = 0;
    cell.child = nullptr;
    lv.partial.clear();
    for (; i < lv.gathered.size() && lv.gathered[i]->code == code; ++i) {
      cell.count += lv.gathered[i]->count;
      if (!leaf) lv.partial.push_back(lv.gathered[i]->child);
    }
    if (!leaf) {
      cell.child = MergeNodes(pool, lv.partial, stats, scratch, depth + 1);
    }
    merged->cells.push_back(cell);
    merged->entity_total += cell.count;
  }
  pool.SyncCellBytes(merged);
  return merged;
}

}  // namespace gordian
