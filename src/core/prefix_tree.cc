#include "core/prefix_tree.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace gordian {

PrefixTree::NodePool::~NodePool() {
  for (Node* block : blocks_) delete[] block;
}

PrefixTree::Node* PrefixTree::NodePool::NewNode(bool is_leaf) {
  Node* n;
  if (!free_list_.empty()) {
    // Recycled node: its cells vector kept its capacity, so the upcoming
    // fill pays no reallocation.
    n = free_list_.back();
    free_list_.pop_back();
  } else {
    if (next_in_block_ == kNodesPerBlock) {
      blocks_.push_back(new Node[kNodesPerBlock]);
      next_in_block_ = 0;
    }
    n = &blocks_.back()[next_in_block_++];
  }
  n->is_leaf = is_leaf;
  n->ref_count = 1;
  n->entity_total = 0;
  assert(n->cells.empty());
  assert(n->accounted_bytes == 0);
  ++live_nodes_;
  ++total_nodes_;
  tracker_.Add(static_cast<int64_t>(sizeof(Node)));
  return n;
}

void PrefixTree::NodePool::Unref(Node* n) {
  assert(n->ref_count > 0);
  if (--n->ref_count > 0) return;
  if (!n->is_leaf) {
    for (const Cell& c : n->cells) Unref(c.child);
  }
  tracker_.Release(static_cast<int64_t>(sizeof(Node)) + n->accounted_bytes);
  n->accounted_bytes = 0;
  n->cells.clear();  // keeps capacity for the next user of this node
  --live_nodes_;
  free_list_.push_back(n);
}

void PrefixTree::NodePool::SyncCellBytes(Node* n) {
  int64_t bytes =
      static_cast<int64_t>(n->cells.capacity()) * static_cast<int64_t>(sizeof(Cell));
  tracker_.Add(bytes - n->accounted_bytes);
  n->accounted_bytes = bytes;
}

PrefixTree::~PrefixTree() {
  if (root_ != nullptr) pool_->Unref(root_);
}

PrefixTree& PrefixTree::operator=(PrefixTree&& other) noexcept {
  if (this == &other) return *this;
  if (root_ != nullptr) pool_->Unref(root_);
  pool_ = std::move(other.pool_);
  root_ = other.root_;
  other.root_ = nullptr;
  attr_order_ = std::move(other.attr_order_);
  num_entities_ = other.num_entities_;
  has_duplicate_entities_ = other.has_duplicate_entities_;
  cell_count_cache_.store(other.cell_count_cache_.load(
                              std::memory_order_relaxed),
                          std::memory_order_relaxed);
  return *this;
}

PrefixTree PrefixTree::Build(const Table& table,
                             const std::vector<int>& attr_order,
                             GordianOptions::TreeBuild mode) {
  assert(!attr_order.empty());
  PrefixTree tree = mode == GordianOptions::TreeBuild::kInsertion
                        ? BuildInsertion(table, attr_order)
                        : BuildSorted(table, attr_order);
  // Fill the cell-count memo while the tree is still private to this
  // thread: a first-call lazy write would race against concurrent readers
  // of a tree shared later.
  tree.cell_count();
  return tree;
}

PrefixTree PrefixTree::BuildSorted(const Table& table,
                                   const std::vector<int>& attr_order) {
  PrefixTree tree;
  tree.attr_order_ = attr_order;
  tree.num_entities_ = table.num_rows();
  const int depth = static_cast<int>(attr_order.size());

  // Per-level code pointers, hoisted once: resident and spilled columns
  // alike are contiguous arrays, so the sort comparator and the path
  // builder below stay a plain indexed load.
  std::vector<const uint32_t*> level_codes;
  level_codes.reserve(attr_order.size());
  for (int c : attr_order) {
    level_codes.push_back(table.column_codes(c).data());
  }

  // Sort row ids lexicographically by the reordered attribute codes; the
  // tree is then built append-only, one root-to-leaf path at a time.
  std::vector<int64_t> rows(table.num_rows());
  std::iota(rows.begin(), rows.end(), int64_t{0});
  std::sort(rows.begin(), rows.end(), [&](int64_t a, int64_t b) {
    for (const uint32_t* codes : level_codes) {
      if (codes[a] != codes[b]) return codes[a] < codes[b];
    }
    return false;
  });

  NodePool& pool = *tree.pool_;
  tree.root_ = pool.NewNode(depth == 1);
  // stack[l] = node currently open at level l.
  std::vector<Node*> stack(depth, nullptr);
  stack[0] = tree.root_;

  int64_t prev_row = -1;
  for (int64_t r : rows) {
    // Longest common prefix with the previous row decides where to branch.
    int branch = 0;
    if (prev_row >= 0) {
      while (branch < depth &&
             level_codes[branch][r] == level_codes[branch][prev_row]) {
        ++branch;
      }
    }
    if (branch == depth) {
      // Entire entity equals the previous one: bump the leaf multiplicity.
      // Per Algorithm 2 this means the dataset has no keys at all.
      tree.has_duplicate_entities_ = true;
      Node* leaf = stack[depth - 1];
      ++leaf->cells.back().count;
      ++leaf->entity_total;
      // Propagate subtree counts up the open path.
      for (int l = 0; l + 1 < depth; ++l) {
        ++stack[l]->cells.back().count;
        ++stack[l]->entity_total;
      }
      prev_row = r;
      continue;
    }
    // Account the cells of the nodes we are abandoning below the branch
    // point (their vectors will not grow again).
    if (prev_row >= 0) {
      for (int l = depth - 1; l > branch; --l) pool.SyncCellBytes(stack[l]);
    }
    // Add one cell per level from the branch point down, creating the child
    // node chain.
    for (int l = branch; l < depth; ++l) {
      Node* node = stack[l];
      Cell cell;
      cell.code = level_codes[l][r];
      cell.count = 1;
      cell.child = nullptr;
      if (l + 1 < depth) {
        cell.child = pool.NewNode(l + 1 == depth - 1);
        stack[l + 1] = cell.child;
      }
      node->cells.push_back(cell);
      ++node->entity_total;
    }
    // Bump the subtree counts of the reused prefix path.
    for (int l = 0; l < branch; ++l) {
      ++stack[l]->cells.back().count;
      ++stack[l]->entity_total;
    }
    prev_row = r;
  }
  for (int l = 0; l < depth; ++l) {
    if (stack[l] != nullptr) pool.SyncCellBytes(stack[l]);
  }
  return tree;
}

PrefixTree PrefixTree::BuildInsertion(const Table& table,
                                      const std::vector<int>& attr_order) {
  // Algorithm 2 verbatim: a single pass over the entities, descending from
  // the root and creating cells as needed. Cells are kept sorted by code so
  // the resulting tree is structurally identical to the sorted build.
  PrefixTree tree;
  tree.attr_order_ = attr_order;
  tree.num_entities_ = table.num_rows();
  const int depth = static_cast<int>(attr_order.size());
  NodePool& pool = *tree.pool_;
  tree.root_ = pool.NewNode(depth == 1);

  std::vector<const uint32_t*> level_codes;
  level_codes.reserve(attr_order.size());
  for (int c : attr_order) {
    level_codes.push_back(table.column_codes(c).data());
  }

  for (int64_t r = 0; r < table.num_rows(); ++r) {
    Node* node = tree.root_;
    for (int l = 0; l < depth; ++l) {
      uint32_t code = level_codes[l][r];
      auto it = std::lower_bound(
          node->cells.begin(), node->cells.end(), code,
          [](const Cell& c, uint32_t v) { return c.code < v; });
      if (it == node->cells.end() || it->code != code) {
        Cell cell;
        cell.code = code;
        cell.count = 0;
        cell.child =
            (l + 1 < depth) ? pool.NewNode(l + 1 == depth - 1) : nullptr;
        it = node->cells.insert(it, cell);
        pool.SyncCellBytes(node);
      }
      ++it->count;
      ++node->entity_total;
      if (l == depth - 1) {
        if (it->count > 1) tree.has_duplicate_entities_ = true;
      } else {
        node = it->child;
      }
    }
  }
  return tree;
}

int64_t PrefixTree::node_count() const { return pool_->live_nodes(); }

int64_t PrefixTree::cell_count() const {
  const int64_t cached = cell_count_cache_.load(std::memory_order_relaxed);
  if (cached >= 0) return cached;
  // Walk the tree; with ref counts all 1 in a freshly built tree this visits
  // each node once. Build fills the memo eagerly, so this fallback only runs
  // single-threaded; concurrent callers would compute and publish the same
  // value through the atomic anyway.
  int64_t cells = 0;
  std::vector<const Node*> pending = {root_};
  while (!pending.empty()) {
    const Node* n = pending.back();
    pending.pop_back();
    if (n == nullptr) continue;
    cells += static_cast<int64_t>(n->cells.size());
    if (!n->is_leaf) {
      for (const Cell& c : n->cells) pending.push_back(c.child);
    }
  }
  cell_count_cache_.store(cells, std::memory_order_relaxed);
  return cells;
}

}  // namespace gordian
