#ifndef GORDIAN_CORE_PREFIX_TREE_H_
#define GORDIAN_CORE_PREFIX_TREE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/memory_tracker.h"
#include "core/options.h"
#include "table/table.h"

namespace gordian {

// The compressed dataset representation of Section 3.2: one tree level per
// attribute, one cell per distinct value within a node, shared prefixes
// stored once. Leaf cells carry the multiplicity of the full entity; every
// cell carries the total entity count of its subtree (used by the
// single-entity prune).
//
// Nodes are reference counted (Section 3.3: "a reference-counting scheme was
// used") because merge results share untouched subtrees with the trees they
// were merged from. A node with ref_count > 1 is a "shared prefix tree" in
// the sense of the singleton-pruning rule.
class PrefixTree {
 public:
  struct Node;

  struct Cell {
    uint32_t code;   // dictionary code of the value at this level
    int64_t count;   // entities below this cell (leaf: multiplicity)
    Node* child;     // nullptr at the leaf level
  };

  struct Node {
    std::vector<Cell> cells;  // sorted by code, strictly increasing
    int64_t accounted_bytes = 0;  // maintained by NodePool::SyncCellBytes
    // Sum of cells[*].count, maintained incrementally by the builders and
    // by the traversal's merges so the single-entity prune — which fires on
    // every non-leaf Visit — never re-sums the cell vector.
    int64_t entity_total = 0;
    int32_t ref_count = 1;
    bool is_leaf = false;

    int64_t EntityCount() const {
#ifdef GORDIAN_TREE_CONSISTENCY_CHECKS
      int64_t recomputed = 0;
      for (const Cell& c : cells) recomputed += c.count;
      assert(recomputed == entity_total &&
             "cached entity_total out of sync with cell counts");
#endif
      return entity_total;
    }
  };

  // Allocates, frees, and byte-accounts nodes. The pointer-tree oracle in
  // tests/oracle/ merges through the same pool as the base tree, so
  // peak_bytes is the maximum footprint of its whole tree phase. (The
  // library's traversal, FrozenNonKeyFinder, keeps its merge outputs in its
  // own arena and uses no pool.)
  //
  // Storage is a block arena plus a free list: nodes are carved out of
  // fixed-size blocks and recycled (retaining their cell-vector capacity)
  // when their reference count drops to zero, so a merge phase that creates
  // and discards millions of short-lived nodes reaches a steady state with
  // no heap allocation. Byte accounting covers in-use nodes only — a
  // recycled node's retained capacity is allocator slack, exactly like
  // memory returned to malloc was before the arena, so current/peak
  // semantics are unchanged.
  //
  // Not thread-safe.
  class NodePool {
   public:
    NodePool() = default;
    ~NodePool();

    NodePool(const NodePool&) = delete;
    NodePool& operator=(const NodePool&) = delete;

    Node* NewNode(bool is_leaf);

    void AddRef(Node* n) { ++n->ref_count; }

    // Drops one reference; recycles the node (and recursively unrefs its
    // children) when the count reaches zero.
    void Unref(Node* n);

    // Call after appending cells to `n` so capacity growth is accounted.
    void SyncCellBytes(Node* n);

    int64_t live_nodes() const { return live_nodes_; }
    int64_t total_nodes_created() const { return total_nodes_; }
    int64_t current_bytes() const { return tracker_.current_bytes(); }
    int64_t peak_bytes() const { return tracker_.peak_bytes(); }

   private:
    static constexpr int kNodesPerBlock = 256;

    MemoryTracker tracker_;
    std::vector<Node*> blocks_;     // owned arrays of kNodesPerBlock nodes
    std::vector<Node*> free_list_;  // recycled nodes, cells capacity kept
    int next_in_block_ = kNodesPerBlock;  // forces a block on first NewNode
    int64_t live_nodes_ = 0;
    int64_t total_nodes_ = 0;
  };

  PrefixTree() = default;
  ~PrefixTree();

  PrefixTree(const PrefixTree&) = delete;
  PrefixTree& operator=(const PrefixTree&) = delete;
  PrefixTree(PrefixTree&& other) noexcept { *this = std::move(other); }
  PrefixTree& operator=(PrefixTree&& other) noexcept;

  // Builds the prefix tree for `table` with tree level i holding the column
  // `attr_order[i]`. `attr_order` must be a permutation of the column
  // positions. Detects duplicate entities (Algorithm 2, lines 17-18): when
  // present, has_duplicate_entities() is true and the dataset has no keys.
  static PrefixTree Build(const Table& table, const std::vector<int>& attr_order,
                          GordianOptions::TreeBuild mode);

  Node* root() const { return root_; }
  NodePool& pool() { return *pool_; }
  int num_levels() const { return static_cast<int>(attr_order_.size()); }
  // Original column position of tree level `level`.
  int attribute_at_level(int level) const { return attr_order_[level]; }
  const std::vector<int>& attr_order() const { return attr_order_; }

  bool has_duplicate_entities() const { return has_duplicate_entities_; }

  int64_t num_entities() const { return num_entities_; }
  int64_t node_count() const;
  // Computed eagerly at Build time (the tree's structure is fixed from then
  // on — traversal only touches reference counts and restores them), so
  // concurrent readers of a cached tree never race on the memo. The memo is
  // atomic besides, making even the lazy fallback walk (trees that bypassed
  // Build) a benign same-value publication rather than a data race.
  int64_t cell_count() const;

 private:
  static PrefixTree BuildSorted(const Table& table,
                                const std::vector<int>& attr_order);
  static PrefixTree BuildInsertion(const Table& table,
                                   const std::vector<int>& attr_order);

  std::unique_ptr<NodePool> pool_ = std::make_unique<NodePool>();
  Node* root_ = nullptr;
  std::vector<int> attr_order_;
  int64_t num_entities_ = 0;
  bool has_duplicate_entities_ = false;
  mutable std::atomic<int64_t> cell_count_cache_{-1};
};

}  // namespace gordian

#endif  // GORDIAN_CORE_PREFIX_TREE_H_
