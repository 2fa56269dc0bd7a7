#ifndef GORDIAN_CORE_FROZEN_TREE_H_
#define GORDIAN_CORE_FROZEN_TREE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/attribute_set.h"
#include "common/stopwatch.h"
#include "core/non_key_set.h"
#include "core/options.h"
#include "core/prefix_tree.h"

namespace gordian {

// Branch-light scan kernels over the frozen tree's contiguous arrays.
// Each kernel has a scalar implementation (always compiled, the portable
// reference) and an AVX2 implementation selected once per process by
// runtime CPU detection. Builds with GORDIAN_DISABLE_SIMD never compile the
// vector bodies; GORDIAN_SIMD_CONSISTENCY_CHECKS (Debug builds) re-runs the
// scalar kernel after every dispatched call and asserts agreement.
namespace frozen_simd {

// True iff any of counts[0..n) differs from 1 — the leaf duplicate test of
// Algorithm 4 over a frozen leaf span.
bool AnyCountNotOne(const int64_t* counts, size_t n);
bool AnyCountNotOneScalar(const int64_t* counts, size_t n);

// First index i in the sorted span codes[0..n) with codes[i] >= target
// (n when none). The dispatched version gallops from the front — runs
// consumed by the merge union are usually short — then scans the bracketed
// window with vector compares.
size_t LowerBound(const uint32_t* codes, size_t n, uint32_t target);
size_t LowerBoundScalar(const uint32_t* codes, size_t n, uint32_t target);

// "avx2" or "scalar" — which implementation dispatch resolved to.
const char* ActiveKernel();

}  // namespace frozen_simd

// The prefix tree of Section 3.2 in the layout the traversal reads: per
// level, one contiguous sorted code span per node instead of per-node heap
// vectors — struct-of-arrays, no pointers, one allocation per array. Build
// writes it straight from the table's sorted rows; no pointer tree exists on
// the way. (Freeze flattens a PrefixTree into the same arrays; it and
// PrefixTree::Build are the reference the tests compare Build against.)
//
// Nodes are laid out in BFS order, so the tree needs no child table at all:
// level l+1 holds exactly one node per cell of level l, in cell order, and
// the child of the cell with global index g at level l IS node g at level
// l+1. (The base tree is share-free — every ref starts at 1; sharing only
// ever arises from traversal merges, whose outputs live in the finder's
// arena, never in these arrays.)
//
// Between traversals the tree grows only through Absorb (appended rows).
// During one, the only mutable state is the per-node `ref` array: a merge
// output that shares a frozen node raises its count, and the release of
// that output lowers it again (aborted runs included), so a frozen tree
// served by the TreeArtifactCache comes back bit-identical. A frozen tree
// can therefore serve only one run at a time.
class FrozenTree {
 public:
  struct Level {
    // Cell span of node i is [cell_begin[i], cell_begin[i + 1]).
    std::vector<uint32_t> cell_begin;   // num_nodes + 1 entries
    std::vector<uint32_t> code;         // per cell, ascending within a span
    std::vector<int64_t> count;         // per cell (leaf: multiplicity)
    std::vector<int64_t> entity_total;  // per node: sum of its cell counts
    // Per node, starts at 1 (the base tree's own reference); mutated by the
    // traversal's merge sharing and restored by its unwind.
    std::vector<int32_t> ref;
    // Largest dictionary code at this level (0 when empty). Merge outputs
    // only ever union frozen codes, so this bounds the code domain of every
    // merge at this level — what lets MergeDirect bucket by code instead of
    // sorting.
    uint32_t max_code = 0;

    size_t num_nodes() const { return entity_total.size(); }
    size_t num_cells() const { return code.size(); }
  };

  // Algorithm 2 into the frozen layout: the tree of `table` with level i
  // holding column `attr_order[i]` (a non-empty permutation of at most
  // kMaxAttributes column positions). The row ids are sorted by level
  // codes, each adjacent pair's longest common prefix is kept as one byte,
  // and a histogram of those prefixes sizes every level exactly before one
  // pass per level writes it. Every array, count and flag equals
  // Freeze(PrefixTree::Build(table, attr_order, mode)) under either mode,
  // duplicate entities included.
  //
  // Build also computes agree_seeds() from two orders of the rows. Order A
  // is the sort above: an adjacent pair agrees on its common prefix, and the
  // level passes note each deeper level where a row that opens a node there
  // repeats the code of the cell it closes. Order B sorts by the shortest
  // suffix of levels whose ColumnCardinality product reaches the row count,
  // the last level most significant, ties kept in order A (one stable
  // counting sort per level); its pairs are compared on every level.
  static std::unique_ptr<FrozenTree> Build(const Table& table,
                                           const std::vector<int>& attr_order);

  // Scratch Build holds beside the arrays it writes: one int64 row id and
  // one prefix byte per row, plus the larger of order A's agree-again set per
  // row and order B's second int64 row id per row with its bucket offsets
  // (at most one per row, plus one). The distinct agree sets it collects,
  // at most two per row and in practice a few hundred, are not counted.
  static int64_t BuildScratchBytes(int64_t num_rows);

  // Flattens `tree`, which must be freshly built or fully unwound (every
  // ref_count 1). The pointer tree is not consumed. No library path calls
  // it: it is the reference layout Build is tested against, and perfbench's
  // csv_cold times it.
  static std::unique_ptr<FrozenTree> Freeze(const PrefixTree& tree);

  // Inserts `num_rows` delta entities (Algorithm 2's insertion loop, run
  // for a whole batch at once). `level_codes` holds one code pointer per
  // tree level — already permuted by attr_order, each addressing `num_rows`
  // codes for the delta only. Afterwards every array, count and flag equals
  // what Build(base + delta) would produce under the same attribute order,
  // so a traversal may run immediately.
  //
  // The delta is sorted once and merged level by level: each level is
  // rewritten into exactly sized arrays — untouched nodes bulk-copied,
  // counts added where the delta hits, cells and child nodes inserted where
  // it branches off — and swapped in before the next level is read, so at
  // most one level is held twice. Requires every ref to be 1 (no traversal
  // in progress).
  //
  // `cancel` is checked once, before any level is touched: a cancelled
  // absorb returns 0 and leaves the tree unchanged. Otherwise returns
  // `num_rows`.
  int64_t Absorb(const std::vector<const uint32_t*>& level_codes,
                 int64_t num_rows, const std::atomic<bool>* cancel = nullptr);

  int num_levels() const { return static_cast<int>(attr_order_.size()); }
  int attribute_at_level(int level) const { return attr_order_[level]; }
  const std::vector<int>& attr_order() const { return attr_order_; }
  int64_t num_entities() const { return num_entities_; }
  // Some entity occurs more than once (Algorithm 2, lines 17-18): the data
  // has no keys.
  bool has_duplicate_entities() const { return has_duplicate_entities_; }
  int64_t node_count() const { return node_count_; }
  int64_t cell_count() const { return cell_count_; }

  // Non-keys known before any traversal. Each is the set of attributes on
  // which two distinct rows adjacent in order A or order B (see Build) agree;
  // two distinct rows agreeing on X make X a non-key. The sets are reduced
  // to an antichain by Algorithm 5, larger sets inserted first.
  // TraverseStage inserts them into the working NonKeySet when
  // GordianOptions::agree_set_seeding is on, so the futility test fires
  // earlier while a complete run returns the same maximal non-keys. Build
  // computes them, and they stay with the tree in the TreeArtifactCache.
  // Absorb leaves them unchanged: appended rows never retract a non-key.
  // Freeze leaves them empty, as does Build for fewer than two rows or a
  // repeated row.
  const std::vector<AttributeSet>& agree_seeds() const { return agree_seeds_; }

  const Level& level(int l) const { return levels_[static_cast<size_t>(l)]; }
  Level& level_mutable(int l) { return levels_[static_cast<size_t>(l)]; }

  // Heap footprint of the frozen arrays (exact: every array is allocated
  // at its final size, by Build, Freeze and each Absorb).
  int64_t ApproxBytes() const { return approx_bytes_; }
  double BytesPerNode() const {
    return node_count_ == 0 ? 0
                            : static_cast<double>(approx_bytes_) /
                                  static_cast<double>(node_count_);
  }

  // True iff every node's reference count is back at 1 (test hook: aborted
  // traversals must fully unwind their shares).
  bool AllRefsAreOne() const;

 private:
  FrozenTree() = default;

  std::vector<Level> levels_;
  std::vector<int> attr_order_;
  int64_t num_entities_ = 0;
  int64_t node_count_ = 0;
  int64_t cell_count_ = 0;
  int64_t approx_bytes_ = 0;
  bool has_duplicate_entities_ = false;
  std::vector<AttributeSet> agree_seeds_;
};

// Observation hooks into the traversal, for debugging, tracing, and the
// specification tests that pin the paper's Figure 9 processing order. All
// callbacks default to no-ops; the finder never depends on them.
class TraversalObserver {
 public:
  virtual ~TraversalObserver() = default;

  // A segment (candidate non-key) of the current slice was examined at the
  // leaf level — the unit of work Figure 9 orders.
  virtual void OnSegment(const AttributeSet& /*segment*/) {}

  // A non-key was handed to the NonKeySet (it may still be rejected there
  // as redundant).
  virtual void OnNonKey(const AttributeSet& /*non_key*/) {}

  // A merge produced the tree for the next projection at `level`.
  virtual void OnMerge(int /*level*/) {}

  // A pruning rule fired: "singleton", "singleton-merge", "single-entity",
  // or "futility".
  virtual void OnPrune(const char* /*kind*/, int /*level*/) {}
};

// Algorithm 4 over the frozen representation: the doubly-recursive
// depth-first traversal that interleaves the (virtual) cube computation
// with non-key discovery. The outer recursion explores slices; after all
// children of a node are visited, its children are merged (projecting out
// the node's attribute) and the merged tree is explored recursively — so
// every segment of every slice is examined, in the order shown in the
// paper's Figure 9, except where pruning applies.
//
// Visit runs over contiguous code spans, the leaf duplicate test is a SIMD
// scan, and the 2-way merge (the dominant shape inside merge recursions) is
// a branch-light galloping span union. Merge outputs live in the finder's
// own arena, in the frozen layout: per level, the cell arrays (code, count)
// and node arrays (cell_begin, entity_total, ref) of a FrozenTree::Level,
// plus one child per non-leaf cell. That child names a node of either kind,
// so merge outputs share untouched frozen subtrees the way Algorithm 3
// shares subtrees of the base tree. Algorithm 4 discards each merged tree
// right after visiting it, so merge outputs live and die in stack order:
// releasing a merged tree truncates the arena to the mark taken before its
// merge and lowers the reference counts that merge raised on older nodes.
//
// This is the library's only non-key search. The pointer-tree finder in
// tests/oracle/ replays Algorithm 4 over PrefixTree nodes; the equivalence
// fuzz in tests/frozen_tree_test.cc pins identical reports and identical
// work counters between the two.
class FrozenNonKeyFinder {
 public:
  FrozenNonKeyFinder(FrozenTree& tree, const GordianOptions& options,
                     NonKeySet* non_keys, GordianStats* stats,
                     TraversalObserver* observer = nullptr);

  // Runs the traversal, populating the NonKeySet passed at construction.
  // Returns false if a budget (options.max_non_keys /
  // options.time_budget_seconds) tripped or options.cancel_flag was raised
  // and the traversal stopped early; abort_reason() then says which.
  bool Run();

  // Why the traversal stopped early, or kNone after a complete run.
  AbortReason abort_reason() const { return abort_reason_; }

  // Ignored: merge outputs live in the finder's own arena. It remains only
  // because perfbench's csv_cold still calls it.
  void SetMergePool(PrefixTree::NodePool* /*pool*/) {}

  // Warm-start cover (options.warm_start_non_keys materialized as a
  // NonKeySet): consulted by the futility test before the working set, so
  // prunes earned by the prior run's non-keys are counted under
  // warm_start_prunes. Read-only here; it must outlive the traversal.
  void SetWarmCover(const NonKeySet* warm) { warm_cover_ = warm; }

  // Heap bytes of the merge arena's arrays. They only grow, so after Run
  // this is the arena's high-water mark.
  int64_t ArenaBytes() const;

 private:
  // Names a node by kind, level and index, never by pointer: a frozen node
  // of the tree, or an arena node made by a merge.
  struct NodeRef {
    uint32_t index;
    uint16_t level;
    bool arena;
  };

  // A node of either kind as the traversal reads it: the arrays of its
  // level, frozen or arena, and its index there. Each field is read when
  // asked for, so a visit that prunes early reads only what it tests. A view
  // must not be held across an append to the node's level. Every merge
  // reads all its inputs before it writes its output, and a merge's
  // recursion appends only at deeper levels.
  struct NodeView {
    FrozenTree::Level* lv;
    // The arena level's children, one per cell; nullptr for a frozen node,
    // whose cell g has frozen node g at the next level as its child.
    const NodeRef* level_children;
    uint32_t index;
    uint16_t level;

    uint32_t first_cell() const { return lv->cell_begin[index]; }
    size_t num_cells() const {
      return lv->cell_begin[index + 1] - lv->cell_begin[index];
    }
    const uint32_t* code() const { return lv->code.data() + first_cell(); }
    const int64_t* count() const { return lv->count.data() + first_cell(); }
    int64_t entity_total() const { return lv->entity_total[index]; }
    int32_t& ref() const { return lv->ref[index]; }
    // The child of cell k (non-leaf nodes only).
    NodeRef Child(size_t k) const {
      const uint32_t g = first_cell() + static_cast<uint32_t>(k);
      if (level_children != nullptr) return level_children[g];
      return NodeRef{g, static_cast<uint16_t>(level + 1), false};
    }
  };

  // One level of the merge arena: the merge outputs made at that level, in
  // the frozen layout (max_code unused), and the child of each cell above
  // the leaf level.
  struct ArenaLevel {
    FrozenTree::Level nodes;
    std::vector<NodeRef> child;
  };

  // Per-recursion-depth merge scratch. MergeDirect buckets through the
  // code-indexed tables (code_mult/code_acc/code_pos, kept all-zero between
  // merges); the sort-based fallback uses the packed
  // (code << 32 | gather-index) keys.
  // A deque so deeper merges growing the table never invalidate the level a
  // shallower merge still references.
  struct MergeLevelScratch {
    std::vector<uint64_t> keys;
    std::vector<int64_t> counts;
    std::vector<NodeRef> children;
    std::vector<NodeRef> run;
    std::vector<uint32_t> distinct;
    std::vector<int32_t> code_mult;
    std::vector<int64_t> code_acc;
    std::vector<uint32_t> code_pos;
    std::vector<NodeRef> run_children;
  };

  // The one accessor over both node kinds.
  NodeView View(NodeRef r);

  void Visit(NodeRef node, int level);
  void ProcessLeaf(NodeRef node, int level);
  // Merges the children of `node` (a non-leaf at `level`) into one node at
  // level + 1 (the merge step of Algorithm 4, lines 23-30).
  NodeRef MergeChildren(const NodeView& node, int level);
  // Algorithm 3 over NodeRefs: inputs are same-level nodes at `level`.
  NodeRef MergeRefs(const NodeRef* inputs, size_t n, int level, size_t depth);
  NodeRef MergePairFrozen(int level, uint32_t a, uint32_t b);
  NodeRef MergeDirect(const NodeRef* inputs, size_t n, int level,
                      size_t depth);
  NodeRef MergeSorted(const NodeRef* inputs, size_t n, int level,
                      size_t depth);

  // A merge output shares the existing node `r`: raises its reference
  // count, which the release of that output lowers again.
  void Share(NodeRef r);
  // Appends a cell to the arena node being built at `level`; `child` is
  // ignored at the leaf level. Nothing else appends at that level until the
  // node closes: the deeper merges that make its children append deeper.
  void AppendCell(int level, uint32_t code, int64_t count, NodeRef child);
  // Closes that node: its cells are those appended at `level` since the
  // previous node there closed.
  NodeRef CloseNode(int level, int64_t entity_total);
  // Before the merge of a node at `level`, records where the arena stands;
  // after the merged tree is visited, undoes that merge's shares and
  // truncates the arena back to it.
  void MarkArena(int level);
  void ReleaseArena(int level);

  MergeLevelScratch& ScratchAt(size_t depth) {
    if (depth >= scratch_.size()) scratch_.resize(depth + 1);
    return scratch_[depth];
  }
  bool OverBudget();
  bool FutilityCovered(const AttributeSet& probe);

  FrozenTree& tree_;
  const GordianOptions& options_;
  NonKeySet* non_keys_;
  GordianStats* stats_;
  TraversalObserver* observer_;
  int depth_ = 0;

  AttributeSet cur_non_key_;
  std::vector<AttributeSet> suffix_attrs_;

  // Gather buffer for MergeChildren. The merge reads it only before it
  // returns, so the merges nested in the visit of its output may reuse it.
  std::vector<NodeRef> child_buf_;
  std::deque<MergeLevelScratch> scratch_;

  std::vector<ArenaLevel> arena_;  // one per tree level
  // At most one merge per Visit level is live, so the marks are indexed by
  // that level: node_marks_[level * depth_ + l] is arena level l's node
  // count before the merge.
  std::vector<uint32_t> node_marks_;

  const NonKeySet* warm_cover_ = nullptr;

  // Budget state (see GordianOptions): aborted_ unwinds the recursion.
  // visit_tick_ amortizes the clock check; it is local so the budget is
  // enforced even when no stats sink was supplied.
  Stopwatch budget_watch_;
  uint64_t visit_tick_ = 0;
  bool aborted_ = false;
  AbortReason abort_reason_ = AbortReason::kNone;
};

}  // namespace gordian

#endif  // GORDIAN_CORE_FROZEN_TREE_H_
