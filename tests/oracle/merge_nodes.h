#ifndef GORDIAN_TESTS_ORACLE_MERGE_NODES_H_
#define GORDIAN_TESTS_ORACLE_MERGE_NODES_H_

#include <cstddef>
#include <deque>
#include <vector>

#include "core/options.h"
#include "core/prefix_tree.h"

namespace gordian {

// Reusable per-traversal buffers for MergeNodes: one gather/partial pair per
// recursion depth, so a traversal performing millions of merges allocates
// the scratch once and then only grows it to the high-water mark.
class MergeScratch {
 public:
  struct Level {
    std::vector<const PrefixTree::Cell*> gathered;
    std::vector<PrefixTree::Node*> partial;
  };

  Level& AtDepth(size_t depth) {
    if (depth >= levels_.size()) levels_.resize(depth + 1);
    return levels_[depth];
  }

 private:
  // deque, not vector: a merge at depth d holds a reference to its Level
  // (and passes its `partial` buffer to the recursive call) while deeper
  // merges may grow the table — deque growth never invalidates references
  // to existing elements.
  std::deque<Level> levels_;
};

// Algorithm 3 over pointer nodes: merges a set of same-level nodes into one
// node whose cells hold the union of the input values; equal-value children
// are merged recursively; equal-value leaf counts are summed. A single-node
// input is returned directly with an extra reference (node sharing). The
// caller owns one reference to the result and must Unref it when done.
//
// `merges_performed` / `merge_nodes_created` counters are incremented when a
// stats pointer is supplied. The scratch overload reuses the caller's
// buffers across calls; the three-argument form allocates a transient
// scratch.
PrefixTree::Node* MergeNodes(PrefixTree::NodePool& pool,
                             const std::vector<PrefixTree::Node*>& to_merge,
                             GordianStats* stats);
PrefixTree::Node* MergeNodes(PrefixTree::NodePool& pool,
                             const std::vector<PrefixTree::Node*>& to_merge,
                             GordianStats* stats, MergeScratch* scratch,
                             size_t depth = 0);

}  // namespace gordian

#endif  // GORDIAN_TESTS_ORACLE_MERGE_NODES_H_
