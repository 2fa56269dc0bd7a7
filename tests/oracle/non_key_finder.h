#ifndef GORDIAN_TESTS_ORACLE_NON_KEY_FINDER_H_
#define GORDIAN_TESTS_ORACLE_NON_KEY_FINDER_H_

#include <cstdint>
#include <vector>

#include "common/attribute_set.h"
#include "common/stopwatch.h"
#include "core/frozen_tree.h"
#include "core/gordian.h"
#include "core/non_key_set.h"
#include "core/options.h"
#include "core/prefix_tree.h"
#include "oracle/merge_nodes.h"
#include "table/table.h"

namespace gordian {

// The pointer-tree traversal oracle: Algorithm 4 written directly over
// PrefixTree nodes, merging with the pointer MergeNodes of Algorithm 3. The
// library runs FrozenNonKeyFinder only; this finder replays the same
// doubly-recursive traversal — identical visit order, pruning decisions,
// counters, observer callbacks, and budget semantics — in the most literal
// form, so tests can pin the production finder against it.
class NonKeyFinder {
 public:
  NonKeyFinder(PrefixTree& tree, const GordianOptions& options,
               NonKeySet* non_keys, GordianStats* stats,
               TraversalObserver* observer = nullptr);

  // Runs the traversal, populating the NonKeySet passed at construction.
  // Returns false if a budget (options.max_non_keys /
  // options.time_budget_seconds) tripped or options.cancel_flag was raised
  // and the traversal stopped early; abort_reason() then says which.
  bool Run();

  AbortReason abort_reason() const { return abort_reason_; }

  // Warm-start cover, consulted by the futility test before the working set
  // (see FrozenNonKeyFinder::SetWarmCover).
  void SetWarmCover(const NonKeySet* warm) { warm_cover_ = warm; }

 private:
  void Visit(PrefixTree::Node* node, int level);
  void ProcessLeaf(PrefixTree::Node* node, int level);
  bool OverBudget();
  bool FutilityCovered(const AttributeSet& probe);

  PrefixTree& tree_;
  const GordianOptions& options_;
  NonKeySet* non_keys_;
  GordianStats* stats_;
  TraversalObserver* observer_;

  // Current candidate non-key (in original column positions), maintained as
  // attributes are appended/removed along the traversal (curNonKey in the
  // paper's pseudocode).
  AttributeSet cur_non_key_;

  // suffix_attrs_[l] = set of original attributes at tree levels >= l; used
  // by the futility test (the largest non-key a merge at level l-1 could
  // still produce is cur_non_key_ | suffix_attrs_[l]).
  std::vector<AttributeSet> suffix_attrs_;

  // Reused across every MergeNodes call of the traversal.
  MergeScratch merge_scratch_;

  const NonKeySet* warm_cover_ = nullptr;

  Stopwatch budget_watch_;
  uint64_t visit_tick_ = 0;
  bool aborted_ = false;
  AbortReason abort_reason_ = AbortReason::kNone;
};

// FrozenTree::agree_seeds recomputed from the table's codes alone, with no
// tree: the row ids are sorted with std::sort under order A (level codes,
// level 0 first) and order B (the shortest suffix of levels whose
// ColumnCardinality product reaches the row count, last level first, then
// order A), every adjacent pair's agree set is taken over all levels, and
// the distinct sets are reduced through a NonKeySet, larger sets first.
// Empty for fewer than two rows or a repeated row. Members come in the
// NonKeySet's insertion order; compare them as a set.
std::vector<AttributeSet> OracleAgreeSeeds(const Table& table,
                                           const std::vector<int>& attr_order);

// FindKeys with the traversal swapped for the pointer oracle and no frozen
// layout anywhere: the production stages encode the table (sampling,
// attribute order), convert and validate, while the tree build, the
// duplicate and cancellation checks, warm-start and agree-set seeding
// (OracleAgreeSeeds), NonKeyFinder and the canonical non-key order are
// written out here. Nullable-column
// exclusion projects and recurses here too, so no production traversal
// runs. The pointer tree is built in mode `build`; both modes give the
// same tree. Reports and work counters must equal FindKeys' byte for byte.
KeyDiscoveryResult OracleFindKeys(
    const Table& table, const GordianOptions& options = {},
    GordianOptions::TreeBuild build = GordianOptions::TreeBuild::kSorted);

}  // namespace gordian

#endif  // GORDIAN_TESTS_ORACLE_NON_KEY_FINDER_H_
