#ifndef GORDIAN_CORE_OPTIONS_H_
#define GORDIAN_CORE_OPTIONS_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/attribute_set.h"

namespace gordian {

// Why a discovery run stopped before exhausting the search space. kNone for
// complete runs; the other values correspond to the safety valves in
// GordianOptions, to cooperative cancellation (profiling-service jobs) and
// to the attribute limit.
enum class AbortReason {
  kNone = 0,
  kNonKeyBudget,  // max_non_keys tripped
  kTimeBudget,    // time_budget_seconds tripped
  kCancelled,     // *cancel_flag became true
  // The table is wider than AttributeSet::kMaxAttributes, so no stage ran.
  // Such a result never crosses the wire: its attribute count is past what
  // the result codec accepts.
  kTooManyAttributes,
};

// Tuning knobs for GORDIAN. The defaults reproduce the full algorithm of the
// paper plus agree-set seeding; the pruning and seeding toggles exist for the
// Figure 13 ablation and for property tests (every combination must produce
// identical keys).
struct GordianOptions {
  // Section 3.4.1, Figure 10(a): skip traversal of shared
  // (already-traversed) subtrees. (The companion Figure 10(b) skip — never
  // merge a single-cell node — is written unconditionally into Algorithm 4
  // and is therefore always on.)
  bool singleton_pruning = true;

  // Section 3.4.1, final optimization: do not search a slice that holds a
  // single entity (Algorithm 4, line 14).
  bool single_entity_pruning = true;

  // Section 3.4.2: consult the NonKeySet before merging; skip merges that
  // can only produce covered (redundant) non-keys (Algorithm 4, line 24).
  bool futility_pruning = true;

  // Seed the traversal's NonKeySet with the frozen tree's agree sets
  // (FrozenTree::agree_seeds): the attributes on which two distinct rows,
  // adjacent in one of two sorted orders, agree. Each is a genuine non-key,
  // so the futility test above fires earlier, and a complete run returns the
  // same non-keys and keys either way. Like warm-start seeds, they count
  // toward max_non_keys.
  bool agree_set_seeding = true;

  // Order in which attributes become prefix-tree levels (Section 3.2.1).
  // GORDIAN finds the same keys under any order; kCardinalityDesc is the
  // paper's heuristic (maximize pruning at lower levels).
  enum class AttributeOrder {
    kSchema,            // schema order, no reordering
    kCardinalityDesc,   // most distinct values at the root
    kCardinalityAsc,    // fewest distinct values at the root
    kRandom,            // seeded shuffle (order_seed)
  };
  AttributeOrder attribute_order = AttributeOrder::kCardinalityDesc;
  uint64_t order_seed = 0;

  // How the reference PrefixTree::Build constructs its pointer tree. Both
  // modes produce identical trees. Profiling runs never read it: they build
  // the frozen layout directly (FrozenTree::Build).
  enum class TreeBuild {
    kSorted,     // sort row ids, then append paths; fast, cache-friendly
    kInsertion,  // Algorithm 2 verbatim: one pass, insert row by row
  };

  // When > 0 and smaller than the table, run on a uniform row sample of this
  // size (Section 3.9). Discovered keys are then sample keys: they include
  // every true key plus possibly approximate keys.
  int64_t sample_rows = 0;
  uint64_t sample_seed = 42;

  // How NULL participates in keys. The paper's model has no NULLs; this
  // library's default treats NULL as an ordinary value that equals itself
  // (two all-NULL rows are duplicates). kExcludeNullableColumns instead
  // matches SQL's UNIQUE-constraint practice: a column containing any NULL
  // is barred from keys entirely (it is removed from the search and can
  // appear in no reported key or non-key).
  enum class NullSemantics {
    kNullEqualsNull,
    kExcludeNullableColumns,
  };
  NullSemantics null_semantics = NullSemantics::kNullEqualsNull;

  // Safety valves for the #P-hard regime (Section 3.8: adversarial data can
  // make the number of non-redundant non-keys — and hence minimal keys —
  // itself combinatorial). When either limit trips, discovery stops and the
  // result is marked incomplete: the non-keys found so far are all genuine,
  // but no keys are derived (a partial non-key set would certify false
  // keys). 0 = unlimited.
  int64_t max_non_keys = 0;
  double time_budget_seconds = 0;

  // Cooperative cancellation. When non-null, the flag is polled at phase
  // boundaries and inside the traversal's recursion; once it reads true,
  // discovery unwinds and the result comes back incomplete with reason
  // kCancelled. The pointed-to flag must outlive the run. Used by the
  // profiling service to cancel in-flight jobs without killing threads.
  const std::atomic<bool>* cancel_flag = nullptr;

  // Warm-start seed for incremental re-profiles (appends). Every set listed
  // here must be a genuine non-key of the table being profiled — GORDIAN's
  // monotonicity property guarantees this for any non-key set discovered
  // before rows were appended, since appending rows can only create new
  // non-keys, never retract one. The seeds are inserted into the working
  // NonKeySet before traversal starts, so futility pruning skips the
  // already-settled regions and the search only explores the frontier the
  // delta can change. Complete runs produce the identical canonical non-key
  // antichain (and hence identical keys) with or without seeding; only the
  // work counters differ. The pointed-to vector must outlive the run.
  const std::vector<AttributeSet>* warm_start_non_keys = nullptr;
};

// Counters and timings reported by a discovery run; feeds Table 2 and the
// scaling figures.
struct GordianStats {
  int64_t rows_processed = 0;
  int64_t num_attributes = 0;

  // Prefix tree.
  int64_t base_tree_nodes = 0;
  int64_t base_tree_cells = 0;

  // Traversal (FrozenNonKeyFinder) work.
  int64_t nodes_visited = 0;
  int64_t merges_performed = 0;
  int64_t merge_nodes_created = 0;
  int64_t singleton_traversal_prunes = 0;
  int64_t singleton_merge_prunes = 0;
  int64_t single_entity_prunes = 0;
  int64_t futility_prunes = 0;
  // Warm start (incremental re-profiles): non-keys seeded from a prior run
  // before traversal began, and how many futility prunes fired off the
  // seeded cover rather than non-keys discovered in this run.
  int64_t warm_start_seeds = 0;
  int64_t warm_start_prunes = 0;
  // Agree-set seeding: the frozen tree's seeds inserted into the working
  // set before traversal began (see GordianOptions::agree_set_seeding).
  int64_t agree_seeds = 0;

  // NonKeySet container.
  int64_t non_key_insert_attempts = 0;
  int64_t non_keys_rejected_covered = 0;
  int64_t non_keys_evicted = 0;
  int64_t final_non_keys = 0;

  // Memory (bytes): the frozen tree's arrays plus the larger of the two
  // phases that run on top of them — the build's row permutation and
  // prefix bytes (FrozenTree::BuildScratchBytes; none for an injected
  // tree), or the traversal's merge arena (its high-water mark) plus the
  // NonKeySet.
  int64_t peak_memory_bytes = 0;

  // The frozen tree's byte footprint, and the wall clock of a separate
  // freeze pass. Runs build the frozen layout directly, so freeze_seconds
  // stays 0; perfbench's schema_tpch and routed_reprofile still report it
  // as core.freeze_ms.
  int64_t frozen_tree_bytes = 0;
  double freeze_seconds = 0;

  // Wall-clock per phase.
  double build_seconds = 0;
  double find_seconds = 0;
  double convert_seconds = 0;

  double TotalSeconds() const {
    return build_seconds + find_seconds + convert_seconds;
  }
};

}  // namespace gordian

#endif  // GORDIAN_CORE_OPTIONS_H_
