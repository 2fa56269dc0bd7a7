#include "oracle/non_key_finder.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <set>
#include <utility>

#include "core/pipeline.h"

namespace gordian {

NonKeyFinder::NonKeyFinder(PrefixTree& tree,
                           const GordianOptions& options, NonKeySet* non_keys,
                           GordianStats* stats, TraversalObserver* observer)
    : tree_(tree),
      options_(options),
      non_keys_(non_keys),
      stats_(stats),
      observer_(observer) {
  const int depth = tree_.num_levels();
  suffix_attrs_.assign(depth + 1, AttributeSet());
  for (int l = depth - 1; l >= 0; --l) {
    suffix_attrs_[l] = suffix_attrs_[l + 1];
    suffix_attrs_[l].Set(tree_.attribute_at_level(l));
  }
}

bool NonKeyFinder::Run() {
  if (tree_.root() == nullptr || tree_.num_entities() == 0) return true;
  budget_watch_.Restart();
  Visit(tree_.root(), 0);
  return !aborted_;
}

bool NonKeyFinder::OverBudget() {
  if (aborted_) return true;
  if (options_.cancel_flag != nullptr &&
      options_.cancel_flag->load(std::memory_order_relaxed)) {
    aborted_ = true;
    abort_reason_ = AbortReason::kCancelled;
    return true;
  }
  if (options_.max_non_keys > 0 && non_keys_->size() > options_.max_non_keys) {
    aborted_ = true;
    abort_reason_ = AbortReason::kNonKeyBudget;
    return true;
  }
  // The clock check is amortized over a finder-local tick, exactly like the
  // production finder's, so both abort after the same number of visits.
  if ((++visit_tick_ & 0xFFF) == 0 && options_.time_budget_seconds > 0 &&
      budget_watch_.ElapsedSeconds() > options_.time_budget_seconds) {
    aborted_ = true;
    abort_reason_ = AbortReason::kTimeBudget;
  }
  return aborted_;
}

bool NonKeyFinder::FutilityCovered(const AttributeSet& probe) {
  if (warm_cover_ != nullptr && warm_cover_->CoversSet(probe)) {
    if (stats_ != nullptr) ++stats_->warm_start_prunes;
    return true;
  }
  return non_keys_->CoversSet(probe);
}

void NonKeyFinder::ProcessLeaf(PrefixTree::Node* node, int level) {
  const int attr = tree_.attribute_at_level(level);
  // Lines 3-8: a duplicate within the current projection (count > 1) makes
  // curNonKey, including this level's attribute, a non-key.
  if (observer_ != nullptr) observer_->OnSegment(cur_non_key_);
  for (const PrefixTree::Cell& cell : node->cells) {
    if (cell.count != 1) {
      if (observer_ != nullptr) observer_->OnNonKey(cur_non_key_);
      non_keys_->Insert(cur_non_key_);
      break;
    }
  }
  // Lines 9-12: project out the leaf attribute; if the slice then holds
  // more than one entity (several cells, or one cell with count > 1), the
  // remaining prefix is a non-key.
  cur_non_key_.Reset(attr);
  if (observer_ != nullptr) observer_->OnSegment(cur_non_key_);
  if (node->cells.size() > 1 ||
      (node->cells.size() == 1 && node->cells[0].count > 1)) {
    if (observer_ != nullptr) observer_->OnNonKey(cur_non_key_);
    non_keys_->Insert(cur_non_key_);
  }
}

void NonKeyFinder::Visit(PrefixTree::Node* node, int level) {
  if (stats_ != nullptr) ++stats_->nodes_visited;
  if (OverBudget()) return;
  const int attr = tree_.attribute_at_level(level);
  assert(!cur_non_key_.Test(attr));
  cur_non_key_.Set(attr);  // line 1: append attrNo to curNonKey

  if (node->is_leaf) {
    ProcessLeaf(node, level);  // also removes attr from cur_non_key_
    return;
  }

  // Line 14: a slice holding a single entity cannot yield a non-key.
  if (options_.single_entity_pruning && node->EntityCount() == 1) {
    if (stats_ != nullptr) ++stats_->single_entity_prunes;
    if (observer_ != nullptr) observer_->OnPrune("single-entity", level);
    cur_non_key_.Reset(attr);
    return;
  }

  // Lines 17-21: visit children depth-first, skipping shared (previously
  // traversed) subtrees — singleton pruning, Figure 10(a).
  for (const PrefixTree::Cell& cell : node->cells) {
    if (aborted_) break;
    if (options_.singleton_pruning && cell.child->ref_count > 1) {
      if (stats_ != nullptr) ++stats_->singleton_traversal_prunes;
      if (observer_ != nullptr) observer_->OnPrune("singleton", level);
      continue;
    }
    Visit(cell.child, level + 1);
  }

  cur_non_key_.Reset(attr);  // line 22
  if (aborted_) return;

  // Lines 23-30: merge the children (projecting out this level's attribute)
  // and explore the merged tree. A single-cell node's merge would return a
  // shared tree and so cannot yield non-redundant non-keys — singleton
  // pruning, Figure 10(b). This skip is written unconditionally into
  // Algorithm 4 ("if there is more than one cell in root"), so it is not
  // gated on the pruning toggle: without it, chains of single-cell nodes
  // would double the traversal at every level (2^d on single-entity paths).
  if (node->cells.size() <= 1) {
    if (node->cells.size() == 1) {
      if (stats_ != nullptr) ++stats_->singleton_merge_prunes;
      if (observer_ != nullptr) observer_->OnPrune("singleton-merge", level);
    }
    return;
  }

  // Line 24: futility test — the largest non-key the merged subtree could
  // produce is cur_non_key_ | suffix_attrs_[level + 1]; if an already
  // discovered non-key covers it, everything below is redundant.
  if (options_.futility_pruning &&
      FutilityCovered(cur_non_key_ | suffix_attrs_[level + 1])) {
    if (stats_ != nullptr) ++stats_->futility_prunes;
    if (observer_ != nullptr) observer_->OnPrune("futility", level);
    return;
  }

  std::vector<PrefixTree::Node*> children;
  children.reserve(node->cells.size());
  for (const PrefixTree::Cell& cell : node->cells) {
    children.push_back(cell.child);
  }
  PrefixTree::Node* merged =
      MergeNodes(tree_.pool(), children, stats_, &merge_scratch_);
  if (observer_ != nullptr) observer_->OnMerge(level);
  Visit(merged, level + 1);
  tree_.pool().Unref(merged);  // line 29: discard the merged tree
}

namespace {

bool HasNull(const Table& table, int column) {
  const uint32_t null_code = table.dictionary(column).Lookup(Value::Null());
  return null_code != UINT32_MAX &&
         table.column_codes(column).CountEqual(null_code) > 0;
}

}  // namespace

std::vector<AttributeSet> OracleAgreeSeeds(const Table& table,
                                           const std::vector<int>& attr_order) {
  const int depth = static_cast<int>(attr_order.size());
  const int64_t n = table.num_rows();
  if (n < 2) return {};
  auto code = [&](int64_t row, int level) {
    return table.code(row, attr_order[static_cast<size_t>(level)]);
  };
  auto order_a = [&](int64_t a, int64_t b) {
    for (int l = 0; l < depth; ++l) {
      if (code(a, l) != code(b, l)) return code(a, l) < code(b, l);
    }
    return false;
  };
  int first = depth;
  double product = 1;
  while (first > 0 && product < static_cast<double>(n)) {
    --first;
    product *= static_cast<double>(
        table.ColumnCardinality(attr_order[static_cast<size_t>(first)]));
  }
  auto order_b = [&](int64_t a, int64_t b) {
    for (int l = depth - 1; l >= first; --l) {
      if (code(a, l) != code(b, l)) return code(a, l) < code(b, l);
    }
    return order_a(a, b);
  };

  std::vector<int64_t> rows(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) rows[static_cast<size_t>(r)] = r;
  std::set<AttributeSet> agree;
  const AttributeSet all = [&] {
    AttributeSet s;
    for (int c : attr_order) s.Set(c);
    return s;
  }();
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 0) {
      std::sort(rows.begin(), rows.end(), order_a);
    } else {
      std::sort(rows.begin(), rows.end(), order_b);
    }
    for (size_t i = 1; i < rows.size(); ++i) {
      AttributeSet s;
      for (int l = 0; l < depth; ++l) {
        if (code(rows[i - 1], l) == code(rows[i], l)) {
          s.Set(attr_order[static_cast<size_t>(l)]);
        }
      }
      if (s == all) return {};  // a repeated row
      agree.insert(s);
    }
  }
  std::vector<AttributeSet> sets(agree.begin(), agree.end());
  std::stable_sort(sets.begin(), sets.end(),
                   [](const AttributeSet& a, const AttributeSet& b) {
                     return a.Count() > b.Count();
                   });
  NonKeySet maximal;
  for (const AttributeSet& s : sets) maximal.Insert(s);
  return maximal.non_keys();
}

KeyDiscoveryResult OracleFindKeys(const Table& table,
                                  const GordianOptions& options,
                                  GordianOptions::TreeBuild build) {
  GordianOptions opts = options;
  const int d = table.num_columns();
  if (opts.null_semantics ==
      GordianOptions::NullSemantics::kExcludeNullableColumns) {
    opts.null_semantics = GordianOptions::NullSemantics::kNullEqualsNull;
    std::vector<int> kept;
    for (int c = 0; c < d; ++c) {
      if (!HasNull(table, c)) kept.push_back(c);
    }
    if (static_cast<int>(kept.size()) < d) {
      KeyDiscoveryResult out;
      if (!kept.empty()) {
        out = OracleFindKeys(table.SelectColumns(kept), opts, build);
        auto remap = [&](const AttributeSet& attrs) {
          AttributeSet lifted;
          attrs.ForEach([&](int a) { lifted.Set(kept[a]); });
          return lifted;
        };
        for (DiscoveredKey& k : out.keys) k.attrs = remap(k.attrs);
        for (AttributeSet& nk : out.non_keys) nk = remap(nk);
      }
      out.stats.num_attributes = d;
      return out;
    }
  }

  ProfileContext ctx;
  ctx.input = &table;
  ctx.options = opts;
  EncodeStage(&ctx);
  if (ctx.finished) return std::move(ctx.result);

  KeyDiscoveryResult& result = ctx.result;
  PrefixTree tree =
      PrefixTree::Build(*ctx.data, ctx.attr_order, build);
  result.stats.base_tree_nodes = tree.node_count();
  result.stats.base_tree_cells = tree.cell_count();
  if (tree.has_duplicate_entities()) {
    result.no_keys = true;
    result.non_keys.push_back(AttributeSet::FirstN(d));
    return std::move(ctx.result);
  }
  if (ctx.Cancelled()) {
    result.incomplete = true;
    result.incomplete_reason = AbortReason::kCancelled;
    return std::move(ctx.result);
  }

  NonKeySet non_key_set(&result.stats);
  NonKeySet warm_set(nullptr);
  const std::vector<AttributeSet>* warm_seeds = opts.warm_start_non_keys;
  const bool warm = warm_seeds != nullptr && !warm_seeds->empty();
  if (warm) {
    for (const AttributeSet& nk : *warm_seeds) {
      warm_set.Insert(nk);
      non_key_set.Insert(nk);
    }
    result.stats.warm_start_seeds += static_cast<int64_t>(warm_seeds->size());
  }
  if (opts.agree_set_seeding) {
    const std::vector<AttributeSet> seeds =
        OracleAgreeSeeds(*ctx.data, ctx.attr_order);
    for (const AttributeSet& nk : seeds) non_key_set.Insert(nk);
    result.stats.agree_seeds += static_cast<int64_t>(seeds.size());
  }
  NonKeyFinder finder(tree, opts, &non_key_set, &result.stats);
  if (warm) finder.SetWarmCover(&warm_set);
  result.incomplete = !finder.Run();
  result.incomplete_reason = finder.abort_reason();
  result.stats.final_non_keys = non_key_set.size();
  result.non_keys = non_key_set.non_keys();
  // Cardinality first, then bitset order.
  std::sort(result.non_keys.begin(), result.non_keys.end(),
            [](const AttributeSet& a, const AttributeSet& b) {
              if (a.Count() != b.Count()) return a.Count() < b.Count();
              return a < b;
            });
  if (result.incomplete) return std::move(ctx.result);

  ConvertStage(&ctx);
  ValidateStage(&ctx);
  return std::move(ctx.result);
}

}  // namespace gordian
