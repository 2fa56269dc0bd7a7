#include "core/frozen_tree.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#if defined(__x86_64__) && !defined(GORDIAN_DISABLE_SIMD) && \
    (defined(__GNUC__) || defined(__clang__))
#define GORDIAN_FROZEN_SIMD_X86 1
#include <immintrin.h>
#endif

namespace gordian {

namespace frozen_simd {

bool AnyCountNotOneScalar(const int64_t* counts, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (counts[i] != 1) return true;
  }
  return false;
}

size_t LowerBoundScalar(const uint32_t* codes, size_t n, uint32_t target) {
  return static_cast<size_t>(std::lower_bound(codes, codes + n, target) -
                             codes);
}

#ifdef GORDIAN_FROZEN_SIMD_X86

__attribute__((target("avx2"))) static bool AnyCountNotOneAvx2(
    const int64_t* counts, size_t n) {
  const __m256i one = _mm256_set1_epi64x(1);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(counts + i));
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi64(v, one)) != -1) return true;
  }
  for (; i < n; ++i) {
    if (counts[i] != 1) return true;
  }
  return false;
}

__attribute__((target("avx2"))) static size_t LowerBoundAvx2(
    const uint32_t* codes, size_t n, uint32_t target) {
  if (n == 0 || codes[0] >= target) return 0;
  // Gallop from the front: codes[prev] < target throughout; the answer ends
  // up bracketed in (prev, min(prev + step, n)]. Runs consumed by the merge
  // union are usually short, so the window stays proportional to the
  // distance actually advanced.
  size_t prev = 0, step = 1;
  while (prev + step < n && codes[prev + step] < target) {
    prev += step;
    step <<= 1;
  }
  size_t i = prev + 1;
  const size_t hi = std::min(n, prev + step);
  // The span is sorted, so elements < target form a prefix of the window:
  // scan 8 codes at a time and locate the first non-member of the prefix.
  // uint32 codes are compared signed after an MSB flip.
  const __m256i bias = _mm256_set1_epi32(INT32_MIN);
  const __m256i tgt =
      _mm256_set1_epi32(static_cast<int32_t>(target ^ 0x80000000u));
  for (; i + 8 <= hi; i += 8) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i)),
        bias);
    const uint32_t lt_mask = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(tgt, v))));
    if (lt_mask != 0xFFu) {
      return i + static_cast<size_t>(__builtin_ctz(~lt_mask));
    }
  }
  for (; i < hi; ++i) {
    if (codes[i] >= target) return i;
  }
  return hi;
}

#endif  // GORDIAN_FROZEN_SIMD_X86

namespace {

using AnyCountFn = bool (*)(const int64_t*, size_t);
using LowerBoundFn = size_t (*)(const uint32_t*, size_t, uint32_t);

bool HaveAvx2() {
#ifdef GORDIAN_FROZEN_SIMD_X86
  static const bool have = __builtin_cpu_supports("avx2");
  return have;
#else
  return false;
#endif
}

AnyCountFn ResolveAnyCount() {
#ifdef GORDIAN_FROZEN_SIMD_X86
  if (HaveAvx2()) return &AnyCountNotOneAvx2;
#endif
  return &AnyCountNotOneScalar;
}

LowerBoundFn ResolveLowerBound() {
#ifdef GORDIAN_FROZEN_SIMD_X86
  if (HaveAvx2()) return &LowerBoundAvx2;
#endif
  return &LowerBoundScalar;
}

}  // namespace

bool AnyCountNotOne(const int64_t* counts, size_t n) {
  static const AnyCountFn fn = ResolveAnyCount();
  const bool result = fn(counts, n);
#ifdef GORDIAN_SIMD_CONSISTENCY_CHECKS
  assert(result == AnyCountNotOneScalar(counts, n) &&
         "SIMD AnyCountNotOne disagrees with the scalar kernel");
#endif
  return result;
}

size_t LowerBound(const uint32_t* codes, size_t n, uint32_t target) {
  static const LowerBoundFn fn = ResolveLowerBound();
  const size_t result = fn(codes, n, target);
#ifdef GORDIAN_SIMD_CONSISTENCY_CHECKS
  assert(result == LowerBoundScalar(codes, n, target) &&
         "SIMD LowerBound disagrees with the scalar kernel");
#endif
  return result;
}

const char* ActiveKernel() { return HaveAvx2() ? "avx2" : "scalar"; }

}  // namespace frozen_simd

namespace {

int64_t LevelBytes(const FrozenTree::Level& lv) {
  return static_cast<int64_t>(lv.cell_begin.capacity() * sizeof(uint32_t) +
                              lv.code.capacity() * sizeof(uint32_t) +
                              lv.count.capacity() * sizeof(int64_t) +
                              lv.entity_total.capacity() * sizeof(int64_t) +
                              lv.ref.capacity() * sizeof(int32_t) +
                              sizeof(FrozenTree::Level));
}

}  // namespace

std::unique_ptr<FrozenTree> FrozenTree::Freeze(const PrefixTree& tree) {
  std::unique_ptr<FrozenTree> out(new FrozenTree());
  out->attr_order_ = tree.attr_order();
  out->num_entities_ = tree.num_entities();
  out->has_duplicate_entities_ = tree.has_duplicate_entities();
  const int depth = tree.num_levels();
  out->levels_.resize(static_cast<size_t>(depth));

  // BFS, level by level: the nodes of level l + 1 are enumerated in the
  // cell order of level l, which is precisely what makes cell index == child
  // node index hold.
  std::vector<const PrefixTree::Node*> cur = {tree.root()};
  std::vector<const PrefixTree::Node*> next;
  for (int l = 0; l < depth; ++l) {
    Level& lv = out->levels_[static_cast<size_t>(l)];
    const bool leaf = (l == depth - 1);
    size_t cells = 0;
    for (const PrefixTree::Node* n : cur) cells += n->cells.size();
    assert(cells < UINT32_MAX && "level too wide for uint32 cell offsets");
    lv.cell_begin.reserve(cur.size() + 1);
    lv.code.reserve(cells);
    lv.count.reserve(cells);
    lv.entity_total.reserve(cur.size());
    if (!leaf) next.reserve(cells);
    lv.cell_begin.push_back(0);
    for (const PrefixTree::Node* n : cur) {
      assert(n->ref_count == 1 &&
             "freeze requires a share-free (freshly built / fully unwound) "
             "tree");
      assert(n->is_leaf == leaf);
      lv.entity_total.push_back(n->entity_total);
      for (const PrefixTree::Cell& c : n->cells) {
        lv.code.push_back(c.code);
        lv.count.push_back(c.count);
        lv.max_code = std::max(lv.max_code, c.code);
        if (!leaf) next.push_back(c.child);
      }
      lv.cell_begin.push_back(static_cast<uint32_t>(lv.code.size()));
    }
    lv.ref.assign(cur.size(), 1);
    out->node_count_ += static_cast<int64_t>(cur.size());
    out->cell_count_ += static_cast<int64_t>(cells);
    out->approx_bytes_ += LevelBytes(lv);
    cur.swap(next);
    next.clear();
  }
  assert(out->node_count_ == tree.node_count());
  assert(out->cell_count_ == tree.cell_count());
  return out;
}

namespace {

// Sorted delta rows [begin, end) that agree on every level above the one
// being merged, and the node they reach there: old node `node`, or — when
// `fresh` — a node the delta creates just before old node `node` (at the
// end when `node` is the old node count). `runs_begin`/`runs_end` index
// the group's AbsorbRuns once resolved.
struct AbsorbGroup {
  int64_t begin, end;
  uint32_t node;
  bool fresh;
  size_t runs_begin = 0, runs_end = 0;
};

// The rows [begin, end) of a group that carry `code` at the level being
// merged, and where that code lands: old cell `cell` when `hit`, otherwise
// a new cell inserted just before old cell `cell`. Its children form the
// next level's group: the child of old cell g is old node g there.
struct AbsorbRun {
  int64_t begin, end;
  uint32_t code;
  uint32_t cell;
  bool hit;
};

}  // namespace

int64_t FrozenTree::Absorb(const std::vector<const uint32_t*>& level_codes,
                           int64_t num_rows, const std::atomic<bool>* cancel) {
  const int depth = num_levels();
  assert(depth > 0);
  assert(static_cast<int>(level_codes.size()) == depth);
  if (num_rows <= 0) return 0;

  // Lexicographic order by level codes: rows sharing a prefix become
  // contiguous, in the cell order the levels store them.
  std::vector<int64_t> rows(static_cast<size_t>(num_rows));
  std::iota(rows.begin(), rows.end(), int64_t{0});
  std::sort(rows.begin(), rows.end(), [&](int64_t a, int64_t b) {
    for (const uint32_t* codes : level_codes) {
      if (codes[a] != codes[b]) return codes[a] < codes[b];
    }
    return false;
  });
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) return 0;

  std::vector<AbsorbGroup> groups = {{0, num_rows, 0, false}};  // the root
  std::vector<AbsorbGroup> next_groups;
  std::vector<AbsorbRun> runs;
  for (int l = 0; l < depth; ++l) {
    Level& old = levels_[static_cast<size_t>(l)];
    const uint32_t* codes = level_codes[static_cast<size_t>(l)];
    const bool leaf = l == depth - 1;

    // Resolve each group's distinct codes against the node it reaches.
    runs.clear();
    size_t new_cells = 0, new_nodes = 0;
    for (AbsorbGroup& g : groups) {
      g.runs_begin = runs.size();
      uint32_t pos = old.cell_begin[g.node];
      const uint32_t span_end = g.fresh ? pos : old.cell_begin[g.node + 1];
      if (g.fresh) ++new_nodes;
      for (int64_t r = g.begin; r < g.end;) {
        const uint32_t code = codes[rows[static_cast<size_t>(r)]];
        int64_t e = r + 1;
        while (e < g.end && codes[rows[static_cast<size_t>(e)]] == code) ++e;
        pos += static_cast<uint32_t>(frozen_simd::LowerBound(
            old.code.data() + pos, span_end - pos, code));
        const bool hit = pos < span_end && old.code[pos] == code;
        if (!hit) ++new_cells;
        if (leaf && (hit || e - r > 1)) has_duplicate_entities_ = true;
        runs.push_back({r, e, code, pos, hit});
        r = e;
      }
      g.runs_end = runs.size();
    }

    // Rewrite the level into exactly sized arrays.
    const size_t num_nodes = old.num_nodes() + new_nodes;
    const size_t num_cells = old.num_cells() + new_cells;
    assert(num_cells < UINT32_MAX && "level too wide for uint32 cell offsets");
    Level lv;
    lv.cell_begin.reserve(num_nodes + 1);
    lv.code.reserve(num_cells);
    lv.count.reserve(num_cells);
    lv.entity_total.reserve(num_nodes);
    lv.max_code = old.max_code;
    auto copy_cells = [&](uint32_t b, uint32_t e) {
      lv.code.insert(lv.code.end(), old.code.begin() + b, old.code.begin() + e);
      lv.count.insert(lv.count.end(), old.count.begin() + b,
                      old.count.begin() + e);
    };
    // Old nodes [next_old, end) verbatim, their cell offsets shifted by
    // the cells inserted before them.
    uint32_t next_old = 0;
    auto copy_nodes = [&](uint32_t end) {
      assert(next_old <= end);
      if (next_old == end) return;
      const uint32_t first_cell = old.cell_begin[next_old];
      const uint32_t shift = static_cast<uint32_t>(lv.code.size()) - first_cell;
      const size_t at = lv.cell_begin.size();
      lv.cell_begin.insert(lv.cell_begin.end(),
                           old.cell_begin.begin() + next_old,
                           old.cell_begin.begin() + end);
      for (size_t k = at; k < lv.cell_begin.size(); ++k) {
        lv.cell_begin[k] += shift;
      }
      copy_cells(first_cell, old.cell_begin[end]);
      lv.entity_total.insert(lv.entity_total.end(),
                             old.entity_total.begin() + next_old,
                             old.entity_total.begin() + end);
      next_old = end;
    };
    for (const AbsorbGroup& g : groups) {
      copy_nodes(g.node);
      lv.cell_begin.push_back(static_cast<uint32_t>(lv.code.size()));
      int64_t total = g.end - g.begin;
      uint32_t cell = old.cell_begin[g.node];
      for (size_t k = g.runs_begin; k < g.runs_end; ++k) {
        const AbsorbRun& run = runs[k];
        const int64_t n = run.end - run.begin;
        copy_cells(cell, run.cell);
        lv.code.push_back(run.code);
        lv.count.push_back(run.hit ? old.count[run.cell] + n : n);
        if (!run.hit) lv.max_code = std::max(lv.max_code, run.code);
        cell = run.hit ? run.cell + 1 : run.cell;
      }
      if (!g.fresh) {
        copy_cells(cell, old.cell_begin[g.node + 1]);
        total += old.entity_total[g.node];
        ++next_old;
      }
      lv.entity_total.push_back(total);
    }
    copy_nodes(static_cast<uint32_t>(old.num_nodes()));
    lv.cell_begin.push_back(static_cast<uint32_t>(lv.code.size()));
    lv.ref.assign(num_nodes, 1);
    assert(lv.num_nodes() == num_nodes && lv.num_cells() == num_cells);
    node_count_ += static_cast<int64_t>(new_nodes);
    cell_count_ += static_cast<int64_t>(new_cells);
    approx_bytes_ += LevelBytes(lv) - LevelBytes(old);
    // Swapped in now: the next level is anchored in this level's old
    // cell indices (held by the runs), never in its arrays.
    old = std::move(lv);

    if (leaf) break;
    next_groups.clear();
    for (const AbsorbRun& run : runs) {
      next_groups.push_back({run.begin, run.end, run.cell, !run.hit});
    }
    groups.swap(next_groups);
  }
  num_entities_ += num_rows;
  return num_rows;
}

bool FrozenTree::AllRefsAreOne() const {
  for (const Level& lv : levels_) {
    for (int32_t r : lv.ref) {
      if (r != 1) return false;
    }
  }
  return true;
}

FrozenNonKeyFinder::FrozenNonKeyFinder(FrozenTree& tree,
                                       const GordianOptions& options,
                                       NonKeySet* non_keys,
                                       GordianStats* stats,
                                       TraversalObserver* observer)
    : tree_(tree),
      options_(options),
      non_keys_(non_keys),
      stats_(stats),
      observer_(observer),
      depth_(tree.num_levels()) {
  suffix_attrs_.assign(static_cast<size_t>(depth_) + 1, AttributeSet());
  for (int l = depth_ - 1; l >= 0; --l) {
    suffix_attrs_[static_cast<size_t>(l)] =
        suffix_attrs_[static_cast<size_t>(l) + 1];
    suffix_attrs_[static_cast<size_t>(l)].Set(tree_.attribute_at_level(l));
  }
  arena_.resize(static_cast<size_t>(depth_));
  for (ArenaLevel& al : arena_) al.nodes.cell_begin.push_back(0);
  node_marks_.resize(static_cast<size_t>(depth_) * static_cast<size_t>(depth_));
}

bool FrozenNonKeyFinder::Run() {
  if (depth_ == 0 || tree_.num_entities() == 0) return true;
  budget_watch_.Restart();
  Visit(NodeRef{0, 0, false}, 0);
  return !aborted_;
}

int64_t FrozenNonKeyFinder::ArenaBytes() const {
  int64_t bytes = 0;
  for (const ArenaLevel& al : arena_) {
    bytes += LevelBytes(al.nodes) +
             static_cast<int64_t>(al.child.capacity() * sizeof(NodeRef));
  }
  return bytes;
}

bool FrozenNonKeyFinder::OverBudget() {
  if (aborted_) return true;
  // A relaxed load per Visit is noise next to the traversal work, so the
  // cancellation flag — unlike the clock — is polled unamortized: a
  // cancelled service job should unwind promptly.
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
  if ((++visit_tick_ & 0xFFF) == 0 && options_.time_budget_seconds > 0 &&
      budget_watch_.ElapsedSeconds() > options_.time_budget_seconds) {
    aborted_ = true;
    abort_reason_ = AbortReason::kTimeBudget;
  }
  return aborted_;
}

bool FrozenNonKeyFinder::FutilityCovered(const AttributeSet& probe) {
  if (warm_cover_ != nullptr && warm_cover_->CoversSet(probe)) {
    if (stats_ != nullptr) ++stats_->warm_start_prunes;
    return true;
  }
  return non_keys_->CoversSet(probe);
}

inline FrozenNonKeyFinder::NodeView FrozenNonKeyFinder::View(NodeRef r) {
  if (!r.arena) {
    return NodeView{&tree_.level_mutable(r.level), nullptr, r.index, r.level};
  }
  ArenaLevel& al = arena_[r.level];
  return NodeView{&al.nodes, r.level + 1 < depth_ ? al.child.data() : nullptr,
                  r.index, r.level};
}

void FrozenNonKeyFinder::ProcessLeaf(NodeRef node, int level) {
  const int attr = tree_.attribute_at_level(level);
  // Lines 3-8: a duplicate within the current projection (count > 1) makes
  // curNonKey, including this level's attribute, a non-key.
  if (observer_ != nullptr) observer_->OnSegment(cur_non_key_);
  const NodeView v = View(node);
  const int64_t* count = v.count();
  const size_t num_cells = v.num_cells();
  if (frozen_simd::AnyCountNotOne(count, num_cells)) {
    if (observer_ != nullptr) observer_->OnNonKey(cur_non_key_);
    non_keys_->Insert(cur_non_key_);
  }
  // Lines 9-12: project out the leaf attribute; if the slice then holds
  // more than one entity (several cells, or one cell with count > 1), the
  // remaining prefix is a non-key.
  cur_non_key_.Reset(attr);
  if (observer_ != nullptr) observer_->OnSegment(cur_non_key_);
  if (num_cells > 1 || (num_cells == 1 && count[0] > 1)) {
    if (observer_ != nullptr) observer_->OnNonKey(cur_non_key_);
    non_keys_->Insert(cur_non_key_);
  }
}

void FrozenNonKeyFinder::Visit(NodeRef node, int level) {
  if (stats_ != nullptr) ++stats_->nodes_visited;
  if (OverBudget()) return;
  const int attr = tree_.attribute_at_level(level);
  assert(!cur_non_key_.Test(attr));
  cur_non_key_.Set(attr);  // line 1: append attrNo to curNonKey

  if (level == depth_ - 1) {
    ProcessLeaf(node, level);  // also removes attr from cur_non_key_
    return;
  }

  // Nothing below appends at this level, so the view stays valid.
  const NodeView v = View(node);

  // Line 14: a slice holding a single entity cannot yield a non-key.
  if (options_.single_entity_pruning && v.entity_total() == 1) {
    if (stats_ != nullptr) ++stats_->single_entity_prunes;
    if (observer_ != nullptr) observer_->OnPrune("single-entity", level);
    cur_non_key_.Reset(attr);
    return;
  }

  // Lines 17-21: visit children depth-first, skipping shared (previously
  // traversed) subtrees — singleton pruning, Figure 10(a).
  const size_t num_cells = v.num_cells();
  for (size_t k = 0; k < num_cells; ++k) {
    if (aborted_) break;
    const NodeRef child = v.Child(k);
    if (options_.singleton_pruning && View(child).ref() > 1) {
      if (stats_ != nullptr) ++stats_->singleton_traversal_prunes;
      if (observer_ != nullptr) observer_->OnPrune("singleton", level);
      continue;
    }
    Visit(child, level + 1);
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
  if (num_cells <= 1) {
    if (num_cells == 1) {
      if (stats_ != nullptr) ++stats_->singleton_merge_prunes;
      if (observer_ != nullptr) observer_->OnPrune("singleton-merge", level);
    }
    return;
  }

  // Line 24: futility test — the largest non-key the merged subtree could
  // produce is cur_non_key_ | suffix_attrs_[level + 1]; if an already
  // discovered non-key covers it, everything below is redundant.
  if (options_.futility_pruning &&
      FutilityCovered(cur_non_key_ |
                      suffix_attrs_[static_cast<size_t>(level) + 1])) {
    if (stats_ != nullptr) ++stats_->futility_prunes;
    if (observer_ != nullptr) observer_->OnPrune("futility", level);
    return;
  }

  MarkArena(level);
  const NodeRef merged = MergeChildren(v, level);
  if (observer_ != nullptr) observer_->OnMerge(level);
  Visit(merged, level + 1);
  ReleaseArena(level);  // line 29: discard the merged tree
}

void FrozenNonKeyFinder::MarkArena(int level) {
  uint32_t* mark = &node_marks_[static_cast<size_t>(level * depth_)];
  for (int l = level + 1; l < depth_; ++l) {
    mark[l] = static_cast<uint32_t>(
        arena_[static_cast<size_t>(l)].nodes.num_nodes());
  }
}

void FrozenNonKeyFinder::ReleaseArena(int level) {
  // Every merge nested in the visit of the merged tree was released first,
  // so the arena past the marks is exactly that tree. A merge makes nodes
  // at a level only below the nodes it makes one level up, so the first
  // level it left untouched ends the tree.
  const uint32_t* mark = &node_marks_[static_cast<size_t>(level * depth_)];
  int end = level + 1;
  for (; end < depth_; ++end) {
    const ArenaLevel& al = arena_[static_cast<size_t>(end)];
    if (al.nodes.num_nodes() == mark[end]) break;
    if (end + 1 == depth_) continue;
    // Each cell holds one reference to its child: a node of the tree, which
    // goes, or an older node it shares, whose count drops back.
    for (size_t k = al.nodes.cell_begin[mark[end]]; k < al.child.size(); ++k) {
      int32_t& rc = View(al.child[k]).ref();
      assert(rc > 0);
      --rc;
    }
  }
  for (int l = level + 1; l < end; ++l) {
    ArenaLevel& al = arena_[static_cast<size_t>(l)];
    FrozenTree::Level& lv = al.nodes;
    const uint32_t nodes = mark[l];
    const uint32_t cells = lv.cell_begin[nodes];
    lv.cell_begin.resize(nodes + 1);
    lv.code.resize(cells);
    lv.count.resize(cells);
    lv.entity_total.resize(nodes);
    lv.ref.resize(nodes);
    if (l + 1 < depth_) al.child.resize(cells);
  }
}

inline void FrozenNonKeyFinder::Share(NodeRef r) { ++View(r).ref(); }

inline void FrozenNonKeyFinder::AppendCell(int level, uint32_t code,
                                           int64_t count, NodeRef child) {
  ArenaLevel& al = arena_[static_cast<size_t>(level)];
  al.nodes.code.push_back(code);
  al.nodes.count.push_back(count);
  if (level + 1 < depth_) al.child.push_back(child);
}

inline FrozenNonKeyFinder::NodeRef FrozenNonKeyFinder::CloseNode(
    int level, int64_t entity_total) {
  FrozenTree::Level& lv = arena_[static_cast<size_t>(level)].nodes;
  assert(lv.num_cells() < UINT32_MAX && lv.num_nodes() < UINT32_MAX);
  const uint32_t index = static_cast<uint32_t>(lv.num_nodes());
  lv.cell_begin.push_back(static_cast<uint32_t>(lv.num_cells()));
  lv.entity_total.push_back(entity_total);
  lv.ref.push_back(1);
  if (stats_ != nullptr) ++stats_->merge_nodes_created;
  return NodeRef{index, static_cast<uint16_t>(level), true};
}

FrozenNonKeyFinder::NodeRef FrozenNonKeyFinder::MergeChildren(
    const NodeView& node, int level) {
  child_buf_.clear();
  const size_t num_cells = node.num_cells();
  for (size_t k = 0; k < num_cells; ++k) child_buf_.push_back(node.Child(k));
  return MergeRefs(child_buf_.data(), child_buf_.size(), level + 1, 0);
}

FrozenNonKeyFinder::NodeRef FrozenNonKeyFinder::MergeRefs(
    const NodeRef* inputs, size_t n, int level, size_t depth) {
  assert(n > 0);
  if (stats_ != nullptr) ++stats_->merges_performed;
  if (n == 1) {
    // Algorithm 3, lines 1-2: nothing to merge; share the node.
    Share(inputs[0]);
    return inputs[0];
  }
  if (n == 2 && !inputs[0].arena && !inputs[1].arena) {
    return MergePairFrozen(level, inputs[0].index, inputs[1].index);
  }
  // Every code an n-way merge at `level` can see is a frozen code of that
  // level (merge outputs only union them), so level(level).max_code bounds
  // the whole domain. Dictionary codes are dense, which keeps the
  // code-indexed tables proportional to the level itself; pathologically
  // sparse domains fall back to the sort-based union.
  const FrozenTree::Level& lv = tree_.level(level);
  if (static_cast<size_t>(lv.max_code) <= 4 * lv.num_cells() + 1024) {
    return MergeDirect(inputs, n, level, depth);
  }
  return MergeSorted(inputs, n, level, depth);
}

// The branch-light fast path: a 2-way union of two frozen spans. Distinct
// codes are located with a galloping (SIMD-scanned) lower bound and copied
// as whole runs — each copied cell shares its frozen child, which is what a
// 1-input merge would have produced, so the counters advance identically to
// the general path.
FrozenNonKeyFinder::NodeRef FrozenNonKeyFinder::MergePairFrozen(int level,
                                                                uint32_t a,
                                                                uint32_t b) {
  // Frozen levels never grow during a traversal, so these stay valid while
  // the output is appended to the arena.
  const FrozenTree::Level& lv = tree_.level(level);
  const bool leaf = (level == depth_ - 1);
  const uint32_t* code = lv.code.data();
  const int64_t* count = lv.count.data();
  size_t i = lv.cell_begin[a];
  const size_t ie = lv.cell_begin[a + 1];
  size_t j = lv.cell_begin[b];
  const size_t je = lv.cell_begin[b + 1];
  const uint16_t child_level = static_cast<uint16_t>(level + 1);
  int64_t total = 0;

  auto copy_run = [&](size_t from, size_t to) {
    for (size_t k = from; k < to; ++k) {
      const NodeRef child{static_cast<uint32_t>(k), child_level, false};
      if (!leaf) Share(child);
      AppendCell(level, code[k], count[k], child);
      total += count[k];
    }
    if (!leaf && stats_ != nullptr) {
      stats_->merges_performed += static_cast<int64_t>(to - from);
    }
  };

  while (i < ie && j < je) {
    const uint32_t ci = code[i], cj = code[j];
    if (ci == cj) {
      NodeRef child{};
      if (!leaf) {
        if (stats_ != nullptr) ++stats_->merges_performed;
        child = MergePairFrozen(level + 1, static_cast<uint32_t>(i),
                                static_cast<uint32_t>(j));
      }
      AppendCell(level, ci, count[i] + count[j], child);
      total += count[i] + count[j];
      ++i;
      ++j;
    } else if (ci < cj) {
      const size_t k =
          i + 1 + frozen_simd::LowerBound(code + i + 1, ie - i - 1, cj);
      copy_run(i, k);
      i = k;
    } else {
      const size_t k =
          j + 1 + frozen_simd::LowerBound(code + j + 1, je - j - 1, ci);
      copy_run(j, k);
      j = k;
    }
  }
  copy_run(i, ie);
  copy_run(j, je);
  return CloseNode(level, total);
}

// Comparison-free n-way union: bucket every input cell by dictionary code
// (counts accumulate in place), then scatter children into per-code runs.
// O(cells + distinct log distinct) versus the sort path's
// O(cells log cells) — and when the code table is small relative to the
// input (the dense mode, typical at the low-cardinality levels where merges
// concentrate) the distinct-code sort disappears too and the whole union is
// linear. Counter discipline is identical to MergeSorted: one node per
// union, one merges_performed bump per output cell (the would-be MergeRefs
// call, 1-input shares included), and runs keep gather order.
FrozenNonKeyFinder::NodeRef FrozenNonKeyFinder::MergeDirect(
    const NodeRef* inputs, size_t n, int level, size_t depth) {
  const bool leaf = (level == depth_ - 1);
  MergeLevelScratch& sc = ScratchAt(depth);
  const size_t table = static_cast<size_t>(tree_.level(level).max_code) + 1;
  if (sc.code_mult.size() < table) {
    // New entries are zeroed here and re-zeroed after every merge, so the
    // tables are always all-zero on entry.
    sc.code_mult.resize(table, 0);
    sc.code_acc.resize(table, 0);
    sc.code_pos.resize(table, 0);
  }
  // Recursive merges use deeper scratch levels, so these stay valid across
  // the MergeRefs calls below.
  int32_t* mult = sc.code_mult.data();
  int64_t* acc = sc.code_acc.data();
  uint32_t* cursor = sc.code_pos.data();

  // The inputs are read only here, before the output is written.
  size_t total_cells = 0;
  for (size_t t = 0; t < n; ++t) total_cells += View(inputs[t]).num_cells();

  // Dense mode: the table is no bigger than a few times the input, so
  // walking it beats tracking and sorting the distinct codes.
  const bool dense = table <= 4 * total_cells + 16;
  if (dense) {
    for (size_t t = 0; t < n; ++t) {
      const NodeView v = View(inputs[t]);
      const uint32_t* code = v.code();
      const int64_t* count = v.count();
      for (size_t k = 0, e = v.num_cells(); k < e; ++k) {
        ++mult[code[k]];
        acc[code[k]] += count[k];
      }
    }
  } else {
    sc.distinct.clear();
    for (size_t t = 0; t < n; ++t) {
      const NodeView v = View(inputs[t]);
      const uint32_t* code = v.code();
      const int64_t* count = v.count();
      for (size_t k = 0, e = v.num_cells(); k < e; ++k) {
        if (mult[code[k]]++ == 0) sc.distinct.push_back(code[k]);
        acc[code[k]] += count[k];
      }
    }
    std::sort(sc.distinct.begin(), sc.distinct.end());
  }

  if (!leaf) {
    // Prefix-sum the multiplicities into scatter cursors, then group every
    // gathered child into its code's run.
    uint32_t pos = 0;
    if (dense) {
      for (size_t c = 0; c < table; ++c) {
        cursor[c] = pos;
        pos += static_cast<uint32_t>(mult[c]);
      }
    } else {
      for (uint32_t c : sc.distinct) {
        cursor[c] = pos;
        pos += static_cast<uint32_t>(mult[c]);
      }
    }
    sc.run_children.resize(total_cells);
    NodeRef* runs = sc.run_children.data();
    for (size_t t = 0; t < n; ++t) {
      const NodeView v = View(inputs[t]);
      const uint32_t* code = v.code();
      for (size_t k = 0, e = v.num_cells(); k < e; ++k) {
        runs[cursor[code[k]]++] = v.Child(k);
      }
    }
  }

  int64_t total = 0;
  auto emit = [&](uint32_t c) {
    NodeRef child{};
    if (!leaf) {
      const uint32_t m = static_cast<uint32_t>(mult[c]);
      const NodeRef* run = sc.run_children.data() + (cursor[c] - m);
      if (m == 1) {
        // The MergeRefs n == 1 share, inlined: this is by far the most
        // common run shape, and skipping the call keeps the emit loop
        // tight.
        if (stats_ != nullptr) ++stats_->merges_performed;
        Share(run[0]);
        child = run[0];
      } else {
        child = MergeRefs(run, m, level + 1, depth + 1);
      }
    }
    AppendCell(level, c, acc[c], child);
    total += acc[c];
    mult[c] = 0;  // restore the all-zero invariant for reuse
    acc[c] = 0;
  };
  if (dense) {
    for (size_t c = 0; c < table; ++c) {
      if (mult[c] != 0) emit(static_cast<uint32_t>(c));
    }
  } else {
    for (uint32_t c : sc.distinct) emit(c);
  }
  return CloseNode(level, total);
}

FrozenNonKeyFinder::NodeRef FrozenNonKeyFinder::MergeSorted(
    const NodeRef* inputs, size_t n, int level, size_t depth) {
  const bool leaf = (level == depth_ - 1);
  MergeLevelScratch& sc = ScratchAt(depth);
  sc.keys.clear();
  sc.counts.clear();
  sc.children.clear();

  // Gather every input cell as a packed (code, gather-index) sort key with
  // parallel count/child arrays: sorting the keys groups equal codes, and
  // the gather index finds each cell's count and child again. The inputs
  // are read only here, before the output is written.
  uint32_t gi = 0;
  for (size_t t = 0; t < n; ++t) {
    const NodeView v = View(inputs[t]);
    const uint32_t* code = v.code();
    const int64_t* count = v.count();
    const size_t num_cells = v.num_cells();
    assert(num_cells < UINT32_MAX - gi);
    for (size_t k = 0; k < num_cells; ++k) {
      sc.keys.push_back((static_cast<uint64_t>(code[k]) << 32) | gi++);
      sc.counts.push_back(count[k]);
      if (!leaf) sc.children.push_back(v.Child(k));
    }
  }
  std::sort(sc.keys.begin(), sc.keys.end());

  int64_t total = 0;
  size_t i = 0;
  while (i < sc.keys.size()) {
    const uint32_t c = static_cast<uint32_t>(sc.keys[i] >> 32);
    int64_t count = 0;
    sc.run.clear();
    for (; i < sc.keys.size() && (sc.keys[i] >> 32) == c; ++i) {
      const uint32_t src = static_cast<uint32_t>(sc.keys[i]);
      count += sc.counts[src];
      if (!leaf) sc.run.push_back(sc.children[src]);
    }
    NodeRef child{};
    if (!leaf) {
      child = MergeRefs(sc.run.data(), sc.run.size(), level + 1, depth + 1);
    }
    AppendCell(level, c, count, child);
    total += count;
  }
  return CloseNode(level, total);
}

}  // namespace gordian
