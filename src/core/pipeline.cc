#include "core/pipeline.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/random.h"
#include "common/stopwatch.h"
#include "core/key_conversion.h"
#include "core/non_key_set.h"
#include "core/strength.h"

namespace gordian {

namespace {

// Non-keys are reported in this canonical order (cardinality, then bitset
// order — the same ordering NonKeysToKeys returns keys in): the discovered
// antichain's *content* is fixed by the data, but its insertion order
// depends on the attribute order and on warm-start seeding.
void CanonicalizeNonKeys(std::vector<AttributeSet>* non_keys) {
  std::sort(non_keys->begin(), non_keys->end(),
            [](const AttributeSet& a, const AttributeSet& b) {
              const int ca = a.Count(), cb = b.Count();
              if (ca != cb) return ca < cb;
              return a < b;
            });
}

std::vector<int> ComputeAttributeOrder(const Table& table,
                                       const GordianOptions& options) {
  const int d = table.num_columns();
  std::vector<int> order(d);
  std::iota(order.begin(), order.end(), 0);
  switch (options.attribute_order) {
    case GordianOptions::AttributeOrder::kSchema:
      break;
    case GordianOptions::AttributeOrder::kCardinalityDesc:
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return table.ColumnCardinality(a) > table.ColumnCardinality(b);
      });
      break;
    case GordianOptions::AttributeOrder::kCardinalityAsc:
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return table.ColumnCardinality(a) < table.ColumnCardinality(b);
      });
      break;
    case GordianOptions::AttributeOrder::kRandom: {
      Random rng(options.order_seed);
      for (int i = d - 1; i > 0; --i) {
        std::swap(order[i],
                  order[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
      }
      break;
    }
  }
  return order;
}

// Column positions containing at least one NULL. A spilled column answers
// from its per-chunk null stats (no data scan); a resident column scans
// until the first null.
std::vector<int> NullableColumns(const Table& table) {
  std::vector<int> nullable;
  for (int c = 0; c < table.num_columns(); ++c) {
    uint32_t null_code = table.dictionary(c).Lookup(Value::Null());
    if (null_code == UINT32_MAX) continue;
    const CodeColumn& codes = table.column_codes(c);
    if (codes.spilled()) {
      if (codes.CountEqual(null_code) > 0) nullable.push_back(c);
      continue;
    }
    for (uint32_t code : codes) {
      if (code == null_code) {
        nullable.push_back(c);
        break;
      }
    }
  }
  return nullable;
}

}  // namespace

void EncodeStage(ProfileContext* ctx) {
  const Table& table = *ctx->input;
  const int d = table.num_columns();
  ctx->result.stats.num_attributes = d;
  if (d == 0) {
    ctx->finished = true;
    return;
  }

  // SQL-style null handling: bar nullable columns from the search entirely,
  // then lift the results of the projection back to original positions. The
  // projection is profiled by a nested session running the same stages.
  if (ctx->options.null_semantics ==
      GordianOptions::NullSemantics::kExcludeNullableColumns) {
    std::vector<int> nullable = NullableColumns(table);
    if (!nullable.empty()) {
      std::vector<int> kept;
      size_t ni = 0;
      for (int c = 0; c < d; ++c) {
        if (ni < nullable.size() && nullable[ni] == c) {
          ++ni;
        } else {
          kept.push_back(c);
        }
      }
      if (kept.empty()) {  // nothing can be a key
        ctx->finished = true;
        return;
      }
      GordianOptions inner = ctx->options;
      inner.null_semantics = GordianOptions::NullSemantics::kNullEqualsNull;
      Table projected_table = table.SelectColumns(kept);
      ProfileSession nested(inner);
      KeyDiscoveryResult projected;
      (void)nested.Run(projected_table, &projected);
      auto remap = [&](const AttributeSet& attrs) {
        AttributeSet out;
        attrs.ForEach([&](int a) { out.Set(kept[a]); });
        return out;
      };
      for (DiscoveredKey& k : projected.keys) k.attrs = remap(k.attrs);
      for (AttributeSet& nk : projected.non_keys) nk = remap(nk);
      projected.stats.num_attributes = d;
      ctx->result = std::move(projected);
      ctx->finished = true;
      return;
    }
  }

  // Optional sampling phase (Section 3.9).
  ctx->data = &table;
  if (ctx->options.sample_rows > 0 &&
      ctx->options.sample_rows < table.num_rows()) {
    ctx->sample_storage =
        table.SampleRows(ctx->options.sample_rows, ctx->options.sample_seed);
    ctx->data = &ctx->sample_storage;
    ctx->result.sampled = true;
  }
  ctx->result.stats.rows_processed = ctx->data->num_rows();

  if (ctx->Cancelled()) {
    ctx->result.incomplete = true;
    ctx->result.incomplete_reason = AbortReason::kCancelled;
    ctx->finished = true;
    return;
  }

  ctx->attr_order = ComputeAttributeOrder(*ctx->data, ctx->options);
}

void TreeBuildStage(ProfileContext* ctx) {
  Stopwatch watch;
  KeyDiscoveryResult& result = ctx->result;
  if (ctx->frozen != nullptr) {
    // A frozen tree was injected (TreeArtifactCache hit, or an absorbed
    // tree being re-profiled). It holds exactly the data this stage would
    // have built from; assert the level order agrees.
    assert(ctx->frozen->attr_order() == ctx->attr_order &&
           "shared tree was built under a different attribute order");
  } else {
    ctx->owned_frozen = FrozenTree::Build(*ctx->data, ctx->attr_order);
    ctx->frozen = ctx->owned_frozen.get();
    ctx->build_scratch_bytes =
        FrozenTree::BuildScratchBytes(ctx->data->num_rows());
  }
  result.stats.build_seconds = watch.ElapsedSeconds();
  result.stats.base_tree_nodes = ctx->frozen->node_count();
  result.stats.base_tree_cells = ctx->frozen->cell_count();
  result.stats.frozen_tree_bytes = ctx->frozen->ApproxBytes();
  // The build phase's footprint; TraverseStage raises it when the
  // traversal holds more than the build's scratch did.
  result.stats.peak_memory_bytes =
      result.stats.frozen_tree_bytes + ctx->build_scratch_bytes;

  if (ctx->frozen->has_duplicate_entities()) {
    // Algorithm 2, lines 17-18: a repeated entity means no key exists.
    result.no_keys = true;
    result.non_keys.push_back(
        AttributeSet::FirstN(static_cast<int>(result.stats.num_attributes)));
    ctx->finished = true;
    return;
  }

  if (ctx->Cancelled()) {
    result.incomplete = true;
    result.incomplete_reason = AbortReason::kCancelled;
    ctx->finished = true;
  }
}

void TraverseStage(ProfileContext* ctx) {
  Stopwatch watch;
  KeyDiscoveryResult& result = ctx->result;
  NonKeySet non_key_set(&result.stats);
  // Warm start (incremental re-profiles): the prior run's non-keys are
  // genuine non-keys of the appended table, so they seed the working set —
  // keeping the final antichain complete — and double as a read-only cover
  // the futility test consults first, pruning already-settled regions.
  const std::vector<AttributeSet>* warm_seeds =
      ctx->options.warm_start_non_keys;
  const bool warm = warm_seeds != nullptr && !warm_seeds->empty();
  NonKeySet warm_set(nullptr);
  if (warm) {
    for (const AttributeSet& nk : *warm_seeds) {
      warm_set.Insert(nk);
      non_key_set.Insert(nk);
    }
    result.stats.warm_start_seeds += static_cast<int64_t>(warm_seeds->size());
  }
  // The tree's agree sets are genuine non-keys too, so they seed the working
  // set the same way; they stay out of the warm cover, whose prunes count
  // only what a prior run settled.
  if (ctx->options.agree_set_seeding) {
    const std::vector<AttributeSet>& seeds = ctx->frozen->agree_seeds();
    for (const AttributeSet& nk : seeds) non_key_set.Insert(nk);
    result.stats.agree_seeds += static_cast<int64_t>(seeds.size());
  }
  FrozenNonKeyFinder finder(*ctx->frozen, ctx->options, &non_key_set,
                            &result.stats);
  if (warm) finder.SetWarmCover(&warm_set);
  result.incomplete = !finder.Run();
  result.incomplete_reason = finder.abort_reason();
  result.stats.final_non_keys = non_key_set.size();
  result.non_keys = non_key_set.non_keys();

  CanonicalizeNonKeys(&result.non_keys);
  result.stats.find_seconds = watch.ElapsedSeconds();
  // The frozen arrays live throughout; the build's scratch is gone before
  // the first merge, so the larger of the two phases sits on top of them.
  // The merge arena only grows, so its final size is its high-water mark.
  result.stats.peak_memory_bytes =
      ctx->frozen->ApproxBytes() +
      std::max(ctx->build_scratch_bytes,
               finder.ArenaBytes() + non_key_set.ApproxBytes());
  // A partial non-key set cannot certify keys: later stages must not run.
  if (result.incomplete) ctx->finished = true;
}

void ConvertStage(ProfileContext* ctx) {
  Stopwatch watch;
  std::vector<AttributeSet> keys =
      NonKeysToKeys(ctx->result.non_keys,
                    static_cast<int>(ctx->result.stats.num_attributes));
  ctx->result.stats.convert_seconds = watch.ElapsedSeconds();
  ctx->result.keys.reserve(keys.size());
  for (const AttributeSet& k : keys) {
    DiscoveredKey dk;
    dk.attrs = k;
    ctx->result.keys.push_back(dk);
  }
}

void ValidateStage(ProfileContext* ctx) {
  for (DiscoveredKey& k : ctx->result.keys) {
    k.estimated_strength =
        ctx->result.sampled ? EstimatedStrengthLowerBound(*ctx->data, k.attrs)
                            : 1.0;
    if (!ctx->result.sampled) k.exact_strength = 1.0;
  }
}

void RunStages(ProfileContext* ctx, void (*first)(ProfileContext*),
               std::vector<StageMetric>* metrics) {
  static constexpr struct {
    const char* name;
    void (*run)(ProfileContext*);
  } kStages[] = {{"encode", EncodeStage},
                 {"tree_build", TreeBuildStage},
                 {"traverse", TraverseStage},
                 {"convert", ConvertStage},
                 {"validate", ValidateStage}};
  bool started = false;
  for (const auto& stage : kStages) {
    started = started || stage.run == first;
    if (!started) continue;
    Stopwatch watch;
    stage.run(ctx);
    if (metrics != nullptr) {
      StageMetric m;
      m.name = stage.name;
      m.seconds = watch.ElapsedSeconds();
      // Dominant footprint per stage; see StageMetric.
      if (stage.run == EncodeStage) {
        m.rows = ctx->result.stats.rows_processed;
        if (ctx->result.sampled) m.bytes = ctx->sample_storage.ApproxBytes();
      } else if (stage.run == TreeBuildStage && ctx->frozen != nullptr) {
        m.bytes = ctx->frozen->ApproxBytes();
      } else if (stage.run == TraverseStage) {
        m.bytes = ctx->result.stats.peak_memory_bytes;
      }
      metrics->push_back(std::move(m));
    }
    if (ctx->finished) break;
  }
}

Status ProfileSession::Run(const Table& table, KeyDiscoveryResult* out) {
  FrozenTree* injected = shared_frozen_;
  shared_frozen_ = nullptr;  // one Run per injection
  metrics_.clear();
  built_frozen_.reset();
  cold_input_ = nullptr;
  cold_order_.clear();
  if (table.num_columns() > AttributeSet::kMaxAttributes) {
    // Attribute sets are fixed-width bitmaps: no stage can address the
    // columns past the limit.
    *out = KeyDiscoveryResult{};
    out->incomplete = true;
    out->incomplete_reason = AbortReason::kTooManyAttributes;
    out->stats.num_attributes = table.num_columns();
    return Status::InvalidArgument(
        "table has " + std::to_string(table.num_columns()) +
        " columns; at most " + std::to_string(AttributeSet::kMaxAttributes) +
        " are supported");
  }

  ProfileContext ctx;
  ctx.input = &table;
  ctx.options = options_;
  ctx.frozen = injected;
  RunStages(&ctx, EncodeStage, &metrics_);
  if (ctx.owned_frozen != nullptr && !ctx.result.sampled) {
    cold_input_ = &table;
    cold_order_ = ctx.attr_order;
  }
  built_frozen_ = std::move(ctx.owned_frozen);
  *out = std::move(ctx.result);
  return Status::OK();
}

std::unique_ptr<PrefixTree> ProfileSession::TakeTree() {
  if (cold_input_ == nullptr) return nullptr;
  auto tree = std::make_unique<PrefixTree>(PrefixTree::Build(
      *cold_input_, cold_order_, GordianOptions::TreeBuild::kSorted));
  cold_input_ = nullptr;
  cold_order_.clear();
  return tree;
}

}  // namespace gordian
