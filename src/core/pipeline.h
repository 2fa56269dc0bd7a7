#ifndef GORDIAN_CORE_PIPELINE_H_
#define GORDIAN_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/frozen_tree.h"
#include "core/gordian.h"
#include "core/options.h"
#include "core/prefix_tree.h"
#include "table/table.h"

namespace gordian {

// The staged profiling pipeline. GORDIAN's run is naturally phased — encode
// the entities (sampling, null handling, attribute ordering), build the
// prefix tree (Algorithm 2, written straight into the frozen layout from
// the sorted rows), traverse it for non-keys
// (Algorithm 4), convert non-keys to keys (Algorithm 6), attach strengths
// (Section 3.9) — and this module makes the phases explicit: each is a
// stage function over a ProfileContext, and a ProfileSession runs the five
// of them in order, recording per-stage wall time and bytes.
//
// FindKeys, StreamingProfiler::Finish, the profiling service, and the engine
// advisor all run a ProfileSession; they differ only in how the context is
// seeded (most importantly, whether a frozen tree is injected from the
// service's TreeArtifactCache, letting a job skip the build).
// ReprofileTree (core/incremental.h) seeds the context by hand and runs the
// stages from TreeBuildStage on. Results are byte-identical across all of
// these paths.

// Wall time, bytes, and rows attributed to one executed stage. `bytes` is
// the stage's dominant footprint: the sample's heap for encode, the frozen
// tree for build, the run's peak for traversal; 0 when nothing meaningful
// applies. `rows` is the row count the stage operated on (set by encode:
// the rows actually profiled after sampling).
struct StageMetric {
  std::string name;
  double seconds = 0;
  int64_t bytes = 0;
  int64_t rows = 0;
};

// Shared state threaded through the stages of one profiling run. Owns the
// result under construction plus every intermediate the stages exchange.
// Not copyable (it owns the tree it builds); lives on the session's stack.
struct ProfileContext {
  // Inputs, set by ProfileSession::Run before the first stage.
  const Table* input = nullptr;
  GordianOptions options;

  // EncodeStage outputs: the data actually profiled (the input table or the
  // sample held in `sample_storage`) and the attribute -> tree-level order.
  const Table* data = nullptr;
  Table sample_storage;
  std::vector<int> attr_order;

  // TreeBuildStage outputs. `frozen` is either injected before the stage
  // runs (ProfileSession::set_shared_frozen_tree — a TreeArtifactCache hit
  // — or ReprofileTree's absorbed tree), or the stage builds `owned_frozen`
  // with FrozenTree::Build, whose scratch bytes it records in
  // `build_scratch_bytes` (0 for an injected tree). TraverseStage runs
  // FrozenNonKeyFinder over `frozen`; the finder keeps its merge
  // intermediates in its own arena.
  std::unique_ptr<FrozenTree> owned_frozen;
  FrozenTree* frozen = nullptr;
  int64_t build_scratch_bytes = 0;

  // The result being assembled. A stage that concludes the run (duplicate
  // entities, cancellation, aborted traversal, null-projection hand-off)
  // sets `finished`; the session then skips the remaining stages.
  KeyDiscoveryResult result;
  bool finished = false;

  bool Cancelled() const {
    return options.cancel_flag != nullptr &&
           options.cancel_flag->load(std::memory_order_relaxed);
  }
};

// The five stages, in execution order. Each mutates the context; one that
// concludes the run sets ctx->finished, and the caller then skips the rest.

// Sampling (Section 3.9), SQL-style null projection, attribute ordering,
// and the pre-build cancellation check. When null semantics exclude nullable
// columns, this stage runs a nested session over the projected table and
// lifts the results back — concluding the run.
void EncodeStage(ProfileContext* ctx);

// Algorithm 2: builds the frozen prefix tree from the sorted rows
// (FrozenTree::Build) unless one was injected, then concludes the run on
// duplicate entities or cancellation.
void TreeBuildStage(ProfileContext* ctx);

// Algorithm 4: FrozenNonKeyFinder over the frozen tree, warm-started from
// options.warm_start_non_keys when given. Non-keys come out in a canonical
// order (cardinality, then bitset order), so reports never depend on the
// traversal's discovery order.
void TraverseStage(ProfileContext* ctx);

// Algorithm 6: maximal non-keys -> minimal keys.
void ConvertStage(ProfileContext* ctx);

// Attaches strengths: exact 1.0 for full-data runs, the T(K) lower bound
// for sampled runs (Section 3.9).
void ValidateStage(ProfileContext* ctx);

// Runs the stages in order from `first` (EncodeStage for a fresh context,
// TreeBuildStage for one seeded by hand with EncodeStage's outputs),
// stopping after one concludes the run. Appends each executed stage's
// StageMetric to *metrics when it is non-null.
void RunStages(ProfileContext* ctx, void (*first)(ProfileContext*),
               std::vector<StageMetric>* metrics);

// Runs the five stages over one table. Reusable: each Run resets the
// context.
//
//   ProfileSession session(options);
//   KeyDiscoveryResult r;
//   Status s = session.Run(table, &r);
//   for (const StageMetric& m : session.stage_metrics()) ...
class ProfileSession {
 public:
  explicit ProfileSession(const GordianOptions& options)
      : options_(options) {}

  // Injects a prebuilt frozen tree for the next Run (a TreeArtifactCache
  // hit): TreeBuildStage skips the build. The tree's traversal-mutable
  // reference counts are restored before Run returns, so it comes back
  // byte-identical. It must match the table/options this session profiles
  // (same data, sample spec, attribute order) and must not be used
  // concurrently by another run. Cleared after Run.
  void set_shared_frozen_tree(FrozenTree* frozen) { shared_frozen_ = frozen; }

  // Runs every stage in order (stopping early when a stage concludes the
  // run) and moves the result into *out. No stage fails. A table wider than
  // AttributeSet::kMaxAttributes runs no stage: *out is then an incomplete
  // result (AbortReason::kTooManyAttributes) that certifies no key, and the
  // Status is InvalidArgument.
  Status Run(const Table& table, KeyDiscoveryResult* out);

  // Per-stage wall/bytes of the last Run, in execution order.
  const std::vector<StageMetric>& stage_metrics() const { return metrics_; }

  // The pointer tree of the last cold run, built when called: PrefixTree's
  // sorted build over that run's input table, which must still be alive,
  // in that run's attribute order. nullptr after a run over an injected
  // tree, a sampled run, a run that built no tree, and a second call.
  // Nothing in the library calls it; perfbench's csv_cold set-up reads the
  // attribute order from it. Once csv_cold builds with FrozenTree::Build
  // and reads TakeFrozenTree(), this, PrefixTree::Build and
  // FrozenTree::Freeze move to tests/oracle/.
  std::unique_ptr<PrefixTree> TakeTree();

  // The frozen tree the last Run built. Every cold run ends with one,
  // duplicate-entity and cancelled runs included. nullptr when a tree was
  // injected, the run concluded before the build (null-projection
  // hand-off, cancellation during encode), or it was already taken.
  std::unique_ptr<FrozenTree> TakeFrozenTree() {
    return std::move(built_frozen_);
  }

 private:
  GordianOptions options_;
  FrozenTree* shared_frozen_ = nullptr;
  std::vector<StageMetric> metrics_;
  std::unique_ptr<FrozenTree> built_frozen_;
  // Input table and attribute order of the last cold, unsampled run, which
  // TakeTree rebuilds from; null otherwise.
  const Table* cold_input_ = nullptr;
  std::vector<int> cold_order_;
};

}  // namespace gordian

#endif  // GORDIAN_CORE_PIPELINE_H_
