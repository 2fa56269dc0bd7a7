#ifndef GORDIAN_SERVICE_METRICS_H_
#define GORDIAN_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "core/pipeline.h"

namespace gordian {

// Every counter the profiling service keeps, in the order
// FormatServiceMetrics prints them. Times are whole microseconds.
enum class Counter {
  kJobsSubmitted,
  kJobsCompleted,
  kJobsCancelled,
  kJobsFailed,
  kCacheHits,
  kCacheMisses,
  kCoalescedJobs,
  kTreeCacheHits,
  kTreeCacheMisses,
  // Frozen trees built by tree-cache misses (FrozenTree::Build).
  kTreesFrozen,
  kBuildMicros,
  kFrozenTreeBytes,
  kFrozenTreeNodes,
  // CatalogStore flushes, and the shards its Open loaded or quarantined.
  kCatalogFlushes,
  kShardsFlushed,
  kDirtyShardSkips,
  kCatalogFlushBytes,
  kShardsRecovered,
  kShardsQuarantined,
  // AppendAndReprofile; refreeze times FrozenTree::Absorb of a cached tree.
  kAppends,
  kAppendAbsorbs,
  kDeltaRows,
  kWarmStartPrunes,
  kRefreezeMicros,
  // CSV ingest (see IngestStats).
  kIngestBatches,
  kIngestRows,
  kIngestBytes,
  // TableArtifactStore puts (with on-disk bytes), serves and failures.
  kArtifactPuts,
  kArtifactPutBytes,
  kArtifactPutErrors,
  kArtifactServes,
  kArtifactGetErrors,
  // Frames with their header + payload bytes, backpressure sheds, forwards
  // retried after transport failures, and workers seen down then back up.
  kRpcsIn,
  kRpcsOut,
  kRpcBytesIn,
  kRpcBytesOut,
  kRpcSheds,
  kRpcRetries,
  kWorkerRestarts,
  // Submit-to-finish latency of finished jobs: sum and maximum.
  kLatencyMicros,
  kMaxLatencyMicros,
  // Wall clock and runs of each ProfileSession stage, over table jobs.
  kEncodeMicros,
  kTreeBuildMicros,
  kTraverseMicros,
  kConvertMicros,
  kValidateMicros,
  kEncodeRuns,
  kTreeBuildRuns,
  kTraverseRuns,
  kConvertRuns,
  kValidateRuns,  // last: kNumCounters below counts up to it
};
constexpr size_t kNumCounters =
    static_cast<size_t>(Counter::kValidateRuns) + 1;

// Each counter's printed name, indexed by Counter.
inline constexpr const char* kCounterLabels[] = {
    "jobs submitted",
    "jobs completed",
    "jobs cancelled",
    "jobs failed",
    "cache hits",
    "cache misses",
    "coalesced jobs",
    "tree cache hits",
    "tree cache misses",
    "trees frozen",
    "build wall",
    "frozen bytes",
    // Printed as frozen bytes per node.
    "frozen bytes/node",
    "catalog flushes",
    "shards flushed",
    "dirty-shard skips",
    "flush bytes",
    "shards recovered",
    "shards quarantined",
    "appends",
    "append absorbs",
    "delta rows",
    "warm-start prunes",
    "refreeze wall",
    "ingest batches",
    "ingest rows",
    "ingest bytes",
    "artifact puts",
    "artifact put bytes",
    "artifact put errors",
    "artifact serves",
    "artifact get errors",
    "rpcs in",
    "rpcs out",
    "rpc bytes in",
    "rpc bytes out",
    "rpc sheds",
    "rpc retries",
    "worker restarts",
    "total latency",
    "max latency",
    // A stage's wall clock is labelled with its ProfileSession name.
    "encode",
    "tree_build",
    "traverse",
    "convert",
    "validate",
    "encode runs",
    "tree_build runs",
    "traverse runs",
    "convert runs",
    "validate runs",
};
static_assert(std::size(kCounterLabels) == kNumCounters);

constexpr const char* CounterLabel(Counter c) {
  return kCounterLabels[static_cast<size_t>(c)];
}

// Stage i of the ProfileSession stages, in pipeline order, keeps its wall
// clock in StageMicros(i) and its run count in StageRuns(i).
constexpr int kNumStages = 5;
constexpr Counter StageMicros(int i) {
  return static_cast<Counter>(static_cast<int>(Counter::kEncodeMicros) + i);
}
constexpr Counter StageRuns(int i) {
  return static_cast<Counter>(static_cast<int>(Counter::kEncodeRuns) + i);
}

// The profiling service's counters, updated with relaxed atomics from any
// thread. Each counter is exact; invariants across counters (submitted ==
// completed + ...) only settle once the service is idle.
class ServiceMetrics {
 public:
  // Point-in-time view of every counter plus derived figures.
  struct Snapshot {
    std::array<int64_t, kNumCounters> values{};
    int64_t queue_depth = 0;   // filled in by the service, not a counter
    int64_t running_jobs = 0;  // likewise

    int64_t operator[](Counter c) const {
      return values[static_cast<size_t>(c)];
    }
    int64_t& operator[](Counter c) { return values[static_cast<size_t>(c)]; }
    // A microsecond counter in seconds.
    double seconds(Counter c) const {
      return static_cast<double>((*this)[c]) * 1e-6;
    }

    // Jobs completed, cancelled or failed.
    int64_t finished() const {
      const Snapshot& s = *this;
      return s[Counter::kJobsCompleted] + s[Counter::kJobsCancelled] +
             s[Counter::kJobsFailed];
    }
    double mean_latency_seconds() const {
      const int64_t n = finished();
      return n == 0 ? 0 : seconds(Counter::kLatencyMicros) / n;
    }
    double cache_hit_rate() const {
      return HitRate(Counter::kCacheHits, Counter::kCacheMisses);
    }
    double tree_cache_hit_rate() const {
      return HitRate(Counter::kTreeCacheHits, Counter::kTreeCacheMisses);
    }
    // Mean frozen-layout footprint per node of the trees the service built.
    double frozen_bytes_per_node() const {
      return Ratio((*this)[Counter::kFrozenTreeBytes],
                   (*this)[Counter::kFrozenTreeNodes]);
    }

   private:
    double HitRate(Counter hits, Counter misses) const {
      return Ratio((*this)[hits], (*this)[hits] + (*this)[misses]);
    }
    static double Ratio(int64_t num, int64_t den) {
      return den == 0 ? 0
                      : static_cast<double>(num) / static_cast<double>(den);
    }
  };

  void Add(Counter c, int64_t n = 1) {
    counters_[static_cast<size_t>(c)].fetch_add(n, kRelaxed);
  }
  // Adds a duration to a microsecond counter.
  void AddSeconds(Counter c, double seconds) {
    Add(c, static_cast<int64_t>(seconds * 1e6));
  }
  // One finished job: counts its outcome (kJobsCompleted, kJobsCancelled or
  // kJobsFailed), adds its latency to the sum and raises the maximum.
  void AddFinishedJob(Counter outcome, double latency_seconds);
  // Folds one run's ProfileSession stage metrics into the counters.
  void AddStages(const std::vector<StageMetric>& stages);

  Snapshot Read() const;

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;

  std::array<std::atomic<int64_t>, kNumCounters> counters_{};
};

// Adds to `metrics` when there are any: the stores and RPC endpoints take
// their metrics optionally.
inline void Add(ServiceMetrics* metrics, Counter c, int64_t n = 1) {
  if (metrics != nullptr) metrics->Add(c, n);
}

// Multi-line human-readable rendering in the style of the report module's
// text outputs; ends with a newline.
std::string FormatServiceMetrics(const ServiceMetrics::Snapshot& s);

}  // namespace gordian

#endif  // GORDIAN_SERVICE_METRICS_H_
