#include "service/metrics.h"

#include <cstdio>
#include <initializer_list>
#include <utility>

namespace gordian {

void ServiceMetrics::AddFinishedJob(Counter outcome, double latency_seconds) {
  Add(outcome);
  const int64_t micros = static_cast<int64_t>(latency_seconds * 1e6);
  Add(Counter::kLatencyMicros, micros);
  std::atomic<int64_t>& max =
      counters_[static_cast<size_t>(Counter::kMaxLatencyMicros)];
  int64_t prev = max.load(kRelaxed);
  while (micros > prev && !max.compare_exchange_weak(prev, micros, kRelaxed)) {
  }
}

void ServiceMetrics::AddStages(const std::vector<StageMetric>& stages) {
  for (const StageMetric& m : stages) {
    for (int i = 0; i < kNumStages; ++i) {
      if (m.name != CounterLabel(StageMicros(i))) continue;
      AddSeconds(StageMicros(i), m.seconds);
      Add(StageRuns(i));
      break;
    }
  }
}

ServiceMetrics::Snapshot ServiceMetrics::Read() const {
  Snapshot s;
  for (size_t i = 0; i < kNumCounters; ++i) {
    s.values[i] = counters_[i].load(kRelaxed);
  }
  return s;
}

std::string FormatServiceMetrics(const ServiceMetrics::Snapshot& s) {
  using enum Counter;
  char buf[256];
  std::string out = "profiling service metrics:\n";
  auto count = [&](const char* label, int64_t v) {
    std::snprintf(buf, sizeof(buf), "  %-18s %lld\n", label,
                  static_cast<long long>(v));
    out += buf;
  };
  auto real = [&](const char* label, int precision, double v,
                  const char* unit) {
    std::snprintf(buf, sizeof(buf), "  %-18s %.*f%s\n", label, precision, v,
                  unit);
    out += buf;
  };
  // Prints counters first..last when a gate counter is non-zero (always
  // when there are no gates).
  auto block = [&](Counter first, Counter last,
                   std::initializer_list<Counter> gates) {
    bool shown = gates.size() == 0;
    for (Counter gate : gates) shown = shown || s[gate] > 0;
    if (!shown) return;
    for (int i = static_cast<int>(first); i <= static_cast<int>(last); ++i) {
      const Counter c = static_cast<Counter>(i);
      if (c == kBuildMicros || c == kRefreezeMicros) {
        real(CounterLabel(c), 3, static_cast<double>(s[c]) * 1e-3, " ms");
      } else if (c == kFrozenTreeNodes) {
        real(CounterLabel(c), 1, s.frozen_bytes_per_node(), "");
      } else {
        count(CounterLabel(c), s[c]);
      }
    }
  };
  block(kJobsSubmitted, kTreeCacheMisses, {});
  block(kTreesFrozen, kFrozenTreeNodes, {kTreesFrozen});
  count("queue depth", s.queue_depth);
  count("running jobs", s.running_jobs);
  block(kCatalogFlushes, kShardsQuarantined,
        {kCatalogFlushes, kShardsRecovered, kShardsQuarantined});
  block(kAppends, kRefreezeMicros, {kAppends});
  block(kIngestBatches, kIngestBytes, {kIngestBatches});
  block(kArtifactPuts, kArtifactGetErrors,
        {kArtifactPuts, kArtifactServes, kArtifactPutErrors,
         kArtifactGetErrors});
  block(kRpcsIn, kWorkerRestarts, {kRpcsIn, kRpcsOut});
  real("cache hit rate", 1, s.cache_hit_rate() * 100, "%");
  real("tree hit rate", 1, s.tree_cache_hit_rate() * 100, "%");
  real("mean latency", 3, s.mean_latency_seconds() * 1e3, " ms");
  real(CounterLabel(kMaxLatencyMicros), 3, s.seconds(kMaxLatencyMicros) * 1e3,
       " ms");
  // The stages that ran, under a header printed before the first of them.
  const char* stage_header = "  per-stage wall clock:\n";
  for (int i = 0; i < kNumStages; ++i) {
    if (s[StageRuns(i)] == 0) continue;
    out += std::exchange(stage_header, "");
    std::snprintf(buf, sizeof(buf), "    %-16s %.3f s over %lld run(s)\n",
                  CounterLabel(StageMicros(i)), s.seconds(StageMicros(i)),
                  static_cast<long long>(s[StageRuns(i)]));
    out += buf;
  }
  return out;
}

}  // namespace gordian
