// Tests for the profiling service stack: ThreadPool, JobScheduler, and
// ProfilingService (concurrent discovery, catalog caching, coalescing,
// cancellation, timeouts, metrics).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/gordian.h"
#include "datagen/synthetic.h"
#include "engine/advisor.h"
#include "engine/row_store.h"
#include "service/job_scheduler.h"
#include "service/metrics.h"
#include "service/profiling_service.h"
#include "common/thread_pool.h"
#include "table/csv.h"
#include "table/fingerprint.h"

namespace gordian {
namespace {

Table MakeTable(int64_t rows, uint64_t seed, int columns = 5) {
  SyntheticSpec spec = UniformSpec(columns, rows, 32, 0.5, seed);
  spec.columns[0].cardinality = 256;
  spec.columns[2].cardinality = 64;
  spec.planted_keys.push_back({0, 2});
  Table t;
  Status s = GenerateSynthetic(spec, &t);
  EXPECT_TRUE(s.ok());
  return t;
}

// A table whose discovery visits enough prefix-tree nodes to take real time
// and to trip the amortized budget checks (which fire every 4096 visits):
// many moderately low-cardinality uncorrelated columns maximize the
// non-key search space.
Table MakeExpensiveTable(uint64_t seed) {
  SyntheticSpec spec = UniformSpec(14, 4000, 6, 0.0, seed);
  spec.planted_keys.push_back({0, 1, 2, 3, 4, 5, 6, 7});
  Table t;
  Status s = GenerateSynthetic(spec, &t);
  EXPECT_TRUE(s.ok());
  return t;
}

void ExpectSameResult(const KeyDiscoveryResult& a,
                      const KeyDiscoveryResult& b) {
  EXPECT_EQ(a.no_keys, b.no_keys);
  EXPECT_EQ(a.sampled, b.sampled);
  EXPECT_EQ(a.incomplete, b.incomplete);
  ASSERT_EQ(a.keys.size(), b.keys.size());
  for (size_t i = 0; i < a.keys.size(); ++i) {
    EXPECT_EQ(a.keys[i].attrs, b.keys[i].attrs);
    EXPECT_DOUBLE_EQ(a.keys[i].estimated_strength,
                     b.keys[i].estimated_strength);
    EXPECT_DOUBLE_EQ(a.keys[i].exact_strength, b.keys[i].exact_strength);
  }
  EXPECT_EQ(a.non_keys, b.non_keys);
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryTaskAndDrainsOnDestroy) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
    // Destructor must finish all 200, started or not.
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::promise<int> value;
  pool.Submit([&value] { value.set_value(42); });
  EXPECT_EQ(value.get_future().get(), 42);
}

TEST(ThreadPool, TasksMaySubmitMoreTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    pool.Submit([&] {
      ran.fetch_add(1);
      pool.Submit([&] { ran.fetch_add(1); });
    });
  }
  EXPECT_EQ(ran.load(), 2);
}

// ------------------------------------------------------------- JobScheduler

// Holds the scheduler's single worker inside a job body until released,
// making everything submitted meanwhile deterministically queued.
class Gate {
 public:
  std::function<void(const JobContext&)> Body() {
    return [this](const JobContext&) {
      entered_.set_value();
      released_.get_future().wait();
    };
  }
  void AwaitEntered() { entered_.get_future().wait(); }
  void Release() { released_.set_value(); }

 private:
  std::promise<void> entered_;
  std::promise<void> released_;
};

TEST(JobScheduler, PriorityOrderWithFifoTiesOnOneWorker) {
  JobScheduler scheduler(1);
  Gate gate;
  scheduler.Submit(gate.Body());
  gate.AwaitEntered();

  std::vector<char> order;
  std::mutex order_mu;
  auto record = [&](char tag) {
    return [&order, &order_mu, tag](const JobContext&) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
    };
  };
  scheduler.Submit(record('a'), /*priority=*/0);
  scheduler.Submit(record('b'), /*priority=*/5);
  scheduler.Submit(record('c'), /*priority=*/5);
  scheduler.Submit(record('d'), /*priority=*/1);
  gate.Release();
  scheduler.WaitAll();
  EXPECT_EQ(order, (std::vector<char>{'b', 'c', 'd', 'a'}));
}

TEST(JobScheduler, CancelQueuedJobNeverRuns) {
  JobScheduler scheduler(1);
  Gate gate;
  scheduler.Submit(gate.Body());
  gate.AwaitEntered();

  std::atomic<bool> ran{false};
  JobId id = scheduler.Submit([&ran](const JobContext&) { ran = true; });
  EXPECT_EQ(scheduler.queue_depth(), 1);
  bool before_running = false;
  EXPECT_TRUE(scheduler.Cancel(id, &before_running));
  EXPECT_TRUE(before_running);
  JobInfo info = scheduler.Wait(id);
  EXPECT_EQ(info.state, JobState::kCancelled);
  EXPECT_TRUE(info.cancel_requested);
  gate.Release();
  scheduler.WaitAll();
  EXPECT_FALSE(ran.load());
  // Cancelling a terminal job is a no-op.
  EXPECT_FALSE(scheduler.Cancel(id));
}

TEST(JobScheduler, CancelRunningJobUnwindsCooperatively) {
  JobScheduler scheduler(1);
  std::promise<void> entered;
  JobId id = scheduler.Submit([&entered](const JobContext& ctx) {
    entered.set_value();
    while (!ctx.Cancelled()) {
      std::this_thread::yield();
    }
  });
  entered.get_future().wait();
  bool before_running = true;
  EXPECT_TRUE(scheduler.Cancel(id, &before_running));
  EXPECT_FALSE(before_running);
  JobInfo info = scheduler.Wait(id);
  EXPECT_EQ(info.state, JobState::kCancelled);
  EXPECT_GT(info.latency_seconds, 0.0);
}

TEST(JobScheduler, ThrowingBodyBecomesFailedJob) {
  JobScheduler scheduler(2);
  JobId id = scheduler.Submit([](const JobContext&) {
    throw std::runtime_error("boom");
  });
  JobInfo info = scheduler.Wait(id);
  EXPECT_EQ(info.state, JobState::kFailed);
  EXPECT_EQ(info.error, "boom");
}

TEST(JobScheduler, PollWaitAndForgetLifecycle) {
  JobScheduler scheduler(1);
  EXPECT_FALSE(scheduler.Poll(999).valid);
  EXPECT_FALSE(scheduler.Wait(999).valid);
  EXPECT_FALSE(scheduler.Forget(999));

  JobId id = scheduler.Submit([](const JobContext&) {});
  JobInfo info = scheduler.Wait(id);
  EXPECT_TRUE(info.valid);
  EXPECT_EQ(info.state, JobState::kSucceeded);
  EXPECT_TRUE(scheduler.Poll(id).valid);
  EXPECT_TRUE(scheduler.Forget(id));
  EXPECT_FALSE(scheduler.Poll(id).valid);
  EXPECT_FALSE(scheduler.Forget(id));
}

// --------------------------------------------------------- ProfilingService

TEST(ProfilingService, ConcurrentJobsMatchSequentialDiscovery) {
  constexpr int kTables = 5;
  std::vector<Table> tables;
  for (int i = 0; i < kTables; ++i) {
    tables.push_back(MakeTable(600 + 50 * i, 100 + i));
  }

  std::vector<KeyDiscoveryResult> sequential;
  for (const Table& t : tables) sequential.push_back(FindKeys(t));

  ServiceOptions options;
  options.num_threads = 4;
  ProfilingService service(options);
  std::vector<JobId> ids;
  for (int i = 0; i < kTables; ++i) {
    ids.push_back(
        service.SubmitTable("t" + std::to_string(i), &tables[i]));
  }
  for (int i = 0; i < kTables; ++i) {
    ProfileOutcome out = service.Wait(ids[i]);
    EXPECT_EQ(out.info.state, JobState::kSucceeded);
    EXPECT_FALSE(out.cache_hit);
    EXPECT_EQ(out.table_name, "t" + std::to_string(i));
    EXPECT_EQ(out.fingerprint, TableFingerprint(tables[i]));
    ExpectSameResult(out.result, sequential[i]);
  }
  ServiceMetrics::Snapshot m = service.Metrics();
  EXPECT_EQ(m[Counter::kJobsSubmitted], kTables);
  EXPECT_EQ(m[Counter::kJobsCompleted], kTables);
  EXPECT_EQ(m[Counter::kCacheMisses], kTables);
  EXPECT_EQ(m[Counter::kCacheHits], 0);
}

TEST(ProfilingService, SecondSubmissionOfUnchangedTableIsCacheHit) {
  Table t = MakeTable(800, 7);
  ProfilingService service;
  ProfileOutcome cold = service.Wait(service.SubmitTable("orders", &t));
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(service.catalog().Contains(cold.fingerprint));

  ProfileOutcome warm = service.Wait(service.SubmitTable("orders", &t));
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
  ExpectSameResult(warm.result, cold.result);

  // An identical copy of the table (distinct object, same content) also
  // hits: the fingerprint keys on content, not identity.
  Table copy = MakeTable(800, 7);
  ProfileOutcome alias = service.Wait(service.SubmitTable("orders2", &copy));
  EXPECT_TRUE(alias.cache_hit);

  ServiceMetrics::Snapshot m = service.Metrics();
  EXPECT_EQ(m[Counter::kCacheHits], 2);
  EXPECT_EQ(m[Counter::kCacheMisses], 1);

  // use_catalog = false forces a re-profile.
  ProfileJobOptions no_cache;
  no_cache.use_catalog = false;
  ProfileOutcome forced =
      service.Wait(service.SubmitTable("orders", &t, no_cache));
  EXPECT_FALSE(forced.cache_hit);
  ExpectSameResult(forced.result, cold.result);
}

TEST(ProfilingService, SameTableObjectInFlightCoalesces) {
  // One worker: the blocker occupies it, so the two submissions for `t`
  // are deterministically still queued/running when the third arrives.
  Table blocker = MakeTable(2000, 40);
  Table t = MakeTable(2000, 41);
  ServiceOptions options;
  options.num_threads = 1;
  ProfilingService service(options);
  JobId b = service.SubmitTable("blocker", &blocker);
  JobId first = service.SubmitTable("t", &t);
  JobId second = service.SubmitTable("t-again", &t);
  EXPECT_GT(first, 0);
  EXPECT_LT(second, 0);  // alias ids live in the negative space
  EXPECT_FALSE(service.Cancel(second));  // aliases cannot be cancelled

  ProfileOutcome a = service.Wait(first);
  ProfileOutcome c = service.Wait(second);
  EXPECT_TRUE(c.coalesced);
  EXPECT_FALSE(a.coalesced);
  EXPECT_EQ(c.table_name, "t-again");
  EXPECT_EQ(c.fingerprint, a.fingerprint);
  ExpectSameResult(c.result, a.result);
  service.Wait(b);

  ServiceMetrics::Snapshot m = service.Metrics();
  EXPECT_EQ(m[Counter::kCoalescedJobs], 1);
  EXPECT_EQ(m[Counter::kJobsSubmitted], 3);
  // Only two discoveries actually ran.
  EXPECT_EQ(m[Counter::kJobsCompleted], 2);

  // Forgetting: the primary is refused while its alias lives, then both go.
  EXPECT_FALSE(service.Forget(first));
  EXPECT_TRUE(service.Forget(second));
  EXPECT_TRUE(service.Forget(first));
  EXPECT_FALSE(service.Forget(first));
  EXPECT_FALSE(service.Poll(first).valid);
  EXPECT_FALSE(service.Poll(second).valid);
  EXPECT_FALSE(service.scheduler().Poll(first).valid);

  // The same table then runs a fresh job instead of aliasing a dead one,
  // also when its primary was forgotten behind the service's back.
  JobId fresh = service.SubmitTable("t", &t);
  EXPECT_GT(fresh, 0);
  ProfileOutcome f = service.Wait(fresh);
  EXPECT_FALSE(f.coalesced);
  ExpectSameResult(f.result, a.result);
  EXPECT_TRUE(service.scheduler().Forget(fresh));
  EXPECT_GT(service.SubmitTable("t", &t), 0);
  service.WaitAll();
}

TEST(ProfilingService, CancelQueuedJobReturnsIncompleteAndLeavesNoTrace) {
  Table blocker = MakeTable(2000, 50);
  Table t = MakeTable(500, 51);
  ServiceOptions options;
  options.num_threads = 1;
  ProfilingService service(options);
  JobId b = service.SubmitTable("blocker", &blocker);
  JobId id = service.SubmitTable("victim", &t);
  EXPECT_TRUE(service.Cancel(id));
  ProfileOutcome out = service.Wait(id);
  EXPECT_EQ(out.info.state, JobState::kCancelled);
  EXPECT_TRUE(out.result.incomplete);
  EXPECT_EQ(out.result.incomplete_reason, AbortReason::kCancelled);
  EXPECT_TRUE(out.result.keys.empty());
  service.Wait(b);
  service.WaitAll();
  // The victim never ran, so only the blocker's entry is in the catalog.
  EXPECT_EQ(service.catalog().size(), 1);
  EXPECT_FALSE(service.catalog().Contains(TableFingerprint(t)));
  EXPECT_EQ(service.Metrics()[Counter::kJobsCancelled], 1);
}

TEST(ProfilingService, CancelMidDiscoveryReturnsIncompleteResult) {
  Table t = MakeExpensiveTable(60);
  ProfilingService service;
  JobId id = service.SubmitTable("big", &t);
  // Wait for the body to actually start before cancelling.
  while (service.Poll(id).state == JobState::kQueued) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(service.Cancel(id));
  ProfileOutcome out = service.Wait(id);
  ASSERT_EQ(out.info.state, JobState::kCancelled);
  EXPECT_TRUE(out.result.incomplete);
  EXPECT_EQ(out.result.incomplete_reason, AbortReason::kCancelled);
  EXPECT_TRUE(out.result.keys.empty());
  // An aborted run must not be cached.
  EXPECT_EQ(service.catalog().size(), 0);
}

TEST(ProfilingService, TimeoutProducesIncompleteUncachedResult) {
  Table t = MakeExpensiveTable(61);
  ProfilingService service;
  ProfileJobOptions job;
  job.timeout_seconds = 1e-4;
  ProfileOutcome out = service.Wait(service.SubmitTable("slow", &t, job));
  EXPECT_EQ(out.info.state, JobState::kSucceeded);  // ran to (early) return
  EXPECT_TRUE(out.result.incomplete);
  EXPECT_EQ(out.result.incomplete_reason, AbortReason::kTimeBudget);
  EXPECT_TRUE(out.result.keys.empty());
  EXPECT_EQ(service.catalog().size(), 0);

  // The same submission without the timeout completes and is cached.
  ProfileOutcome full = service.Wait(service.SubmitTable("slow", &t));
  EXPECT_FALSE(full.result.incomplete);
  EXPECT_TRUE(service.catalog().Contains(full.fingerprint));
}

TEST(ProfilingService, SharedCatalogServesAcrossServices) {
  Table t = MakeTable(700, 70);
  KeyCatalog catalog;
  ServiceOptions options;
  options.catalog = &catalog;
  ProfileOutcome cold;
  {
    ProfilingService first(options);
    cold = first.Wait(first.SubmitTable("t", &t));
    EXPECT_FALSE(cold.cache_hit);
  }
  ProfilingService second(options);
  ProfileOutcome warm = second.Wait(second.SubmitTable("t", &t));
  EXPECT_TRUE(warm.cache_hit);
  ExpectSameResult(warm.result, cold.result);
}

TEST(ProfilingService, UnknownJobIdsAreRejected) {
  ProfilingService service;
  EXPECT_FALSE(service.Poll(12345).valid);
  EXPECT_FALSE(service.Wait(12345).info.valid);
  EXPECT_FALSE(service.Cancel(12345));
}

TEST(ProfilingService, CsvJobFailureCarriesParserError) {
  ProfilingService service;
  JobId id = service.SubmitCsv("missing", "/no/such/file.csv", CsvOptions{});
  ProfileOutcome out = service.Wait(id);
  EXPECT_EQ(out.info.state, JobState::kFailed);
  EXPECT_NE(out.info.error.find("/no/such/file.csv"), std::string::npos);
  EXPECT_EQ(service.Metrics()[Counter::kJobsFailed], 1);
}

// Every job kind folds its stages: the per-stage counters read one run of
// each stage that the job ran.
void ExpectStageRuns(const ServiceMetrics::Snapshot& s,
                     const std::vector<int64_t>& runs) {
  for (int i = 0; i < kNumStages; ++i) {
    EXPECT_EQ(s[StageRuns(i)], runs[static_cast<size_t>(i)])
        << CounterLabel(StageRuns(i));
  }
}

TEST(ProfilingService, CsvJobFoldsStageMetrics) {
  const std::string path = ::testing::TempDir() + "gordian_stages_" +
                           std::to_string(::getpid()) + ".csv";
  ASSERT_TRUE(WriteCsv(MakeTable(300, 90), CsvOptions{}, path).ok());
  ProfilingService service;
  ProfileOutcome out = service.Wait(service.SubmitCsv("t", path, {}));
  std::remove(path.c_str());
  ASSERT_EQ(out.info.state, JobState::kSucceeded);
  ASSERT_FALSE(out.result.keys.empty());
  const ServiceMetrics::Snapshot s = service.Metrics();
  ExpectStageRuns(s, {1, 1, 1, 1, 1});
  EXPECT_NE(FormatServiceMetrics(s).find("\n  per-stage wall clock:\n"),
            std::string::npos);
}

TEST(ProfilingService, RegisterAppendableFoldsBaseRunStages) {
  ProfilingService service;
  ASSERT_TRUE(
      service.RegisterAppendable("t", MakeTable(300, 91), {}, nullptr).ok());
  ExpectStageRuns(service.Metrics(), {1, 1, 1, 1, 1});
}

TEST(ProfilingService, AppendAndReprofileFoldsStages) {
  const Table base = MakeTable(300, 91);
  const Table more = MakeTable(40, 92);
  RowBatch batch(more.num_columns());
  for (int64_t r = 0; r < more.num_rows(); ++r) {
    std::vector<Value> row;
    for (int c = 0; c < more.num_columns(); ++c) {
      row.push_back(more.value(r, c));
    }
    batch.AppendRow(row);
  }
  // With the base tree cached, the append absorbs into it and re-runs every
  // stage but encode; with no tree cache it profiles a snapshot cold.
  for (int64_t cache_bytes :
       {TreeArtifactCache::kDefaultByteBudget, int64_t{0}}) {
    ServiceOptions options;
    options.tree_cache_bytes = cache_bytes;
    ProfilingService service(options);
    uint64_t fp = 0;
    ASSERT_TRUE(service.RegisterAppendable("t", base, {}, &fp).ok());
    AppendOutcome out;
    ASSERT_TRUE(service.AppendAndReprofile(fp, batch, &out).ok());
    ASSERT_EQ(out.tree_absorbed, cache_bytes > 0);
    ExpectStageRuns(service.Metrics(), {out.tree_absorbed ? 1 : 2, 2, 2, 2, 2});
  }
}

// --------------------------------------------------- advisor + metrics glue

TEST(Advisor, CatalogBackedRecommendationSkipsRediscovery) {
  Table t = MakeTable(600, 80);
  RowStore store(t);
  KeyCatalog catalog;
  Planner first = BuildRecommendedIndexes(t, store, &catalog);
  EXPECT_EQ(catalog.size(), 1);
  ASSERT_FALSE(first.indexes().empty());

  // Second call is served from the catalog and builds the same index set.
  Planner second = BuildRecommendedIndexes(t, store, &catalog);
  ASSERT_EQ(second.indexes().size(), first.indexes().size());
  EXPECT_EQ(catalog.size(), 1);

  // Matches the result-driven overload exactly.
  Planner direct = BuildRecommendedIndexes(t, store, FindKeys(t));
  EXPECT_EQ(direct.indexes().size(), first.indexes().size());
}

// The lines FormatServiceMetrics prints for every snapshot, split where
// the gated blocks go, as they read with every field zero.
constexpr char kZeroJobLines[] =
    "profiling service metrics:\n"
    "  jobs submitted     0\n"
    "  jobs completed     0\n"
    "  jobs cancelled     0\n"
    "  jobs failed        0\n"
    "  cache hits         0\n"
    "  cache misses       0\n"
    "  coalesced jobs     0\n"
    "  tree cache hits    0\n"
    "  tree cache misses  0\n";
constexpr char kZeroQueueLines[] =
    "  queue depth        0\n"
    "  running jobs       0\n";
constexpr char kZeroRateLines[] =
    "  cache hit rate     0.0%\n"
    "  tree hit rate      0.0%\n"
    "  mean latency       0.000 ms\n"
    "  max latency        0.000 ms\n";

// FormatServiceMetrics of a snapshot whose only non-zero field is `counter`,
// set to 1.
std::string FormatWithOne(Counter counter) {
  ServiceMetrics::Snapshot s;
  s[counter] = 1;
  return FormatServiceMetrics(s);
}

TEST(ServiceMetrics, ReadReturnsCountsAndDerivedFigures) {
  ServiceMetrics metrics;
  metrics.Add(Counter::kJobsSubmitted);
  metrics.Add(Counter::kCacheMisses);
  metrics.AddFinishedJob(Counter::kJobsCompleted, 0.25);
  ServiceMetrics::Snapshot s = metrics.Read();
  EXPECT_EQ(s[Counter::kJobsSubmitted], 1);
  EXPECT_EQ(s.finished(), 1);
  EXPECT_DOUBLE_EQ(s.mean_latency_seconds(), 0.25);
  EXPECT_DOUBLE_EQ(s.seconds(Counter::kMaxLatencyMicros), 0.25);
}

TEST(ServiceMetrics, FormatOfEmptySnapshot) {
  EXPECT_EQ(FormatServiceMetrics(ServiceMetrics::Snapshot{}),
            std::string(kZeroJobLines) + kZeroQueueLines + kZeroRateLines);
}

// Every counter, all five stages, queue depth and running jobs set to
// distinct values; times are whole microseconds.
TEST(ServiceMetrics, FormatListsEveryCounter) {
  ServiceMetrics::Snapshot s;
  s[Counter::kJobsSubmitted] = 1;
  s[Counter::kJobsCompleted] = 2;
  s[Counter::kJobsCancelled] = 3;
  s[Counter::kJobsFailed] = 4;
  s[Counter::kCacheHits] = 5;
  s[Counter::kCacheMisses] = 6;
  s[Counter::kCoalescedJobs] = 7;
  s[Counter::kTreeCacheHits] = 8;
  s[Counter::kTreeCacheMisses] = 9;
  s[Counter::kTreesFrozen] = 10;
  s[Counter::kBuildMicros] = 1234;
  s[Counter::kFrozenTreeBytes] = 1100;
  s[Counter::kFrozenTreeNodes] = 70;
  s[Counter::kCatalogFlushes] = 13;
  s[Counter::kShardsFlushed] = 14;
  s[Counter::kDirtyShardSkips] = 15;
  s[Counter::kCatalogFlushBytes] = 16;
  s[Counter::kShardsRecovered] = 17;
  s[Counter::kShardsQuarantined] = 18;
  s[Counter::kAppends] = 19;
  s[Counter::kAppendAbsorbs] = 20;
  s[Counter::kDeltaRows] = 21;
  s[Counter::kWarmStartPrunes] = 22;
  s[Counter::kRefreezeMicros] = 2345;
  s[Counter::kIngestBatches] = 24;
  s[Counter::kIngestRows] = 25;
  s[Counter::kIngestBytes] = 26;
  s[Counter::kArtifactPuts] = 27;
  s[Counter::kArtifactPutBytes] = 28;
  s[Counter::kArtifactPutErrors] = 29;
  s[Counter::kArtifactServes] = 30;
  s[Counter::kArtifactGetErrors] = 31;
  s[Counter::kRpcsIn] = 32;
  s[Counter::kRpcsOut] = 33;
  s[Counter::kRpcBytesIn] = 34;
  s[Counter::kRpcBytesOut] = 35;
  s[Counter::kRpcSheds] = 36;
  s[Counter::kRpcRetries] = 37;
  s[Counter::kWorkerRestarts] = 38;
  s.queue_depth = 39;
  s.running_jobs = 40;
  s[Counter::kLatencyMicros] = 9999;
  s[Counter::kMaxLatencyMicros] = 5000;
  // encode, tree_build, traverse, convert, validate
  const int64_t stage_micros[] = {250000, 500000, 1500000, 2000, 7000};
  for (int i = 0; i < kNumStages; ++i) {
    s[StageMicros(i)] = stage_micros[i];
    s[StageRuns(i)] = 41 + i;
  }
  EXPECT_EQ(FormatServiceMetrics(s),
            "profiling service metrics:\n"
            "  jobs submitted     1\n"
            "  jobs completed     2\n"
            "  jobs cancelled     3\n"
            "  jobs failed        4\n"
            "  cache hits         5\n"
            "  cache misses       6\n"
            "  coalesced jobs     7\n"
            "  tree cache hits    8\n"
            "  tree cache misses  9\n"
            "  trees frozen       10\n"
            "  build wall         1.234 ms\n"
            "  frozen bytes       1100\n"
            "  frozen bytes/node  15.7\n"
            "  queue depth        39\n"
            "  running jobs       40\n"
            "  catalog flushes    13\n"
            "  shards flushed     14\n"
            "  dirty-shard skips  15\n"
            "  flush bytes        16\n"
            "  shards recovered   17\n"
            "  shards quarantined 18\n"
            "  appends            19\n"
            "  append absorbs     20\n"
            "  delta rows         21\n"
            "  warm-start prunes  22\n"
            "  refreeze wall      2.345 ms\n"
            "  ingest batches     24\n"
            "  ingest rows        25\n"
            "  ingest bytes       26\n"
            "  artifact puts      27\n"
            "  artifact put bytes 28\n"
            "  artifact put errors 29\n"
            "  artifact serves    30\n"
            "  artifact get errors 31\n"
            "  rpcs in            32\n"
            "  rpcs out           33\n"
            "  rpc bytes in       34\n"
            "  rpc bytes out      35\n"
            "  rpc sheds          36\n"
            "  rpc retries        37\n"
            "  worker restarts    38\n"
            "  cache hit rate     45.5%\n"
            "  tree hit rate      47.1%\n"
            "  mean latency       1.111 ms\n"
            "  max latency        5.000 ms\n"
            "  per-stage wall clock:\n"
            "    encode           0.250 s over 41 run(s)\n"
            "    tree_build       0.500 s over 42 run(s)\n"
            "    traverse         1.500 s over 43 run(s)\n"
            "    convert          0.002 s over 44 run(s)\n"
            "    validate         0.007 s over 45 run(s)\n");
}

// Each gated block prints whole once one of its gate counters is set alone.
TEST(ServiceMetrics, FormatGatesEachBlock) {
  const std::string jobs = kZeroJobLines;
  const std::string trees =
      "  trees frozen       1\n"
      "  build wall         0.000 ms\n"
      "  frozen bytes       0\n"
      "  frozen bytes/node  0.0\n";
  EXPECT_EQ(FormatWithOne(Counter::kTreesFrozen),
            jobs + trees + kZeroQueueLines + kZeroRateLines);

  const std::string head = jobs + kZeroQueueLines;
  const std::string catalog =
      "  catalog flushes    0\n"
      "  shards flushed     0\n"
      "  dirty-shard skips  0\n"
      "  flush bytes        0\n"
      "  shards recovered   0\n"
      "  shards quarantined 1\n";
  EXPECT_EQ(FormatWithOne(Counter::kShardsQuarantined),
            head + catalog + kZeroRateLines);
  const std::string appends =
      "  appends            1\n"
      "  append absorbs     0\n"
      "  delta rows         0\n"
      "  warm-start prunes  0\n"
      "  refreeze wall      0.000 ms\n";
  EXPECT_EQ(FormatWithOne(Counter::kAppends),
            head + appends + kZeroRateLines);
  const std::string ingest =
      "  ingest batches     1\n"
      "  ingest rows        0\n"
      "  ingest bytes       0\n";
  EXPECT_EQ(FormatWithOne(Counter::kIngestBatches),
            head + ingest + kZeroRateLines);
  const std::string artifacts =
      "  artifact puts      0\n"
      "  artifact put bytes 0\n"
      "  artifact put errors 0\n"
      "  artifact serves    0\n"
      "  artifact get errors 1\n";
  EXPECT_EQ(FormatWithOne(Counter::kArtifactGetErrors),
            head + artifacts + kZeroRateLines);
  const std::string rpcs =
      "  rpcs in            0\n"
      "  rpcs out           1\n"
      "  rpc bytes in       0\n"
      "  rpc bytes out      0\n"
      "  rpc sheds          0\n"
      "  rpc retries        0\n"
      "  worker restarts    0\n";
  EXPECT_EQ(FormatWithOne(Counter::kRpcsOut),
            head + rpcs + kZeroRateLines);
  // Only rpcs in and rpcs out gate the RPC block.
  EXPECT_EQ(FormatWithOne(Counter::kWorkerRestarts),
            head + kZeroRateLines);

  // A stage prints once it has run, even in no measurable time.
  ServiceMetrics::Snapshot validated;
  validated[Counter::kValidateRuns] = 1;
  const std::string stages =
      "  per-stage wall clock:\n"
      "    validate         0.000 s over 1 run(s)\n";
  EXPECT_EQ(FormatServiceMetrics(validated), head + kZeroRateLines + stages);
}

}  // namespace
}  // namespace gordian
