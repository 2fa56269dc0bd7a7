// Append-equivalence oracle suite for incremental discovery.
//
// The property under test: profiling incrementally — absorb each delta
// batch into the standing prefix tree, re-traverse warm-started from the
// prior non-keys — produces, after every batch, a report byte-identical to
// a from-scratch run of the pointer-tree oracle over the concatenated
// table. The property is fuzzed over randomized schemas/datasets with warm
// start on and off, plus directed tests for
// cancellation mid-absorb, budget aborts, spilled base tables, the
// monotonicity property, the service's AppendAndReprofile path, and the
// streaming profiler's keys-current mode and ingest accounting.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/gordian.h"
#include "core/incremental.h"
#include "core/report.h"
#include "core/streaming.h"
#include "oracle/non_key_finder.h"
#include "service/profiling_service.h"
#include "table/fingerprint.h"
#include "table/table.h"

namespace gordian {
namespace {

uint64_t Next(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state >> 33;
}

// Iteration count for the fuzz loops; CI's nightly-style leg raises it via
// the environment (GORDIAN_FUZZ_ITERS=20 ctest -L incremental).
int FuzzIters() {
  const char* env = std::getenv("GORDIAN_FUZZ_ITERS");
  if (env != nullptr && *env != '\0') {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 3;
}

Schema MakeSchema(int num_columns) {
  std::vector<std::string> names;
  for (int c = 0; c < num_columns; ++c) names.push_back("c" + std::to_string(c));
  return Schema(names);
}

// One random entity. Column 0 is a near-id (unique-ish, occasionally
// repeated); the rest cycle through low-cardinality ints, strings with
// NULLs, and doubles — enough structure for composite keys, genuine
// non-keys, and growing dictionaries.
std::vector<Value> RandomRow(int num_columns, int64_t row_index,
                             uint64_t* state) {
  std::vector<Value> row;
  row.reserve(static_cast<size_t>(num_columns));
  for (int c = 0; c < num_columns; ++c) {
    switch (c % 4) {
      case 0:
        // ~1 in 8 rows reuses an earlier id, so column 0 alone is usually
        // not a key and composites matter.
        row.emplace_back(static_cast<int64_t>(
            Next(state) % 8 == 0 ? Next(state) % (row_index + 1)
                                 : row_index));
        break;
      case 1:
        row.emplace_back(static_cast<int64_t>(Next(state) % 5));
        break;
      case 2:
        if (Next(state) % 11 == 0) {
          row.emplace_back();  // NULL
        } else {
          row.emplace_back("s" + std::to_string(Next(state) % 17));
        }
        break;
      default:
        row.emplace_back(static_cast<double>(Next(state) % 7) / 2);
        break;
    }
  }
  return row;
}

RowBatch MakeBatch(int num_columns, int64_t rows, int64_t first_row_index,
                   uint64_t* state) {
  RowBatch batch(num_columns);
  for (int64_t i = 0; i < rows; ++i) {
    batch.AppendRow(RandomRow(num_columns, first_row_index + i, state));
  }
  return batch;
}

Table Concat(const Schema& schema, const std::vector<RowBatch>& batches) {
  TableBuilder b(schema);
  for (const RowBatch& batch : batches) b.AddBatch(batch);
  return b.Build();
}

// Report with run-dependent stats zeroed: byte-identical over everything
// discovery can observe (keys, strengths, non-keys, abort state).
std::string Canon(const Table& t, KeyDiscoveryResult r) {
  r.stats = GordianStats{};
  DatabaseProfile p;
  p.tables.push_back({"t", &t, std::move(r)});
  return ProfileToJson(p);
}

// The from-scratch oracle is the most basic execution mode — the
// pointer-tree traversal, cold — so every incremental configuration is
// compared against one fixed baseline.
KeyDiscoveryResult Oracle(const Table& t) { return OracleFindKeys(t); }

// ---------------------------------------------------------------------------
// The core oracle, fuzzed with warm start on and off.

TEST(AppendEquivalence, IncrementalMatchesFromScratchAcrossMatrix) {
  const int iters = FuzzIters();
  for (int iter = 0; iter < iters; ++iter) {
    uint64_t state = 0x9e3779b9u * static_cast<uint64_t>(iter + 1);
    const int num_columns = 2 + static_cast<int>(Next(&state) % 4);  // 2..5
    const Schema schema = MakeSchema(num_columns);
    const int64_t base_rows = 1 + static_cast<int64_t>(Next(&state) % 400);
    const int num_batches = 1 + static_cast<int>(Next(&state) % 3);

    // Batch sizes span the issue's 1..4096 envelope: the first iteration
    // always includes a 4096-row batch, later ones stay small for speed.
    std::vector<RowBatch> batches;
    batches.push_back(MakeBatch(num_columns, base_rows, 0, &state));
    int64_t rows_so_far = base_rows;
    for (int b = 0; b < num_batches; ++b) {
      const int64_t n =
          (iter == 0 && b == 0)
              ? 4096
              : 1 + static_cast<int64_t>(Next(&state) % 256);
      batches.push_back(MakeBatch(num_columns, n, rows_so_far, &state));
      rows_so_far += n;
    }

    const Table base = Concat(schema, {batches[0]});

    for (bool warm : {false, true}) {
      SCOPED_TRACE("iter=" + std::to_string(iter) +
                   " warm=" + std::to_string(warm));
      IncrementalProfiler prof;
      ASSERT_TRUE(IncrementalProfiler::Begin(base, {}, &prof).ok());
      prof.set_warm_start(warm);

      std::vector<RowBatch> prefix = {batches[0]};
      for (size_t b = 1; b < batches.size(); ++b) {
        ASSERT_TRUE(prof.Append(batches[b]).ok());
        prefix.push_back(batches[b]);
        const Table concat = Concat(schema, prefix);
        EXPECT_EQ(prof.fingerprint(), TableFingerprint(concat));
        EXPECT_TRUE(prof.current());
        EXPECT_EQ(Canon(concat, prof.report()),
                  Canon(concat, Oracle(concat)));
      }
    }
  }
}

// Absorb/Refresh coalescing: several Absorbs followed by one Refresh equal
// the same batches appended one at a time.
TEST(AppendEquivalence, CoalescedAbsorbsMatchPerBatchAppends) {
  uint64_t state = 77;
  const Schema schema = MakeSchema(3);
  std::vector<RowBatch> batches;
  int64_t rows = 0;
  for (int b = 0; b < 4; ++b) {
    const int64_t n = 50 + static_cast<int64_t>(Next(&state) % 100);
    batches.push_back(MakeBatch(3, n, rows, &state));
    rows += n;
  }
  const Table base = Concat(schema, {batches[0]});

  IncrementalProfiler coalesced, per_batch;
  ASSERT_TRUE(IncrementalProfiler::Begin(base, {}, &coalesced).ok());
  ASSERT_TRUE(IncrementalProfiler::Begin(base, {}, &per_batch).ok());
  for (size_t b = 1; b < batches.size(); ++b) {
    ASSERT_TRUE(coalesced.Absorb(batches[b]).ok());
    ASSERT_TRUE(per_batch.Append(batches[b]).ok());
  }
  EXPECT_FALSE(coalesced.current());
  ASSERT_TRUE(coalesced.Refresh().ok());
  EXPECT_TRUE(coalesced.current());

  const Table concat = Concat(schema, batches);
  EXPECT_EQ(coalesced.fingerprint(), per_batch.fingerprint());
  EXPECT_EQ(Canon(concat, coalesced.report()),
            Canon(concat, per_batch.report()));
  EXPECT_EQ(Canon(concat, coalesced.report()), Canon(concat, Oracle(concat)));
}

// Spilled base tables: AppendState::Begin reads codes back through the
// GRDL mapping; everything downstream must be identical to a resident base.
TEST(AppendEquivalence, SpilledBaseTableMatchesResident) {
  const std::string dir = ::testing::TempDir() + "gordian_inc_spill_" +
                          std::to_string(::getpid());
  ASSERT_TRUE(DefaultFileSystem()->CreateDir(dir).ok());
  uint64_t state = 5;
  const Schema schema = MakeSchema(4);
  std::vector<RowBatch> batches = {MakeBatch(4, 3000, 0, &state),
                                   MakeBatch(4, 200, 3000, &state)};

  SpillPolicy spill;
  spill.memory_budget_bytes = 1 << 10;
  spill.spill_dir = dir;
  spill.chunk_rows = 512;
  TableBuilder spilling(schema, spill);
  spilling.AddBatch(batches[0]);
  Table spilled_base;
  ASSERT_TRUE(spilling.Build(&spilled_base).ok());
  ASSERT_EQ(spilled_base.spilled_column_count(), spilled_base.num_columns());

  IncrementalProfiler prof;
  ASSERT_TRUE(IncrementalProfiler::Begin(spilled_base, {}, &prof).ok());
  ASSERT_TRUE(prof.Append(batches[1]).ok());

  const Table concat = Concat(schema, batches);
  EXPECT_EQ(prof.fingerprint(), TableFingerprint(concat));
  EXPECT_EQ(Canon(concat, prof.report()), Canon(concat, Oracle(concat)));
}

// ---------------------------------------------------------------------------
// Monotonicity: appends only create non-keys, never retract one.

TEST(Monotonicity, PriorNonKeysStayCoveredAfterEveryBatch) {
  const int iters = FuzzIters();
  for (int iter = 0; iter < iters; ++iter) {
    uint64_t state = 1234u + static_cast<uint64_t>(iter);
    const Schema schema = MakeSchema(4);
    std::vector<RowBatch> prefix = {MakeBatch(4, 120, 0, &state)};
    IncrementalProfiler prof;
    ASSERT_TRUE(
        IncrementalProfiler::Begin(Concat(schema, prefix), {}, &prof).ok());

    int64_t rows = 120;
    std::vector<AttributeSet> prior = prof.report().non_keys;
    for (int b = 0; b < 3; ++b) {
      const int64_t n = 1 + static_cast<int64_t>(Next(&state) % 200);
      ASSERT_TRUE(prof.Append(MakeBatch(4, n, rows, &state)).ok());
      rows += n;
      // Every prior maximal non-key must still be covered by some maximal
      // non-key of the grown table: duplicates on a projection cannot
      // disappear by adding rows.
      const std::vector<AttributeSet>& now = prof.report().non_keys;
      for (const AttributeSet& old_nk : prior) {
        bool covered = false;
        for (const AttributeSet& nk : now) {
          if (nk.Covers(old_nk)) {
            covered = true;
            break;
          }
        }
        EXPECT_TRUE(covered) << "batch " << b << ": prior non-key "
                             << old_nk.ToString() << " no longer covered";
      }
      prior = now;
    }
  }
}

TEST(Monotonicity, ShrinkingDeltaSeedsAreRejectedWithClearStatus) {
  // "Grown" table: two rows duplicated on {0,1}, so {0,1} is a non-key.
  TableBuilder grown_b(MakeSchema(2));
  grown_b.AddRow({Value(int64_t{1}), Value("x")});
  grown_b.AddRow({Value(int64_t{1}), Value("x")});
  grown_b.AddRow({Value(int64_t{2}), Value("y")});
  Table grown = grown_b.Build();
  IncrementalProfiler grown_prof;
  ASSERT_TRUE(IncrementalProfiler::Begin(grown, {}, &grown_prof).ok());
  std::vector<AttributeSet> grown_non_keys = grown_prof.report().non_keys;
  ASSERT_FALSE(grown_non_keys.empty());

  // "Shrunk" table: the duplicate row was removed, so {0,1} is unique and
  // the old non-keys are no longer sound seeds.
  TableBuilder shrunk_b(MakeSchema(2));
  shrunk_b.AddRow({Value(int64_t{1}), Value("x")});
  shrunk_b.AddRow({Value(int64_t{2}), Value("y")});
  Table shrunk = shrunk_b.Build();
  IncrementalProfiler shrunk_prof;
  ASSERT_TRUE(IncrementalProfiler::Begin(shrunk, {}, &shrunk_prof).ok());

  Status s = shrunk_prof.SeedWarmStart(grown_non_keys);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(s.ToString().find("unique"), std::string::npos) << s.ToString();

  // The rejection left the profiler sound: a subsequent append still
  // matches the oracle (the bad seeds were not installed).
  RowBatch delta(2);
  delta.AppendRow({Value(int64_t{3}), Value("x")});
  ASSERT_TRUE(shrunk_prof.Append(delta).ok());
  TableBuilder concat_b(MakeSchema(2));
  concat_b.AddRow({Value(int64_t{1}), Value("x")});
  concat_b.AddRow({Value(int64_t{2}), Value("y")});
  concat_b.AddRow({Value(int64_t{3}), Value("x")});
  Table concat = concat_b.Build();
  EXPECT_EQ(Canon(concat, shrunk_prof.report()),
            Canon(concat, Oracle(concat)));

  // Seeds from this profiler's own past ARE sound and are accepted.
  EXPECT_TRUE(shrunk_prof.SeedWarmStart(shrunk_prof.report().non_keys).ok());
}

// ---------------------------------------------------------------------------
// Cancellation and budgets mid-append: the tree must stay valid.

TEST(AppendAborts, CancelMidAbsorbLeavesValidTreeAndResumes) {
  uint64_t state = 31;
  const Schema schema = MakeSchema(3);
  std::vector<RowBatch> batches = {MakeBatch(3, 300, 0, &state),
                                   MakeBatch(3, 600, 300, &state)};
  std::atomic<bool> cancel{false};
  GordianOptions opts;
  opts.cancel_flag = &cancel;
  IncrementalProfiler prof;
  ASSERT_TRUE(
      IncrementalProfiler::Begin(Concat(schema, {batches[0]}), opts, &prof)
          .ok());

  // Cancel before the absorb starts: no delta row enters the tree, the
  // report says incomplete/kCancelled, and the profiler stays consistent.
  cancel.store(true);
  ASSERT_TRUE(prof.Append(batches[1]).ok());
  EXPECT_FALSE(prof.current());
  EXPECT_TRUE(prof.report().incomplete);
  EXPECT_EQ(prof.report().incomplete_reason, AbortReason::kCancelled);
  EXPECT_LT(prof.tree_rows(), prof.num_rows());

  // Clearing the flag and refreshing resumes from where the absorb stopped
  // and converges to the oracle.
  cancel.store(false);
  ASSERT_TRUE(prof.Refresh().ok());
  EXPECT_TRUE(prof.current());
  EXPECT_EQ(prof.tree_rows(), prof.num_rows());
  const Table concat = Concat(schema, batches);
  EXPECT_EQ(prof.fingerprint(), TableFingerprint(concat));
  EXPECT_EQ(Canon(concat, prof.report()), Canon(concat, Oracle(concat)));
}

TEST(AppendAborts, NonKeyBudgetAbortKeepsProfilerUsable) {
  uint64_t state = 13;
  const Schema schema = MakeSchema(5);
  std::vector<RowBatch> batches = {MakeBatch(5, 400, 0, &state),
                                   MakeBatch(5, 100, 400, &state)};
  GordianOptions opts;
  opts.max_non_keys = 1;  // trips almost immediately on this data
  IncrementalProfiler prof;
  ASSERT_TRUE(
      IncrementalProfiler::Begin(Concat(schema, {batches[0]}), opts, &prof)
          .ok());

  ASSERT_TRUE(prof.Append(batches[1]).ok());
  // The search budget keeps the run incomplete, but the append-side state
  // is exact: every row is in the tree and the fingerprint is current.
  const Table concat = Concat(schema, batches);
  EXPECT_EQ(prof.fingerprint(), TableFingerprint(concat));
  EXPECT_EQ(prof.tree_rows(), prof.num_rows());
  if (prof.report().incomplete) {
    EXPECT_EQ(prof.report().incomplete_reason, AbortReason::kNonKeyBudget);
    EXPECT_TRUE(prof.report().keys.empty());
  }
}

// ---------------------------------------------------------------------------
// Fingerprint accumulator: O(delta) maintenance equals the full recompute.

TEST(FingerprintAccumulator, MatchesTableFingerprintAfterEveryBatch) {
  uint64_t state = 8;
  const Schema schema = MakeSchema(4);
  std::vector<RowBatch> prefix = {MakeBatch(4, 100, 0, &state)};
  AppendState append_state;
  ASSERT_TRUE(
      AppendState::Begin(Concat(schema, prefix), &append_state).ok());
  int64_t rows = 100;
  for (int b = 0; b < 4; ++b) {
    const int64_t n = 1 + static_cast<int64_t>(Next(&state) % 300);
    RowBatch batch = MakeBatch(4, n, rows, &state);
    rows += n;
    ASSERT_TRUE(append_state.Absorb(batch).ok());
    prefix.push_back(std::move(batch));
    const Table concat = Concat(schema, prefix);
    EXPECT_EQ(append_state.fingerprint(), TableFingerprint(concat))
        << "batch " << b;
    EXPECT_EQ(TableFingerprint(append_state.Snapshot()),
              TableFingerprint(concat));
  }
  // Column-count mismatch is rejected before any state changes.
  RowBatch bad(3);
  bad.AppendRow({Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{3})});
  const uint64_t before = append_state.fingerprint();
  EXPECT_EQ(append_state.Absorb(bad).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(append_state.fingerprint(), before);
}

// ---------------------------------------------------------------------------
// Service: RegisterAppendable / AppendAndReprofile.

TEST(ServiceAppend, AppendAndReprofileChainsAndCatalogs) {
  uint64_t state = 21;
  const Schema schema = MakeSchema(3);
  std::vector<RowBatch> batches = {MakeBatch(3, 200, 0, &state),
                                   MakeBatch(3, 80, 200, &state),
                                   MakeBatch(3, 50, 280, &state)};
  const Table base = Concat(schema, {batches[0]});

  ServiceOptions soptions;
  soptions.num_threads = 2;
  ProfilingService service(soptions);

  uint64_t fp = 0;
  ASSERT_TRUE(service.RegisterAppendable("t", base, {}, &fp).ok());
  EXPECT_EQ(fp, TableFingerprint(base));
  EXPECT_TRUE(service.catalog().Contains(fp));

  std::vector<RowBatch> prefix = {batches[0]};
  uint64_t head = fp;
  for (size_t b = 1; b < batches.size(); ++b) {
    AppendOutcome out;
    ASSERT_TRUE(service.AppendAndReprofile(head, batches[b], &out).ok());
    prefix.push_back(batches[b]);
    const Table concat = Concat(schema, prefix);
    EXPECT_EQ(out.fingerprint, TableFingerprint(concat));
    // The base tree was admitted at registration and never contended here,
    // so every append takes the absorb fast path.
    EXPECT_TRUE(out.tree_absorbed);
    EXPECT_FALSE(out.result.incomplete);
    EXPECT_EQ(Canon(concat, out.result), Canon(concat, Oracle(concat)));
    EXPECT_TRUE(service.catalog().Contains(out.fingerprint));
    head = out.fingerprint;
  }

  // Stale/unknown handles: the chain has advanced past the original
  // fingerprint, so it is simply no longer registered.
  AppendOutcome out;
  EXPECT_EQ(service.AppendAndReprofile(fp, batches[1], &out).code(),
            Status::Code::kNotFound);
  EXPECT_EQ(service.AppendAndReprofile(0xdeadbeef, batches[1], &out).code(),
            Status::Code::kNotFound);

  const ServiceMetrics::Snapshot m = service.Metrics();
  EXPECT_EQ(m[Counter::kAppends], 2);
  EXPECT_EQ(m[Counter::kAppendAbsorbs], 2);
  EXPECT_EQ(m[Counter::kDeltaRows], 130);
  ASSERT_NE(service.tree_cache(), nullptr);
  EXPECT_EQ(service.tree_cache()->GetStats().rekeys, 2);

  // Warm start engaged: the second append was seeded from the first's
  // non-keys (counted only when the traversal actually pruned off them,
  // so assert the seed made it through rather than a specific count).
  EXPECT_GE(m[Counter::kWarmStartPrunes], 0);

  // Sampling cannot be registered (re-sampling is not append-monotone).
  GordianOptions sampling;
  sampling.sample_rows = 16;
  EXPECT_EQ(service.RegisterAppendable("s", base, sampling, nullptr).code(),
            Status::Code::kInvalidArgument);
}

// An append that repeats a base row makes the data keyless; the absorbed
// tree must carry the duplicate flag through the rekey so the chain keeps
// reporting no_keys on the next append.
TEST(ServiceAppend, DuplicateRowMakesChainKeylessAndItStaysSo) {
  uint64_t state = 57;
  const Schema schema = MakeSchema(4);
  RowBatch base_batch = MakeBatch(4, 150, 0, &state);
  // Column 0 alone is not unique here, but the base has no repeated entity.
  const Table base = Concat(schema, {base_batch});
  ASSERT_FALSE(Oracle(base).no_keys);

  RowBatch repeat = MakeBatch(4, 20, 150, &state);
  std::vector<Value> base_row;
  for (int c = 0; c < 4; ++c) base_row.push_back(base.value(37, c));
  repeat.AppendRow(base_row);
  std::vector<RowBatch> batches = {base_batch, repeat,
                                   MakeBatch(4, 30, 171, &state)};

  ServiceOptions soptions;
  soptions.num_threads = 1;
  ProfilingService service(soptions);
  uint64_t head = 0;
  ASSERT_TRUE(service.RegisterAppendable("t", base, {}, &head).ok());
  std::vector<RowBatch> prefix = {base_batch};
  for (size_t b = 1; b < batches.size(); ++b) {
    AppendOutcome out;
    ASSERT_TRUE(service.AppendAndReprofile(head, batches[b], &out).ok());
    prefix.push_back(batches[b]);
    const Table concat = Concat(schema, prefix);
    EXPECT_TRUE(out.tree_absorbed);
    EXPECT_TRUE(out.result.no_keys) << "append " << b;
    EXPECT_EQ(Canon(concat, out.result), Canon(concat, Oracle(concat)));
    head = out.fingerprint;
  }
}

// After an append the cache entry lives on under the new fingerprint: a
// plain profile of the grown table hits it without freezing anything, and
// resident bytes are exactly the resident trees' ApproxBytes().
TEST(ServiceAppend, AppendedTreeServesHitsAndBytesStayExact) {
  uint64_t state = 77;
  const Schema schema = MakeSchema(3);
  std::vector<RowBatch> batches = {MakeBatch(3, 240, 0, &state),
                                   MakeBatch(3, 60, 240, &state)};
  const Table base = Concat(schema, {batches[0]});
  const Table concat = Concat(schema, batches);

  ServiceOptions soptions;
  soptions.num_threads = 1;
  ProfilingService service(soptions);
  TreeArtifactCache* cache = service.tree_cache();
  ASSERT_NE(cache, nullptr);
  uint64_t fp = 0;
  ASSERT_TRUE(service.RegisterAppendable("t", base, {}, &fp).ok());
  AppendOutcome out;
  ASSERT_TRUE(service.AppendAndReprofile(fp, batches[1], &out).ok());
  ASSERT_TRUE(out.tree_absorbed);
  EXPECT_GT(out.refreeze_seconds, 0.0);
  EXPECT_FALSE(cache->Contains(MakeTreeCacheKey(fp, 3, {})));

  const TreeArtifactCache::Stats before = cache->GetStats();
  ProfileJobOptions job;
  job.use_catalog = false;  // force discovery, not a catalog hit
  ProfileOutcome hit = service.Wait(service.SubmitTable("grown", &concat, job));
  ASSERT_EQ(hit.info.state, JobState::kSucceeded);
  EXPECT_TRUE(hit.tree_cache_hit);
  EXPECT_EQ(Canon(concat, hit.result), Canon(concat, Oracle(concat)));
  const TreeArtifactCache::Stats after = cache->GetStats();
  EXPECT_EQ(after.insertions, before.insertions);  // nothing was rebuilt
  EXPECT_EQ(after.hits, before.hits + 1);

  // A second, unrelated table adds a second resident entry.
  const Table other = Concat(schema, {MakeBatch(3, 90, 0, &state)});
  ASSERT_EQ(service.Wait(service.SubmitTable("other", &other, job)).info.state,
            JobState::kSucceeded);
  int64_t resident = 0;
  for (const Table* t : {&concat, &other}) {
    TreeArtifactCache::Lease lease =
        cache->Acquire(MakeTreeCacheKey(TableFingerprint(*t), 3, {}));
    ASSERT_TRUE(lease.valid());
    resident += lease.frozen()->ApproxBytes();
  }
  const TreeArtifactCache::Stats stats = cache->GetStats();
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.bytes, resident);
}

// The lease regression: a read-only Profile of the same fingerprint racing
// an AppendAndReprofile must never see a half-absorbed tree. Exercised here
// (and under TSan in CI) by racing the two paths over identical content.
TEST(ServiceAppend, ConcurrentProfileNeverSeesHalfAbsorbedTree) {
  uint64_t state = 42;
  const Schema schema = MakeSchema(3);
  const int rounds = FuzzIters();
  for (int round = 0; round < rounds; ++round) {
    std::vector<RowBatch> batches = {
        MakeBatch(3, 300, 0, &state),
        MakeBatch(3, 120, 300, &state),
    };
    const Table base = Concat(schema, {batches[0]});
    const Table concat = Concat(schema, batches);

    ServiceOptions soptions;
    soptions.num_threads = 2;
    ProfilingService service(soptions);
    uint64_t fp = 0;
    ASSERT_TRUE(service.RegisterAppendable("t", base, {}, &fp).ok());

    // The read-only job profiles a private table with the SAME fingerprint
    // as the chain's base: if it wins the lease the append falls back to a
    // snapshot rebuild; if the append wins, the job busy-misses and builds
    // privately. Either interleaving must produce oracle-exact results.
    ProfileJobOptions job;
    job.use_catalog = false;  // force discovery, not a catalog hit
    JobId id = service.SubmitTable("t_reader", &base, job);

    AppendOutcome out;
    ASSERT_TRUE(service.AppendAndReprofile(fp, batches[1], &out).ok());

    ProfileOutcome reader = service.Wait(id);
    ASSERT_EQ(reader.info.state, JobState::kSucceeded);
    EXPECT_EQ(Canon(base, reader.result), Canon(base, Oracle(base)));
    EXPECT_EQ(Canon(concat, out.result), Canon(concat, Oracle(concat)));
    EXPECT_EQ(out.fingerprint, TableFingerprint(concat));
  }
}

// ---------------------------------------------------------------------------
// StreamingProfiler: keys-current mode and ingest accounting.

TEST(KeysCurrent, FullModeTracksOracleAcrossBatches) {
  uint64_t state = 63;
  const Schema schema = MakeSchema(3);
  std::vector<RowBatch> batches;
  int64_t rows = 0;
  for (int b = 0; b < 4; ++b) {
    const int64_t n = 40 + static_cast<int64_t>(Next(&state) % 120);
    batches.push_back(MakeBatch(3, n, rows, &state));
    rows += n;
  }

  StreamingProfiler profiler(schema);
  profiler.AddBatch(batches[0]);
  // Enabled mid-stream: rows ingested so far become the incremental base.
  ASSERT_TRUE(profiler.EnableKeysCurrent().ok());
  EXPECT_TRUE(profiler.keys_current());

  std::vector<RowBatch> prefix = {batches[0]};
  for (size_t b = 1; b < batches.size(); ++b) {
    profiler.AddBatch(batches[b]);
    prefix.push_back(batches[b]);
    ASSERT_TRUE(profiler.RefreshKeys().ok());
    const Table concat = Concat(schema, prefix);
    EXPECT_EQ(Canon(concat, profiler.current_report()),
              Canon(concat, Oracle(concat)));
  }

  // Row-at-a-time ingest flows through the same incremental engine.
  std::vector<Value> extra = RandomRow(3, rows, &state);
  profiler.AddRow(extra);
  ASSERT_TRUE(profiler.RefreshKeys().ok());
  TableBuilder concat_b(schema);
  for (const RowBatch& batch : batches) concat_b.AddBatch(batch);
  concat_b.AddRow(extra);
  const Table concat = concat_b.Build();
  EXPECT_EQ(Canon(concat, profiler.current_report()),
            Canon(concat, Oracle(concat)));

  // Finish returns the same (complete) report and resets the profiler.
  KeyDiscoveryResult finished;
  ASSERT_TRUE(profiler.Finish(&finished).ok());
  EXPECT_EQ(Canon(concat, finished), Canon(concat, Oracle(concat)));
  EXPECT_EQ(profiler.rows_seen(), 0);
  EXPECT_FALSE(profiler.keys_current());
  EXPECT_EQ(profiler.ingest_stats().rows, 0);
}

TEST(KeysCurrent, ReservoirModeRefreshesFromSample) {
  uint64_t state = 71;
  const Schema schema = MakeSchema(3);
  GordianOptions opts;
  opts.sample_rows = 64;
  StreamingProfiler profiler(schema, opts);
  ASSERT_TRUE(profiler.EnableKeysCurrent().ok());

  profiler.AddBatch(MakeBatch(3, 500, 0, &state));
  ASSERT_TRUE(profiler.RefreshKeys().ok());
  EXPECT_TRUE(profiler.current_report().sampled);
  // The refresh is a point-in-time view; ingest continues unaffected.
  profiler.AddBatch(MakeBatch(3, 500, 500, &state));
  EXPECT_EQ(profiler.rows_seen(), 1000);
  ASSERT_TRUE(profiler.RefreshKeys().ok());
  KeyDiscoveryResult finished;
  ASSERT_TRUE(profiler.Finish(&finished).ok());
  EXPECT_TRUE(finished.sampled);
}

TEST(KeysCurrent, RefreshWithoutEnableIsAnError) {
  StreamingProfiler profiler(MakeSchema(2));
  EXPECT_EQ(profiler.RefreshKeys().code(), Status::Code::kInvalidArgument);
}

// The ingest-accounting pin: rows are counted exactly once per public
// AddRow/AddBatch call — keys-current delta absorption and reservoir
// replacement must not double-count them.
TEST(IngestAccounting, CountersAreExactAcrossModes) {
  uint64_t state = 90;
  const Schema schema = MakeSchema(3);
  RowBatch b1 = MakeBatch(3, 100, 0, &state);
  RowBatch b2 = MakeBatch(3, 60, 100, &state);
  const int64_t want_bytes = b1.ByteSize() + b2.ByteSize();

  // Full mode with keys-current enabled: the batches flow through both the
  // public boundary and the incremental engine — counted once.
  StreamingProfiler full(schema);
  ASSERT_TRUE(full.EnableKeysCurrent().ok());
  full.AddBatch(b1);
  full.AddBatch(b2);
  full.AddRow(RandomRow(3, 160, &state));
  EXPECT_EQ(full.ingest_stats().batches, 2);
  EXPECT_EQ(full.ingest_stats().rows, 161);
  EXPECT_EQ(full.ingest_stats().bytes, want_bytes);

  // Reservoir mode: replacement re-encodes rows internally; still one
  // count per ingested row.
  GordianOptions sampled;
  sampled.sample_rows = 16;
  StreamingProfiler reservoir(schema, sampled);
  reservoir.AddBatch(b1);
  reservoir.AddBatch(b2);
  EXPECT_EQ(reservoir.ingest_stats().batches, 2);
  EXPECT_EQ(reservoir.ingest_stats().rows, 160);
  EXPECT_EQ(reservoir.ingest_stats().bytes, want_bytes);

  // ProfileCsvFile surfaces the profiler's accounting verbatim.
  const std::string dir = ::testing::TempDir();
  const std::string path =
      dir + "/gordian_ingest_" + std::to_string(::getpid()) + ".csv";
  std::string body = "a,b\n";
  for (int i = 0; i < 100; ++i) {
    body += std::to_string(i) + ",v" + std::to_string(i % 7) + "\n";
  }
  ASSERT_TRUE(DefaultFileSystem()->WriteFile(path, body).ok());
  KeyDiscoveryResult result;
  IngestStats stats;
  ASSERT_TRUE(
      ProfileCsvFile(path, CsvOptions{}, GordianOptions{}, &result, &stats)
          .ok());
  EXPECT_EQ(stats.rows, 100);
  EXPECT_GT(stats.bytes, 0);
  EXPECT_GE(stats.batches, 1);
}

}  // namespace
}  // namespace gordian
