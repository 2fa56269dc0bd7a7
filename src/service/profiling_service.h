#ifndef GORDIAN_SERVICE_PROFILING_SERVICE_H_
#define GORDIAN_SERVICE_PROFILING_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "core/gordian.h"
#include "core/incremental.h"
#include "core/streaming.h"
#include "service/catalog_store.h"
#include "service/job_scheduler.h"
#include "service/key_catalog.h"
#include "service/metrics.h"
#include "service/table_artifacts.h"
#include "service/tree_cache.h"
#include "table/csv.h"
#include "table/fingerprint.h"
#include "table/table.h"

namespace gordian {

struct ServiceOptions {
  // Worker threads; 0 means one per hardware thread.
  int num_threads = 0;

  // When non-null, the service reads and writes this shared catalog
  // (which must outlive the service) instead of its own private one —
  // e.g. a catalog preloaded with ReadCatalogFile.
  KeyCatalog* catalog = nullptr;

  // Byte budget for the prefix-tree artifact cache (LRU over frozen trees,
  // measured by FrozenTree::ApproxBytes()): jobs re-profiling an unchanged
  // table under different budgets/options skip the tree build. 0 disables
  // the cache.
  int64_t tree_cache_bytes = TreeArtifactCache::kDefaultByteBudget;

  // When non-empty, the catalog is durably backed by this directory through
  // a CatalogStore: surviving shards load at construction (corrupt ones are
  // quarantined — see persistence_status()), a background flusher rewrites
  // dirty shards after every `flush_every_puts` catalog stores, and the
  // destructor performs a final flush. The service holds the directory's
  // writer lease for its lifetime, so a second service over the same
  // directory must open it read-only via its own CatalogStore.
  std::string catalog_dir;

  // Catalog puts between background flushes; <= 0 flushes only at shutdown
  // (and whenever FlushCatalog() is called).
  int flush_every_puts = 32;

  // File-system seam for the catalog and artifact stores; null = the real
  // one. Tests substitute a FaultInjectionFs.
  FileSystem* fs = nullptr;

  // When non-empty, completed table jobs persist their (fingerprint-keyed)
  // ingested tables into a TableArtifactStore rooted here — the table
  // companion of catalog_dir: the catalog remembers results, this
  // remembers the tables themselves, reloadable as mmap-backed columns.
  std::string table_artifact_dir;

  // Ingest spill policy for CSV jobs: when both are set, a CSV job's
  // retained table streams cold columns to GRDL files under spill_dir once
  // resident code bytes exceed the budget (TableBuilder SpillPolicy
  // semantics; 0 or an empty dir disables spilling).
  std::string spill_dir;
  int64_t spill_memory_budget = 0;
};

// Per-job knobs for a profiling submission.
struct ProfileJobOptions {
  GordianOptions gordian;

  // Larger runs earlier; FIFO among equals (JobScheduler semantics).
  int priority = 0;

  // Wall-clock cap on the job's discovery search. Folded into
  // GordianOptions::time_budget_seconds (taking the smaller of the two);
  // a job that trips it returns an incomplete result with reason
  // kTimeBudget. 0 = no cap beyond what `gordian` already sets.
  double timeout_seconds = 0;

  // Consult the key catalog before running and store the (complete) result
  // after. Off for callers that want a forced re-profile.
  bool use_catalog = true;

  // Consult/populate the service's TreeArtifactCache: a job whose table,
  // sample spec, and tree-shape options match a cached artifact skips the
  // tree-build stage and goes straight to traversal. Independent of
  // use_catalog — a forced re-profile still reuses the tree.
  bool use_tree_cache = true;
};

// Result of one AppendAndReprofile call.
struct AppendOutcome {
  // Content fingerprint of the table after the delta — the handle for the
  // next append in the chain, and the key the updated result was catalogued
  // under.
  uint64_t fingerprint = 0;
  // True when the delta was absorbed into the cached frozen tree; false
  // when the tree was unavailable (cache disabled, evicted, or leased by a
  // concurrent run) and discovery rebuilt from a snapshot instead.
  bool tree_absorbed = false;
  // Wall clock of bringing the cached frozen tree up to date: the
  // FrozenTree::Absorb of the delta, which replaces the refreeze appends
  // used to pay (0 when the rebuild path ran).
  double refreeze_seconds = 0;
  KeyDiscoveryResult result;
};

// Everything known about a finished job. For coalesced submissions the
// result/fingerprint are the primary job's.
struct ProfileOutcome {
  JobInfo info;             // info.valid == false iff the id is unknown
  bool cache_hit = false;   // served from the catalog without discovery
  bool tree_cache_hit = false;  // discovery ran but reused a cached tree
  bool coalesced = false;   // piggybacked on an identical in-flight job
  uint64_t fingerprint = 0; // 0 for CSV jobs (streams are not fingerprinted)
  std::string table_name;
  KeyDiscoveryResult result;
};

// The concurrent profiling front-end: submit tables (or CSV files) for key
// discovery, poll or wait for results, cancel what you no longer need. Jobs
// run on a priority scheduler across a thread pool; results of complete
// runs land in a fingerprint-keyed KeyCatalog so re-profiling an unchanged
// table is a cache hit that skips discovery entirely. Discovery itself is
// the staged pipeline of core/pipeline.h, composed through the
// TreeArtifactCache: jobs that miss the catalog (different budgets, forced
// re-profiles) but match a cached prefix-tree artifact skip the tree-build
// stage and pay only traversal + conversion.
//
// Concurrency notes:
//  - Every public method is thread-safe.
//  - A Table submitted by pointer must stay alive and unmodified until its
//    job is terminal.
//  - Submitting the same Table object while a job for it is in flight
//    coalesces: the new JobId tracks the first job instead of scheduling a
//    second discovery (and instead of racing on the table's lazy caches).
//    Coalesced jobs cannot be cancelled independently of their primary.
class ProfilingService {
 public:
  explicit ProfilingService(ServiceOptions options = {});
  ~ProfilingService();

  ProfilingService(const ProfilingService&) = delete;
  ProfilingService& operator=(const ProfilingService&) = delete;

  // Schedules key discovery over `*table`.
  JobId SubmitTable(const std::string& name, const Table* table,
                    const ProfileJobOptions& options = {});

  // Schedules single-pass streaming discovery over a CSV file
  // (StreamingProfiler under the hood; reservoir-sampled when
  // options.gordian.sample_rows > 0). CSV jobs bypass the catalog: the
  // stream's content is unknown until read. An unreadable or malformed
  // file finishes as kFailed with the parser's message.
  JobId SubmitCsv(const std::string& name, const std::string& path,
                  const CsvOptions& csv_options,
                  const ProfileJobOptions& options = {});

  // Requests cancellation (JobScheduler semantics). Returns false for
  // unknown, already-terminal, or coalesced jobs.
  bool Cancel(JobId id);

  // Non-blocking job state; for coalesced jobs, the primary's state.
  JobInfo Poll(JobId id) const;

  // Blocks until the job is terminal and returns the full outcome. The
  // result is meaningful for kSucceeded jobs and carries the partial
  // (incomplete) result for cancelled/timed-out discovery runs.
  ProfileOutcome Wait(JobId id);

  // Blocks until every accepted job is terminal.
  void WaitAll();

  // Drops the record of a terminal job, after which its id polls invalid.
  // Returns false for unknown or non-terminal jobs, and for a primary job
  // while a coalesced submission still refers to it: forget the aliases
  // first. A primary's scheduler record goes with it. No other thread may
  // be waiting on the job (or on one of its aliases) when it is forgotten.
  bool Forget(JobId id);

  // Registers `table` as the base of an appendable chain and profiles it
  // synchronously (through the tree cache, so the base tree is resident for
  // the first append to absorb into). The chain's handle — the table's
  // content fingerprint — is returned through *fingerprint (optional; it
  // also lands in the catalog like any completed job). `options` is pinned
  // for the chain's lifetime and must not require the raw table on every
  // run: sampling and null-excluding semantics are rejected with
  // InvalidArgument. The caller's `table` is deep-copied into append state
  // and may be dropped afterwards.
  Status RegisterAppendable(const std::string& name, const Table& table,
                            const GordianOptions& options = {},
                            uint64_t* fingerprint = nullptr);

  // Appends `batch` to the chain currently headed by `fingerprint` and
  // brings its discovery result current, synchronously. The fast path
  // acquires the chain's cached frozen tree under an exclusive lease,
  // absorbs the delta into it, re-traverses warm-started from the prior
  // non-keys, and rekeys the cache entry to the new fingerprint — the lease
  // is held throughout, so a concurrent read-only Profile of the old
  // fingerprint busy-misses rather than observing a half-absorbed tree.
  // When the tree is unavailable the chain re-profiles a snapshot (still
  // warm-started). Appends to the same chain serialize; `fingerprint` must
  // be the chain's current head (the value the previous call returned) —
  // a stale handle fails with FailedPrecondition, an unknown one with
  // NotFound. Complete results are catalogued under the new fingerprint.
  Status AppendAndReprofile(uint64_t fingerprint, const RowBatch& batch,
                            AppendOutcome* out = nullptr);

  // The catalog in use (the service's own, or ServiceOptions::catalog).
  KeyCatalog& catalog() { return *catalog_; }

  // The durable store backing the catalog; null unless
  // ServiceOptions::catalog_dir was set and its directory opened.
  CatalogStore* catalog_store() { return catalog_store_.get(); }

  // Health of the durable catalog: OK when persistence is off or everything
  // has worked, Partial when recovery quarantined shards (the survivors are
  // loaded), otherwise the error that disabled persistence at open or the
  // most recent flush failure.
  Status persistence_status() const;

  // How recovery went at construction time (all zeros when persistence is
  // off or the directory was fresh).
  const RecoveryReport& recovery_report() const { return recovery_report_; }

  // Synchronously rewrites dirty catalog shards. OK no-op without a store.
  Status FlushCatalog();

  // The prefix-tree artifact cache; null when disabled
  // (ServiceOptions::tree_cache_bytes == 0).
  TreeArtifactCache* tree_cache() { return tree_cache_.get(); }

  // The durable table store; null unless ServiceOptions::table_artifact_dir
  // was set and its directory was usable.
  TableArtifactStore* artifact_store() { return artifact_store_.get(); }

  // Counter snapshot with live queue depth / running count filled in.
  ServiceMetrics::Snapshot Metrics() const;

  // The counters behind Metrics(), for front-ends that count their own
  // work into the same snapshot (the fleet worker's RPC server and sheds).
  ServiceMetrics* mutable_metrics() { return &metrics_; }

  int num_threads() const { return scheduler_.num_threads(); }

  // The underlying scheduler, for composite front-ends (SchemaProfiler)
  // that fan their own work units across the same pool.
  JobScheduler& scheduler() { return scheduler_; }

  // ServiceOptions::catalog_dir as configured (empty when persistence is
  // off). SchemaProfiler drops its SchemaReport artifact next to it.
  const std::string& catalog_dir() const { return catalog_dir_; }

 private:
  struct Record {
    std::string name;
    const Table* table = nullptr;  // table jobs only
    JobId alias_of = 0;            // != 0 for coalesced submissions
    int aliases = 0;  // live coalesced records referring to this primary
    // Written by the worker before the job turns terminal; read only
    // through Wait (the scheduler's completion handshake orders the two).
    bool started = false;  // body entered; false for cancelled-while-queued
    uint64_t fingerprint = 0;
    bool cache_hit = false;
    bool tree_cache_hit = false;
    KeyDiscoveryResult result;
  };

  // One registered append chain. `chain_mu` serializes appends; the
  // registry map (appendables_, under append_mu_) is keyed by the chain's
  // current head fingerprint and rekeyed after every successful append.
  struct Appendable {
    std::string name;
    GordianOptions options;
    AppendState state;
    // Non-keys of the last COMPLETE run — the warm-start seed for the next
    // append (sound because appends never retract a non-key).
    std::vector<AttributeSet> last_non_keys;
    std::mutex chain_mu;
  };

  void RunTableJob(Record* rec, const ProfileJobOptions& options,
                   const JobContext& ctx);
  void RunCsvJob(Record* rec, const std::string& path,
                 const CsvOptions& csv_options,
                 const ProfileJobOptions& options, const JobContext& ctx);
  static GordianOptions EffectiveOptions(const ProfileJobOptions& options,
                                         const JobContext& ctx);

  // True once the scheduler job is terminal, or unknown there: the
  // scheduler only forgets terminal jobs.
  bool SchedulerDone(JobId id) const;

  // Worker-side hook after a successful catalog Put: wakes the background
  // flusher once enough puts have accumulated.
  void NotePut();
  void FlusherMain();

  std::unique_ptr<KeyCatalog> owned_catalog_;
  KeyCatalog* catalog_;
  std::unique_ptr<TreeArtifactCache> tree_cache_;
  std::unique_ptr<TableArtifactStore> artifact_store_;
  SpillPolicy ingest_spill_;
  ServiceMetrics metrics_;

  // Durable catalog persistence (null / default-constructed when off).
  std::unique_ptr<CatalogStore> catalog_store_;
  std::string catalog_dir_;
  RecoveryReport recovery_report_;
  int flush_every_puts_ = 0;
  mutable std::mutex flush_mu_;  // guards the three fields below
  std::condition_variable flush_cv_;
  Status persistence_status_;
  int64_t unflushed_puts_ = 0;
  bool stop_flusher_ = false;
  std::thread flusher_;

  mutable std::mutex append_mu_;  // guards appendables_
  std::unordered_map<uint64_t, std::shared_ptr<Appendable>> appendables_;

  mutable std::mutex mu_;  // guards records_, inflight_, next_alias_id_
  std::map<JobId, std::shared_ptr<Record>> records_;
  // Table pointer -> primary job id, for coalescing. Entries are validated
  // lazily at the next submission of the same table (a stale entry whose
  // job is terminal is simply replaced), so no cleanup hook runs on the
  // worker side; Forget erases the entry of the job it drops.
  std::unordered_map<const Table*, JobId> inflight_;
  // Coalesced submissions get ids from a separate negative space so they
  // can never collide with scheduler-issued ids.
  JobId next_alias_id_ = -1;

  // Declared last: its destructor drains all jobs, whose bodies touch the
  // members above.
  JobScheduler scheduler_;
};

}  // namespace gordian

#endif  // GORDIAN_SERVICE_PROFILING_SERVICE_H_
