#include "service/profiling_service.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

#include "common/stopwatch.h"

namespace gordian {

namespace {

// Wraps a job body with the job accounting: completed, cancelled or
// failed, and the latency since submission (this call).
std::function<void(const JobContext&)> Accounted(
    ServiceMetrics* metrics, std::function<void(const JobContext&)> body) {
  Stopwatch watch;
  return [metrics, body = std::move(body), watch](const JobContext& ctx) {
    try {
      body(ctx);
    } catch (...) {
      metrics->AddFinishedJob(Counter::kJobsFailed, watch.ElapsedSeconds());
      throw;  // the scheduler records the message and marks kFailed
    }
    metrics->AddFinishedJob(
        ctx.Cancelled() ? Counter::kJobsCancelled : Counter::kJobsCompleted,
        watch.ElapsedSeconds());
  };
}

}  // namespace

ProfilingService::ProfilingService(ServiceOptions options)
    : owned_catalog_(options.catalog == nullptr ? new KeyCatalog() : nullptr),
      catalog_(options.catalog == nullptr ? owned_catalog_.get()
                                          : options.catalog),
      tree_cache_(options.tree_cache_bytes > 0
                      ? std::make_unique<TreeArtifactCache>(
                            options.tree_cache_bytes)
                      : nullptr),
      catalog_dir_(options.catalog_dir),
      flush_every_puts_(options.flush_every_puts),
      scheduler_(options.num_threads) {
  ingest_spill_.memory_budget_bytes = options.spill_memory_budget;
  ingest_spill_.spill_dir = options.spill_dir;
  ingest_spill_.fs = options.fs;
  if (ingest_spill_.enabled()) {
    // The spill directory is scratch space; create it up front rather than
    // having CSV jobs race to (CreateDir succeeds when it exists).
    FileSystem* fs = options.fs != nullptr ? options.fs : DefaultFileSystem();
    (void)fs->CreateDir(ingest_spill_.spill_dir);
  }
  if (!options.table_artifact_dir.empty()) {
    TableArtifactStore::Options store_options;
    store_options.fs = options.fs;
    store_options.metrics = &metrics_;
    artifact_store_ = std::make_unique<TableArtifactStore>(
        options.table_artifact_dir, store_options);
    if (!artifact_store_->Init().ok()) {
      // Unusable root: run without table persistence, like an unusable
      // catalog directory runs without result persistence.
      artifact_store_.reset();
    }
  }
  if (!options.catalog_dir.empty()) {
    CatalogStore::Options store_options;
    store_options.mode = CatalogStore::Mode::kReadWrite;
    store_options.fs = options.fs;
    store_options.metrics = &metrics_;
    catalog_store_ = std::make_unique<CatalogStore>(
        options.catalog_dir, catalog_, store_options);
    Status open_status = catalog_store_->Open(&recovery_report_);
    persistence_status_ = open_status;
    if (!open_status.ok() && !open_status.IsPartial()) {
      // Unusable directory (most often: another writer holds the lease).
      // The service still works, just without durability; callers that
      // need the guarantee check persistence_status().
      catalog_store_.reset();
    } else if (flush_every_puts_ > 0) {
      flusher_ = std::thread([this] { FlusherMain(); });
    }
  }
}

ProfilingService::~ProfilingService() {
  // Drain jobs first: their bodies are what put entries into the catalog,
  // and the final flush below must see all of them.
  scheduler_.WaitAll();
  if (flusher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      stop_flusher_ = true;
    }
    flush_cv_.notify_one();
    flusher_.join();
  }
  if (catalog_store_ != nullptr) (void)FlushCatalog();
}

Status ProfilingService::persistence_status() const {
  std::lock_guard<std::mutex> lock(flush_mu_);
  return persistence_status_;
}

Status ProfilingService::FlushCatalog() {
  if (catalog_store_ == nullptr) return Status::OK();
  Status s = catalog_store_->Flush(nullptr);
  if (!s.ok()) {
    std::lock_guard<std::mutex> lock(flush_mu_);
    persistence_status_ = s;
  }
  return s;
}

void ProfilingService::NotePut() {
  if (catalog_store_ == nullptr || flush_every_puts_ <= 0) return;
  bool wake;
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    wake = ++unflushed_puts_ >= flush_every_puts_;
  }
  if (wake) flush_cv_.notify_one();
}

void ProfilingService::FlusherMain() {
  std::unique_lock<std::mutex> lock(flush_mu_);
  for (;;) {
    flush_cv_.wait(lock, [this] {
      return stop_flusher_ || unflushed_puts_ >= flush_every_puts_;
    });
    if (stop_flusher_) return;  // the destructor runs the final flush
    unflushed_puts_ = 0;
    lock.unlock();
    (void)FlushCatalog();
    lock.lock();
  }
}

GordianOptions ProfilingService::EffectiveOptions(
    const ProfileJobOptions& options, const JobContext& ctx) {
  GordianOptions g = options.gordian;
  g.cancel_flag = ctx.cancel_flag;
  if (options.timeout_seconds > 0) {
    g.time_budget_seconds =
        g.time_budget_seconds > 0
            ? std::min(g.time_budget_seconds, options.timeout_seconds)
            : options.timeout_seconds;
  }
  return g;
}

JobId ProfilingService::SubmitTable(const std::string& name,
                                    const Table* table,
                                    const ProfileJobOptions& options) {
  metrics_.Add(Counter::kJobsSubmitted);
  auto rec = std::make_shared<Record>();
  rec->name = name;
  rec->table = table;

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(table);
    if (it != inflight_.end()) {
      // Coalesce onto a live job for the same table; a stale entry (its job
      // already terminal) is dropped and this submission runs fresh.
      if (!SchedulerDone(it->second)) {
        rec->alias_of = it->second;
        ++records_.at(it->second)->aliases;
        JobId id = next_alias_id_--;
        records_.emplace(id, std::move(rec));
        metrics_.Add(Counter::kCoalescedJobs);
        return id;
      }
      inflight_.erase(it);
    }
  }

  auto body = [this, rec, options](const JobContext& ctx) {
    RunTableJob(rec.get(), options, ctx);
  };
  JobId id = scheduler_.Submit(Accounted(&metrics_, body), options.priority);

  {
    std::lock_guard<std::mutex> lock(mu_);
    records_.emplace(id, rec);
    // The job may already have finished on a fast worker; registering it
    // anyway is harmless because lookups validate liveness (above).
    inflight_[table] = id;
  }
  return id;
}

JobId ProfilingService::SubmitCsv(const std::string& name,
                                  const std::string& path,
                                  const CsvOptions& csv_options,
                                  const ProfileJobOptions& options) {
  metrics_.Add(Counter::kJobsSubmitted);
  auto rec = std::make_shared<Record>();
  rec->name = name;

  auto body = [this, rec, path, csv_options, options](const JobContext& ctx) {
    RunCsvJob(rec.get(), path, csv_options, options, ctx);
  };
  JobId id = scheduler_.Submit(Accounted(&metrics_, body), options.priority);

  std::lock_guard<std::mutex> lock(mu_);
  records_.emplace(id, std::move(rec));
  return id;
}

void ProfilingService::RunTableJob(Record* rec,
                                   const ProfileJobOptions& options,
                                   const JobContext& ctx) {
  rec->started = true;
  const Table& table = *rec->table;
  rec->fingerprint = TableFingerprint(table);
  if (options.use_catalog) {
    CatalogEntry entry;
    if (catalog_->Lookup(rec->fingerprint, &entry)) {
      rec->cache_hit = true;
      rec->result = std::move(entry.result);
      metrics_.Add(Counter::kCacheHits);
      return;
    }
    metrics_.Add(Counter::kCacheMisses);
  }
  // Discovery through the staged pipeline, reusing a cached prefix-tree
  // artifact when one matches this job's table + tree-shape options.
  TreeArtifactCache* cache =
      options.use_tree_cache ? tree_cache_.get() : nullptr;
  std::vector<StageMetric> stage_metrics;
  rec->result =
      ProfileWithTreeCache(table, EffectiveOptions(options, ctx),
                           rec->fingerprint, cache, &rec->tree_cache_hit,
                           &stage_metrics);
  if (cache != nullptr) {
    const GordianStats& stats = rec->result.stats;
    if (rec->tree_cache_hit) {
      metrics_.Add(Counter::kTreeCacheHits);
    } else {
      metrics_.Add(Counter::kTreeCacheMisses);
      if (stats.frozen_tree_bytes > 0) {
        metrics_.Add(Counter::kTreesFrozen);
        metrics_.AddSeconds(Counter::kBuildMicros, stats.build_seconds);
        metrics_.Add(Counter::kFrozenTreeBytes, stats.frozen_tree_bytes);
        metrics_.Add(Counter::kFrozenTreeNodes, stats.base_tree_nodes);
      }
    }
  }
  metrics_.AddStages(stage_metrics);
  // Incomplete results (budget, timeout, cancellation) certify nothing and
  // must not poison the catalog; Put would refuse them anyway.
  if (options.use_catalog && !rec->result.incomplete) {
    if (catalog_->Put(rec->fingerprint, rec->name, table.num_columns(),
                      rec->result)) {
      NotePut();
    }
    // Persist the table itself alongside its result, so a later process
    // can reload it by fingerprint without the original source. Failures
    // are counted (artifact_put_errors) but don't fail the job — the
    // discovery result stands on its own.
    if (artifact_store_ != nullptr) {
      (void)artifact_store_->Put(rec->fingerprint, table);
    }
  }
}

void ProfilingService::RunCsvJob(Record* rec, const std::string& path,
                                 const CsvOptions& csv_options,
                                 const ProfileJobOptions& options,
                                 const JobContext& ctx) {
  rec->started = true;
  KeyDiscoveryResult result;
  IngestStats ingest;
  std::vector<StageMetric> stage_metrics;
  Status s =
      ProfileCsvFile(path, csv_options, EffectiveOptions(options, ctx),
                     ingest_spill_, &result, &ingest, &stage_metrics);
  metrics_.Add(Counter::kIngestBatches, ingest.batches);
  metrics_.Add(Counter::kIngestRows, ingest.rows);
  metrics_.Add(Counter::kIngestBytes, ingest.bytes);
  metrics_.AddStages(stage_metrics);
  if (!s.ok()) throw std::runtime_error(s.ToString());
  rec->result = std::move(result);
}

bool ProfilingService::Cancel(JobId id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = records_.find(id);
    if (it == records_.end() || it->second->alias_of != 0) return false;
  }
  bool before_running = false;
  if (!scheduler_.Cancel(id, &before_running)) return false;
  if (before_running) {
    // The body never ran, so its completion hooks never will; account for
    // the cancellation here.
    metrics_.AddFinishedJob(Counter::kJobsCancelled,
                            scheduler_.Poll(id).latency_seconds);
  }
  return true;
}

JobInfo ProfilingService::Poll(JobId id) const {
  JobId target = id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = records_.find(id);
    if (it == records_.end()) return JobInfo{};
    if (it->second->alias_of != 0) target = it->second->alias_of;
  }
  return scheduler_.Poll(target);
}

ProfileOutcome ProfilingService::Wait(JobId id) {
  std::shared_ptr<Record> rec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = records_.find(id);
    if (it == records_.end()) return ProfileOutcome{};
    rec = it->second;
  }
  if (rec->alias_of != 0) {
    ProfileOutcome out = Wait(rec->alias_of);
    out.coalesced = true;
    out.table_name = rec->name;
    return out;
  }
  ProfileOutcome out;
  out.info = scheduler_.Wait(id);
  out.cache_hit = rec->cache_hit;
  out.tree_cache_hit = rec->tree_cache_hit;
  out.fingerprint = rec->fingerprint;
  out.table_name = rec->name;
  out.result = rec->result;
  if (out.info.state == JobState::kCancelled && !rec->started) {
    // Cancelled while still queued: discovery never ran, so the default
    // result must say so rather than masquerade as "no keys found".
    out.result.incomplete = true;
    out.result.incomplete_reason = AbortReason::kCancelled;
  }
  return out;
}

void ProfilingService::WaitAll() { scheduler_.WaitAll(); }

bool ProfilingService::SchedulerDone(JobId id) const {
  const JobInfo info = scheduler_.Poll(id);
  return !info.valid || IsTerminal(info.state);
}

bool ProfilingService::Forget(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) return false;
  Record& rec = *it->second;
  if (rec.alias_of != 0) {
    if (!SchedulerDone(rec.alias_of)) return false;
    --records_.at(rec.alias_of)->aliases;
    records_.erase(it);
    return true;
  }
  if (rec.aliases > 0 || !SchedulerDone(id)) return false;
  auto in = inflight_.find(rec.table);
  if (in != inflight_.end() && in->second == id) inflight_.erase(in);
  records_.erase(it);
  scheduler_.Forget(id);
  return true;
}

Status ProfilingService::RegisterAppendable(const std::string& name,
                                            const Table& table,
                                            const GordianOptions& options,
                                            uint64_t* fingerprint) {
  // The chain re-profiles from the tree alone; options that need the raw
  // table on every run cannot be honoured incrementally (and ReprofileTree
  // would reject them on the first append — fail at registration instead).
  if (options.sample_rows > 0) {
    return Status::InvalidArgument(
        "appendable chains cannot sample: a reservoir is not append-stable");
  }
  if (options.null_semantics !=
      GordianOptions::NullSemantics::kNullEqualsNull) {
    return Status::InvalidArgument(
        "appendable chains require kNullEqualsNull: null-excluding "
        "validation re-reads the raw table");
  }
  auto chain = std::make_shared<Appendable>();
  chain->name = name;
  chain->options = options;
  Status s = AppendState::Begin(table, &chain->state);
  if (!s.ok()) return s;
  const uint64_t fp = chain->state.fingerprint();

  // Profile the base synchronously through the tree cache, so the first
  // append finds a resident tree to absorb into.
  std::vector<StageMetric> stage_metrics;
  KeyDiscoveryResult result = ProfileWithTreeCache(
      table, options, fp, tree_cache_.get(), nullptr, &stage_metrics);
  metrics_.AddStages(stage_metrics);
  if (!result.incomplete) {
    chain->last_non_keys = result.non_keys;
    if (catalog_->Put(fp, name, table.num_columns(), result)) NotePut();
  }
  {
    std::lock_guard<std::mutex> lock(append_mu_);
    appendables_[fp] = std::move(chain);
  }
  if (fingerprint != nullptr) *fingerprint = fp;
  return Status::OK();
}

Status ProfilingService::AppendAndReprofile(uint64_t fingerprint,
                                            const RowBatch& batch,
                                            AppendOutcome* out) {
  std::shared_ptr<Appendable> chain;
  {
    std::lock_guard<std::mutex> lock(append_mu_);
    auto it = appendables_.find(fingerprint);
    if (it == appendables_.end()) {
      return Status::NotFound(
          "no appendable chain is registered under this fingerprint");
    }
    chain = it->second;
  }
  std::lock_guard<std::mutex> chain_lock(chain->chain_mu);
  if (chain->state.fingerprint() != fingerprint) {
    // A concurrent append advanced the chain between our registry lookup
    // and taking the chain lock; callers must pass the handle the previous
    // call returned.
    return Status::InvalidArgument(
        "stale append handle: the chain has advanced past this fingerprint");
  }
  const uint64_t old_fp = fingerprint;
  const int64_t old_rows = chain->state.num_rows();
  Status s = chain->state.Absorb(batch);
  if (!s.ok()) return s;
  const uint64_t new_fp = chain->state.fingerprint();
  const int64_t delta_rows = chain->state.num_rows() - old_rows;
  const int num_columns = chain->state.num_columns();

  GordianOptions run_options = chain->options;
  if (!chain->last_non_keys.empty()) {
    run_options.warm_start_non_keys = &chain->last_non_keys;
  }

  KeyDiscoveryResult result;
  std::vector<StageMetric> stage_metrics;
  bool tree_absorbed = false;
  double refreeze_seconds = 0;

  TreeArtifactCache* cache = tree_cache_.get();
  TreeArtifactCache::Lease lease;
  if (cache != nullptr) {
    lease =
        cache->Acquire(MakeTreeCacheKey(old_fp, num_columns, chain->options));
  }
  if (lease.valid()) {
    // Fast path: absorb the delta into the leased frozen tree and rekey
    // the cache entry to the new fingerprint. The exclusive lease is held
    // across both, so a concurrent Profile of the old fingerprint
    // busy-misses and builds privately — it can never observe the tree
    // mid-absorb.
    FrozenTree* tree = lease.frozen();
    std::vector<const uint32_t*> level_codes;
    level_codes.reserve(static_cast<size_t>(tree->num_levels()));
    for (int l = 0; l < tree->num_levels(); ++l) {
      level_codes.push_back(
          chain->state.codes(tree->attribute_at_level(l)).data() + old_rows);
    }
    Stopwatch absorb_watch;
    (void)tree->Absorb(level_codes, delta_rows);
    refreeze_seconds = absorb_watch.ElapsedSeconds();
    Status rs = ReprofileTree(tree, run_options, num_columns,
                              chain->state.num_rows(), &result,
                              &stage_metrics);
    if (!rs.ok()) return rs;
    cache->Rekey(lease, MakeTreeCacheKey(new_fp, num_columns, chain->options));
    lease.Release();
    tree_absorbed = true;
  } else {
    lease.Release();
    // Slow path: the base tree is gone (evicted, cache disabled) or pinned
    // by a concurrent run. Re-profile a snapshot — still warm-started —
    // and admit the fresh tree under the new fingerprint.
    Table snapshot = chain->state.Snapshot();
    result = ProfileWithTreeCache(snapshot, run_options, new_fp, cache,
                                  nullptr, &stage_metrics);
  }
  metrics_.AddStages(stage_metrics);

  if (!result.incomplete) {
    chain->last_non_keys = result.non_keys;
    if (catalog_->Put(new_fp, chain->name, num_columns, result)) NotePut();
  }
  metrics_.Add(Counter::kAppends);
  if (tree_absorbed) metrics_.Add(Counter::kAppendAbsorbs);
  metrics_.Add(Counter::kDeltaRows, delta_rows);
  metrics_.Add(Counter::kWarmStartPrunes, result.stats.warm_start_prunes);
  metrics_.AddSeconds(Counter::kRefreezeMicros, refreeze_seconds);

  {
    std::lock_guard<std::mutex> lock(append_mu_);
    appendables_.erase(old_fp);
    appendables_[new_fp] = chain;
  }

  if (out != nullptr) {
    out->fingerprint = new_fp;
    out->tree_absorbed = tree_absorbed;
    out->refreeze_seconds = refreeze_seconds;
    out->result = std::move(result);
  }
  return Status::OK();
}

ServiceMetrics::Snapshot ProfilingService::Metrics() const {
  ServiceMetrics::Snapshot s = metrics_.Read();
  s.queue_depth = scheduler_.queue_depth();
  s.running_jobs = scheduler_.running_jobs();
  return s;
}

}  // namespace gordian
