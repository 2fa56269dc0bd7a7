#include "net/worker.h"

#include <cstdio>
#include <utility>

#include "net/frame.h"
#include "common/fault_fs.h"
#include "table/fingerprint.h"
#include "table/serialize.h"

namespace gordian {

namespace {

std::string OwnerDirName(int first, int last) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "owner-%02d-%02d", first, last);
  return buf;
}

void FailResponse(Frame* response, const Status& status,
                  uint32_t retry_after_millis = 0) {
  response->status_code = status.code();
  response->payload = status.message();
  response->deadline_millis = retry_after_millis;
}

}  // namespace

WorkerDaemon::WorkerDaemon(WorkerOptions options)
    : options_(std::move(options)),
      name_(OwnerDirName(options_.shard_first, options_.shard_last)) {}

WorkerDaemon::~WorkerDaemon() { Stop(); }

Status WorkerDaemon::Start() {
  if (options_.shard_first < 0 || options_.shard_last < options_.shard_first ||
      options_.shard_last >= KeyCatalog::kNumShards) {
    return Status::InvalidArgument("bad shard range");
  }
  ServiceOptions service_options;
  service_options.num_threads = options_.num_threads;
  service_options.tree_cache_bytes = options_.tree_cache_bytes;
  service_options.flush_every_puts = options_.flush_every_puts;
  if (!options_.catalog_root.empty()) {
    Status s = DefaultFileSystem()->CreateDir(options_.catalog_root);
    if (!s.ok()) return s;
    service_options.catalog_dir = options_.catalog_root + "/" + name_;
  }
  service_ = std::make_unique<ProfilingService>(service_options);
  if (!options_.catalog_root.empty()) {
    // The service degrades gracefully when the lease is taken, but for a
    // daemon that would mean two live writers for the same shard range —
    // refuse to start instead.
    Status persistence = service_->persistence_status();
    if (!persistence.ok() && !persistence.IsPartial()) {
      service_.reset();
      return persistence;
    }
    std::lock_guard<std::mutex> lock(followers_mu_);
    ScanFollowers();
  }

  RpcServer::Options rpc_options;
  rpc_options.port = options_.port;
  rpc_options.metrics = service_->mutable_metrics();
  server_ = std::make_unique<RpcServer>(rpc_options);
  accepting_.store(true);
  Status s = server_->Start(
      [this](const Frame& request, Frame* response) {
        HandleRpc(request, response);
      });
  if (!s.ok()) {
    accepting_.store(false);
    server_.reset();
    service_.reset();
    return s;
  }
  return Status::OK();
}

void WorkerDaemon::Stop() {
  accepting_.store(false);
  if (server_ != nullptr) {
    server_->Stop();  // joins connection threads; no new RPCs after this
    server_.reset();
  }
  if (service_ != nullptr) {
    service_->WaitAll();
    service_.reset();  // destructor runs the final catalog flush
  }
  std::lock_guard<std::mutex> lock(followers_mu_);
  followers_.clear();
}

void WorkerDaemon::HandleRpc(const Frame& request, Frame* response) {
  switch (request.method) {
    case RpcMethod::kProfile:
      HandleProfile(request, response);
      return;
    case RpcMethod::kHealth:
      HandleHealth(response);
      return;
  }
  FailResponse(response, Status::Unsupported("unknown method"));
}

void WorkerDaemon::HandleProfile(const Frame& request, Frame* response) {
  if (!accepting_.load()) {
    service_->mutable_metrics()->Add(Counter::kRpcSheds);
    FailResponse(response, Status::Unavailable("worker draining"),
                 options_.retry_after_millis);
    return;
  }
  // Admission control: each held-open profile RPC pins a table and a
  // connection thread, so the count is bounded and the excess is shed with
  // a retry-after instead of queueing unboundedly.
  if (active_rpcs_.fetch_add(1) >= options_.max_active_rpcs) {
    active_rpcs_.fetch_sub(1);
    service_->mutable_metrics()->Add(Counter::kRpcSheds);
    FailResponse(response,
                 Status::Unavailable("worker at capacity (" +
                                     std::to_string(options_.max_active_rpcs) +
                                     " active profile rpcs)"),
                 options_.retry_after_millis);
    return;
  }
  struct ActiveGuard {
    std::atomic<int64_t>& n;
    ~ActiveGuard() { n.fetch_sub(1); }
  } guard{active_rpcs_};

  ProfileRequest req;
  Status s = DecodeProfileRequest(request.payload, &req);
  if (!s.ok()) {
    FailResponse(response, s);
    return;
  }
  Table table;
  s = ReadTable(req.table_bytes, &table);
  if (!s.ok()) {
    FailResponse(response, s);
    return;
  }
  const uint64_t fingerprint = TableFingerprint(table);
  if (req.fingerprint != 0 && req.fingerprint != fingerprint) {
    FailResponse(response,
                 Status::InvalidArgument(
                     "fingerprint mismatch: request claims " +
                     std::to_string(req.fingerprint) + ", table hashes to " +
                     std::to_string(fingerprint)));
    return;
  }
  const int shard = KeyCatalog::ShardIndexOf(fingerprint);
  const bool owned = OwnsShard(shard);

  ProfileResponse resp;
  resp.fingerprint = fingerprint;
  resp.served_by = name_;

  // A non-owned shard reaches us only when the router failed over. Prefer
  // the owner's flushed results (our read-only follower of its directory)
  // over redoing its work.
  if (!owned && req.use_catalog) {
    CatalogEntry entry;
    if (FollowerLookup(fingerprint, &entry)) {
      resp.follower_hit = true;
      resp.cache_hit = true;
      resp.result = std::move(entry.result);
      EncodeProfileResponse(resp, &response->payload);
      return;
    }
  }

  ProfileJobOptions job;
  job.priority = req.priority;
  // Never write another owner's shard: ownership is what keeps exactly one
  // writer per shard fleet-wide, so failover work is compute-only.
  job.use_catalog = owned && req.use_catalog;
  job.use_tree_cache = req.use_tree_cache;
  job.gordian.sample_rows = req.sample_rows;
  job.gordian.sample_seed = req.sample_seed;
  if (request.deadline_millis > 0) {
    job.timeout_seconds = request.deadline_millis * 1e-3;
  }

  JobId id = service_->SubmitTable(req.table_name, &table, job);
  ProfileOutcome outcome = service_->Wait(id);
  // The record points at this request's table, which dies with the handler.
  service_->Forget(id);
  if (outcome.info.state == JobState::kFailed) {
    FailResponse(response, Status::IOError("profiling failed: " +
                                           outcome.info.error));
    return;
  }
  resp.cache_hit = outcome.cache_hit;
  resp.tree_cache_hit = outcome.tree_cache_hit;
  resp.result = std::move(outcome.result);
  EncodeProfileResponse(resp, &response->payload);
}

void WorkerDaemon::HandleHealth(Frame* response) {
  HealthInfo info;
  info.role = HealthInfo::Role::kWorker;
  info.accepting = accepting_.load();
  info.shard_first = options_.shard_first;
  info.shard_last = options_.shard_last;
  ServiceMetrics::Snapshot snap = service_->Metrics();
  info.queue_depth = snap.queue_depth;
  info.running_jobs = snap.running_jobs;
  info.active_rpcs = active_rpcs_.load();
  info.catalog_entries = service_->catalog().size();
  EncodeHealthInfo(info, &response->payload);
}

void WorkerDaemon::ScanFollowers() {
  std::vector<std::string> names;
  if (!DefaultFileSystem()->ListDir(options_.catalog_root, &names).ok()) {
    return;
  }
  for (const std::string& dir_name : names) {
    if (dir_name.rfind("owner-", 0) != 0 || dir_name == name_) continue;
    bool known = false;
    for (const Follower& f : followers_) {
      if (f.name == dir_name) known = true;
    }
    if (known) continue;
    Follower follower;
    follower.name = dir_name;
    follower.catalog = std::make_unique<KeyCatalog>();
    CatalogStore::Options store_options;
    store_options.mode = CatalogStore::Mode::kReadOnly;
    follower.store = std::make_unique<CatalogStore>(
        options_.catalog_root + "/" + dir_name, follower.catalog.get(),
        store_options);
    Status s = follower.store->Open(nullptr);
    // Partial is fine (the surviving shards still serve); a directory that
    // cannot be opened at all is retried on the next scan.
    if (!s.ok() && !s.IsPartial()) continue;
    followers_.push_back(std::move(follower));
  }
}

bool WorkerDaemon::FollowerLookup(uint64_t fingerprint, CatalogEntry* entry) {
  if (options_.catalog_root.empty()) return false;
  std::lock_guard<std::mutex> lock(followers_mu_);
  for (Follower& f : followers_) {
    if (f.catalog->Lookup(fingerprint, entry)) return true;
  }
  // Miss: the owner may have flushed since we last looked, or appeared
  // since the last scan. Refresh and retry once.
  ScanFollowers();
  for (Follower& f : followers_) {
    (void)f.store->Refresh(nullptr);
    if (f.catalog->Lookup(fingerprint, entry)) return true;
  }
  return false;
}

ServiceMetrics::Snapshot WorkerDaemon::Metrics() const {
  return service_ != nullptr ? service_->Metrics()
                             : ServiceMetrics::Snapshot{};
}

}  // namespace gordian
