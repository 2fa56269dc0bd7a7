#ifndef GORDIAN_NET_WORKER_H_
#define GORDIAN_NET_WORKER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/rpc.h"
#include "net/wire.h"
#include "service/catalog_store.h"
#include "service/key_catalog.h"
#include "service/profiling_service.h"

namespace gordian {

struct WorkerOptions {
  int port = 0;  // 0 = ephemeral; read back via port()

  // Inclusive range of the 16 fingerprint shards this worker owns. The
  // owner is the writer for those shards' catalog entries; requests for
  // other shards are still served (failover) but never persisted here.
  int shard_first = 0;
  int shard_last = KeyCatalog::kNumShards - 1;

  // Directory under which every worker of the fleet keeps its durable
  // catalog: this worker writes `<root>/owner-FF-LL` (holding that
  // directory's flock writer lease for its lifetime) and opens each peer
  // `owner-*` directory read-only as a follower it can serve lookups from.
  // Empty = memory-only catalog, no lease, no followers.
  std::string catalog_root;

  // Threads for the wrapped ProfilingService; 0 = one per hardware thread.
  int num_threads = 0;

  // Admission bound: profile RPCs held open concurrently (each pins a
  // deserialized table and a connection thread). Beyond it the worker
  // sheds with Unavailable + retry-after instead of queueing without limit.
  int max_active_rpcs = 64;

  // Retry-after hint carried by shed replies.
  int retry_after_millis = 50;

  int64_t tree_cache_bytes = TreeArtifactCache::kDefaultByteBudget;

  // Catalog puts between background flushes (ServiceOptions semantics).
  // The default is deliberately small: followers only see flushed state,
  // so a distributed fleet wants flushes at a brisker cadence than a
  // single-process service would pick.
  int flush_every_puts = 8;
};

// A shard-owner worker daemon: a ProfilingService wrapped in an RpcServer.
// kProfile requests are deserialized, submitted, awaited, and answered with
// the serialized discovery report; kHealth answers a load probe. Shards
// outside the owned range are served on a best-effort basis for failover —
// first from the read-only follower catalogs of their owners, then by
// running discovery without caching the result (ownership means exactly
// one writer per shard, fleet-wide).
class WorkerDaemon {
 public:
  explicit WorkerDaemon(WorkerOptions options);
  ~WorkerDaemon();

  WorkerDaemon(const WorkerDaemon&) = delete;
  WorkerDaemon& operator=(const WorkerDaemon&) = delete;

  // Opens the catalog directory (when configured) and starts serving.
  // Partial catalog recovery is not fatal (the service degrades exactly as
  // a local one would); a lease held elsewhere or an unusable port is.
  Status Start();

  // Drains: stops accepting, waits for in-flight jobs, flushes the catalog.
  void Stop();

  int port() const { return server_ == nullptr ? 0 : server_->port(); }
  int shard_first() const { return options_.shard_first; }
  int shard_last() const { return options_.shard_last; }

  // "owner-FF-LL" — the worker's identity, also its catalog directory name.
  const std::string& name() const { return name_; }

  bool OwnsShard(int shard) const {
    return shard >= options_.shard_first && shard <= options_.shard_last;
  }

  ProfilingService& service() { return *service_; }

  // The service's counters, which the RPC server and the shed paths count
  // into as well; an empty snapshot when the worker is not running.
  ServiceMetrics::Snapshot Metrics() const;

 private:
  struct Follower {
    std::string name;  // peer directory name, e.g. "owner-08-15"
    std::unique_ptr<KeyCatalog> catalog;
    std::unique_ptr<CatalogStore> store;
  };

  void HandleRpc(const Frame& request, Frame* response);
  void HandleProfile(const Frame& request, Frame* response);
  void HandleHealth(Frame* response);

  // Looks `fingerprint` up in the follower catalogs, refreshing them from
  // disk (and rescanning the root for newly created peers) on a miss.
  bool FollowerLookup(uint64_t fingerprint, CatalogEntry* entry);
  void ScanFollowers();  // under followers_mu_

  WorkerOptions options_;
  std::string name_;
  std::unique_ptr<ProfilingService> service_;
  std::unique_ptr<RpcServer> server_;
  std::atomic<int64_t> active_rpcs_{0};
  std::atomic<bool> accepting_{false};

  std::mutex followers_mu_;
  std::vector<Follower> followers_;
};

}  // namespace gordian

#endif  // GORDIAN_NET_WORKER_H_
