#include "net/router.h"

#include <algorithm>
#include <utility>

#include "service/key_catalog.h"

namespace gordian {

namespace {

void FailResponse(Frame* response, const Status& status,
                  uint32_t retry_after_millis = 0) {
  response->status_code = status.code();
  response->payload = status.message();
  response->deadline_millis = retry_after_millis;
}

}  // namespace

Router::Router(RouterOptions options) : options_(std::move(options)) {}

Router::~Router() { Stop(); }

Status Router::Start() {
  if (options_.workers.empty()) {
    return Status::InvalidArgument("router needs at least one worker");
  }
  // Build the shard -> owner map and verify every shard has exactly one.
  int owner_count[KeyCatalog::kNumShards] = {};
  for (size_t i = 0; i < options_.workers.size(); ++i) {
    const WorkerSpec& spec = options_.workers[i];
    if (spec.shard_first < 0 || spec.shard_last < spec.shard_first ||
        spec.shard_last >= KeyCatalog::kNumShards) {
      return Status::InvalidArgument("bad shard range in worker spec");
    }
    for (int shard = spec.shard_first; shard <= spec.shard_last; ++shard) {
      shard_owner_[shard] = static_cast<int>(i);
      ++owner_count[shard];
    }
  }
  for (int shard = 0; shard < KeyCatalog::kNumShards; ++shard) {
    if (owner_count[shard] != 1) {
      return Status::InvalidArgument(
          "shard " + std::to_string(shard) + " has " +
          std::to_string(owner_count[shard]) +
          " owners; worker shard ranges must tile 0-15 exactly");
    }
  }

  const int conns = std::max(1, options_.per_worker_connections);
  for (const WorkerSpec& spec : options_.workers) {
    auto w = std::make_unique<WorkerState>();
    w->spec = spec;
    for (int c = 0; c < conns; ++c) {
      w->clients.push_back(
          std::make_unique<RpcClient>(spec.host, spec.port, &metrics_));
    }
    w->health_client = std::make_unique<RpcClient>(spec.host, spec.port);
    workers_.push_back(std::move(w));
  }

  stopping_.store(false);
  for (auto& w : workers_) {
    for (auto& client : w->clients) {
      dispatchers_.emplace_back(
          [this, worker = w.get(), c = client.get()] {
            DispatchLoop(worker, c);
          });
    }
  }
  if (options_.heartbeat_period_millis > 0) {
    heartbeat_thread_ = std::thread([this] { HeartbeatLoop(); });
  }

  RpcServer::Options rpc_options;
  rpc_options.port = options_.port;
  rpc_options.metrics = &metrics_;
  server_ = std::make_unique<RpcServer>(rpc_options);
  Status s = server_->Start(
      [this](const Frame& request, Frame* response) {
        HandleRpc(request, response);
      });
  if (!s.ok()) {
    Stop();
    return s;
  }
  return Status::OK();
}

void Router::Stop() {
  if (stopping_.exchange(true)) {
    if (server_ != nullptr) {
      server_->Stop();
      server_.reset();
    }
    return;
  }
  // Wake the dispatchers first: they keep running until their queues are
  // empty, fast-failing each remaining call, so the connection threads the
  // server join waits on are guaranteed to be released.
  for (auto& w : workers_) w->cv.notify_all();
  heartbeat_cv_.notify_all();
  if (server_ != nullptr) {
    server_->Stop();
    server_.reset();
  }
  for (auto& w : workers_) {
    for (auto& client : w->clients) client->Close();
    if (w->health_client != nullptr) w->health_client->Close();
  }
  for (std::thread& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
  dispatchers_.clear();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  workers_.clear();
}

int Router::workers_up() const {
  int up = 0;
  for (const auto& w : workers_) {
    if (w->up.load()) ++up;
  }
  return up;
}

void Router::HandleRpc(const Frame& request, Frame* response) {
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

void Router::HandleProfile(const Frame& request, Frame* response) {
  uint64_t fingerprint = 0;
  std::string client_id;
  Status s = DecodeProfileRequestPrefix(request.payload, &fingerprint,
                                        &client_id);
  if (!s.ok()) {
    FailResponse(response, s);
    return;
  }
  if (!AdmitClient(client_id)) {
    metrics_.Add(Counter::kRpcSheds);
    FailResponse(response,
                 Status::Unavailable("client quota exhausted: " + client_id),
                 options_.retry_after_millis);
    return;
  }

  WorkerState* owner = workers_[OwnerOf(fingerprint)].get();
  PendingCall call;
  call.request = &request;
  call.response = response;
  {
    std::lock_guard<std::mutex> lock(owner->mu);
    // Checked under the queue lock: the dispatchers' exit check holds the
    // same lock, so a call can never be enqueued after the last dispatcher
    // for this worker has drained and left.
    if (stopping_.load()) {
      FailResponse(response, Status::Unavailable("router shutting down"));
      return;
    }
    if (static_cast<int>(owner->queue.size()) >= options_.per_worker_queue) {
      metrics_.Add(Counter::kRpcSheds);
      FailResponse(response,
                   Status::Unavailable("worker queue full for shards " +
                                       std::to_string(owner->spec.shard_first) +
                                       "-" +
                                       std::to_string(owner->spec.shard_last)),
                   options_.retry_after_millis);
      return;
    }
    owner->queue.push_back(&call);
  }
  owner->cv.notify_one();

  std::unique_lock<std::mutex> lock(call.mu);
  call.cv.wait(lock, [&call] { return call.done; });
}

void Router::HandleHealth(Frame* response) {
  HealthInfo info;
  info.role = HealthInfo::Role::kRouter;
  info.accepting = !stopping_.load();
  info.workers_total = static_cast<int>(workers_.size());
  info.workers_up = workers_up();
  for (const auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->mu);
    info.queue_depth += static_cast<int64_t>(w->queue.size());
  }
  EncodeHealthInfo(info, &response->payload);
}

bool Router::AdmitClient(const std::string& client_id) {
  if (options_.quota_tokens_per_second <= 0) return true;
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(quota_mu_);
  TokenBucket& bucket = quotas_[client_id];
  if (bucket.last.time_since_epoch().count() == 0) {
    // New bucket starts full.
    bucket.tokens = options_.quota_burst;
    bucket.last = now;
  }
  const double elapsed =
      std::chrono::duration<double>(now - bucket.last).count();
  bucket.last = now;
  bucket.tokens = std::min(options_.quota_burst,
                           bucket.tokens +
                               elapsed * options_.quota_tokens_per_second);
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

int Router::OwnerOf(uint64_t fingerprint) const {
  return shard_owner_[KeyCatalog::ShardIndexOf(fingerprint)];
}

void Router::DispatchLoop(WorkerState* w, RpcClient* client) {
  for (;;) {
    PendingCall* call = nullptr;
    {
      std::unique_lock<std::mutex> lock(w->mu);
      w->cv.wait_for(lock, std::chrono::milliseconds(50), [this, w] {
        return stopping_.load() || !w->queue.empty();
      });
      if (!w->queue.empty()) {
        call = w->queue.front();
        w->queue.pop_front();
      } else if (stopping_.load()) {
        return;
      } else {
        continue;
      }
    }
    Forward(w, client, *call->request, call->response);
    {
      // Notify while still holding the lock: the waiting connection
      // thread owns the PendingCall on its stack and destroys it the
      // moment it observes `done`, so signalling after unlocking would
      // touch a freed condition variable.
      std::lock_guard<std::mutex> lock(call->mu);
      call->done = true;
      call->cv.notify_one();
    }
  }
}

void Router::Forward(WorkerState* owner, RpcClient* owner_client,
                     const Frame& request, Frame* response) {
  const uint32_t deadline =
      request.deadline_millis > 0
          ? request.deadline_millis
          : static_cast<uint32_t>(
                std::max(0, options_.default_deadline_millis));
  Status last = Status::OK();
  for (int attempt = 0; attempt < std::max(1, options_.max_attempts);
       ++attempt) {
    if (stopping_.load()) break;
    // Attempt 0 and 1 target the owner (a restarted worker answers on the
    // same port); later attempts fail over round-robin across live peers.
    WorkerState* target = owner;
    RpcClient* client = owner_client;
    std::unique_ptr<RpcClient> failover_client;
    if (attempt >= 2 && workers_.size() > 1) {
      WorkerState* live = nullptr;
      for (size_t i = 0; i < workers_.size(); ++i) {
        WorkerState* candidate =
            workers_[(static_cast<size_t>(attempt) + i) % workers_.size()]
                .get();
        if (candidate != owner && candidate->up.load()) {
          live = candidate;
          break;
        }
      }
      if (live != nullptr) {
        target = live;
        // A fresh connection, not a dispatcher's: those belong to the
        // peer's own queue and may be mid-call.
        failover_client = std::make_unique<RpcClient>(
            live->spec.host, live->spec.port, &metrics_);
        client = failover_client.get();
      }
    }

    if (attempt > 0) {
      metrics_.Add(Counter::kRpcRetries);
      // Jittered exponential backoff; xorshift keeps it cheap and seedless.
      uint64_t x = jitter_state_.fetch_add(0x9e3779b97f4a7c15ull);
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdull;
      x ^= x >> 29;
      const int base = std::max(1, options_.retry_base_millis) << (attempt - 1);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(base / 2 + static_cast<int>(x % base)));
      if (stopping_.load()) break;
    }

    RpcReply reply;
    Status s = client->Call(RpcMethod::kProfile, request.payload, deadline,
                            &reply);
    if (s.ok()) {
      const bool was_down = !target->up.exchange(true);
      if (was_down) metrics_.Add(Counter::kWorkerRestarts);
      // Remote outcomes — including sheds and remote errors — pass through
      // to the client verbatim; only transport failures are retried here.
      response->status_code = reply.remote.code();
      response->deadline_millis = reply.retry_after_millis;
      response->payload = reply.remote.ok() ? std::move(reply.payload)
                                            : reply.remote.message();
      return;
    }
    target->up.store(false);
    last = s;
  }
  metrics_.Add(Counter::kRpcSheds);
  FailResponse(response,
               Status::Unavailable("no worker reachable for request: " +
                                   last.ToString()),
               options_.retry_after_millis);
}

void Router::HeartbeatLoop() {
  while (!stopping_.load()) {
    for (auto& w : workers_) {
      if (stopping_.load()) return;
      RpcReply reply;
      Status s = w->health_client->Call(
          RpcMethod::kHealth, "",
          static_cast<uint32_t>(
              std::max(50, options_.heartbeat_period_millis)),
          &reply);
      const bool healthy = s.ok() && reply.remote.ok();
      const bool was_up = w->up.exchange(healthy);
      if (healthy && !was_up) metrics_.Add(Counter::kWorkerRestarts);
    }
    std::unique_lock<std::mutex> lock(heartbeat_mu_);
    heartbeat_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.heartbeat_period_millis),
        [this] { return stopping_.load(); });
  }
}

}  // namespace gordian
