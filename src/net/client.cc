#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "net/frame.h"
#include "table/fingerprint.h"
#include "table/serialize.h"

namespace gordian {

ProfileClient::ProfileClient(std::string host, int port,
                             ServiceMetrics* metrics)
    : rpc_(std::move(host), port, metrics),
      jitter_state_(0xc3a5c85c97cb3127ull ^
                    (static_cast<uint64_t>(port) << 32)) {}

Status ProfileClient::Profile(const std::string& table_name,
                              const Table& table,
                              const RemoteProfileOptions& options,
                              RemoteOutcome* outcome) {
  ProfileRequest req;
  req.client_id = options.client_id;
  req.table_name = table_name;
  req.priority = options.priority;
  req.use_catalog = options.use_catalog;
  req.use_tree_cache = options.use_tree_cache;
  req.sample_rows = options.sample_rows;
  req.sample_seed = options.sample_seed;
  WriteTable(table, &req.table_bytes);
  req.fingerprint = TableFingerprint(table);

  std::string payload;
  EncodeProfileRequest(req, &payload);

  *outcome = RemoteOutcome();
  outcome->fingerprint = req.fingerprint;
  if (payload.size() > kMaxFramePayload) {
    // No attempt can send it: refuse before connecting, not after retrying.
    return Status::InvalidArgument(
        "profile request of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte frame limit");
  }

  // A retry first waits out the previous attempt's backoff or retry-after,
  // so a failed last attempt returns without waiting.
  Status last = Status::Unavailable("no attempt made");
  std::chrono::milliseconds wait(0);
  for (int attempt = 0; attempt < std::max(1, options.max_attempts);
       ++attempt) {
    std::this_thread::sleep_for(wait);
    RpcReply reply;
    Status s = rpc_.Call(RpcMethod::kProfile, payload,
                         options.deadline_millis, &reply);
    if (!s.ok()) {
      // Transport failure: the peer may be restarting. Back off with
      // jitter and reconnect (Call reconnects internally).
      last = s;
      ++outcome->transport_retries;
      uint64_t x = (jitter_state_ += 0x9e3779b97f4a7c15ull);
      x ^= x >> 31;
      const int base =
          std::max(1, options.retry_base_millis) << std::min(attempt, 6);
      wait = std::chrono::milliseconds(base / 2 + static_cast<int>(x % base));
      continue;
    }
    if (reply.remote.IsUnavailable()) {
      // Load shed: honor the server's retry-after hint.
      last = reply.remote;
      ++outcome->sheds;
      if (attempt + 1 < std::max(1, options.max_attempts)) {
        ++outcome->shed_retries;
      }
      wait = std::chrono::milliseconds(
          reply.retry_after_millis > 0
              ? static_cast<int64_t>(reply.retry_after_millis)
              : std::max(1, options.retry_base_millis));
      continue;
    }
    if (!reply.remote.ok()) return reply.remote;  // not retryable

    ProfileResponse resp;
    Status decode = DecodeProfileResponse(reply.payload, &resp);
    if (!decode.ok()) return decode;
    outcome->result = std::move(resp.result);
    outcome->fingerprint = resp.fingerprint;
    outcome->cache_hit = resp.cache_hit;
    outcome->follower_hit = resp.follower_hit;
    outcome->tree_cache_hit = resp.tree_cache_hit;
    outcome->served_by = std::move(resp.served_by);
    return Status::OK();
  }
  return last;
}

Status ProfileClient::Health(HealthInfo* info, uint32_t deadline_millis) {
  RpcReply reply;
  Status s = rpc_.Call(RpcMethod::kHealth, "", deadline_millis, &reply);
  if (!s.ok()) return s;
  if (!reply.remote.ok()) return reply.remote;
  return DecodeHealthInfo(reply.payload, info);
}

}  // namespace gordian
