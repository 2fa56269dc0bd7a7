#ifndef GORDIAN_NET_CLIENT_H_
#define GORDIAN_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/rpc.h"
#include "net/wire.h"
#include "table/table.h"

namespace gordian {

// Per-request knobs for a remote profile call.
struct RemoteProfileOptions {
  std::string client_id;     // quota bucket at the router; "" = anonymous
  int32_t priority = 0;
  bool use_catalog = true;
  bool use_tree_cache = true;
  int64_t sample_rows = 0;
  uint64_t sample_seed = 42;

  // End-to-end deadline per attempt, propagated in the frame header.
  uint32_t deadline_millis = 30'000;

  // Attempts across load-sheds and transport failures. Sheds are waited
  // out using the server's retry-after hint; transport failures back off
  // with jitter (the peer may be restarting).
  int max_attempts = 8;
  int retry_base_millis = 25;
};

// What a remote profile produced, beyond the discovery report itself.
struct RemoteOutcome {
  KeyDiscoveryResult result;
  uint64_t fingerprint = 0;
  bool cache_hit = false;
  bool follower_hit = false;
  bool tree_cache_hit = false;
  std::string served_by;     // worker identity that answered
  int sheds = 0;             // backpressure replies absorbed by retrying
  int shed_retries = 0;      // retries actually driven by those sheds (a
                             // terminal shed that exhausts attempts is
                             // counted in sheds but retried by nobody)
  int transport_retries = 0; // reconnects after connection failures
};

// Client-side entry point to the distributed front-end: serializes a table,
// stamps its fingerprint, and drives the retry loop against a router (or a
// single worker — the protocol is identical). Honest about backpressure:
// a shed reply is slept out per its retry-after hint and retried, and the
// counts of sheds/retries absorbed surface in the outcome.
class ProfileClient {
 public:
  ProfileClient(std::string host, int port,
                ServiceMetrics* metrics = nullptr);

  // Blocks through retries until a profile reply, a non-retryable remote
  // error, or attempt exhaustion (then the last Unavailable/transport
  // error, returned without waiting out that attempt's backoff).
  Status Profile(const std::string& table_name, const Table& table,
                 const RemoteProfileOptions& options, RemoteOutcome* outcome);

  // One health probe (no retries).
  Status Health(HealthInfo* info, uint32_t deadline_millis = 2000);

  void Close() { rpc_.Close(); }

 private:
  RpcClient rpc_;
  uint64_t jitter_state_;
};

}  // namespace gordian

#endif  // GORDIAN_NET_CLIENT_H_
