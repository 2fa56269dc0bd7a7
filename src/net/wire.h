#ifndef GORDIAN_NET_WIRE_H_
#define GORDIAN_NET_WIRE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/gordian.h"

namespace gordian {

// Payload codecs for the RPC methods of net/frame.h, written with the codec
// of common/byte_codec.h; decoding validates counts, ranges, and truncation
// and returns InvalidArgument instead of crashing on garbage (the framing
// fault tests feed these random bytes).

// --- kProfile request --------------------------------------------------
//
// The fingerprint and client id lead the record so the router can route and
// meter a request by decoding a small prefix, forwarding the payload
// verbatim without ever materializing the table.
struct ProfileRequest {
  uint64_t fingerprint = 0;   // TableFingerprint of table_bytes
  std::string client_id;      // quota bucket key; "" = anonymous
  std::string table_name;
  int32_t priority = 0;
  bool use_catalog = true;
  bool use_tree_cache = true;
  int64_t sample_rows = 0;    // GordianOptions subset that affects results
  uint64_t sample_seed = 42;
  std::string table_bytes;    // WriteTable serialization of the table
};

void EncodeProfileRequest(const ProfileRequest& req, std::string* out);
Status DecodeProfileRequest(const std::string& bytes, ProfileRequest* req);

// Decodes only the routing prefix (fingerprint + client id), leaving the
// table bytes untouched — the router's fast path.
Status DecodeProfileRequestPrefix(const std::string& bytes,
                                  uint64_t* fingerprint,
                                  std::string* client_id);

// --- kProfile response -------------------------------------------------
struct ProfileResponse {
  uint64_t fingerprint = 0;
  bool cache_hit = false;       // served from the owner's catalog
  bool follower_hit = false;    // served from a read-only follower catalog
  bool tree_cache_hit = false;  // discovery ran but reused a cached tree
  std::string served_by;        // worker identity, e.g. "owner-00-07"
  KeyDiscoveryResult result;
};

void EncodeProfileResponse(const ProfileResponse& resp, std::string* out);
Status DecodeProfileResponse(const std::string& bytes, ProfileResponse* resp);

// --- kHealth response --------------------------------------------------
//
// The request payload is empty; the response is a small load probe. The
// router aggregates its workers' probes into its own.
struct HealthInfo {
  enum class Role : uint8_t { kWorker = 1, kRouter = 2 };
  Role role = Role::kWorker;
  bool accepting = true;     // false once draining for shutdown
  int shard_first = 0;       // owned fingerprint-shard range, inclusive
  int shard_last = 0;
  int64_t queue_depth = 0;   // scheduler jobs waiting (worker)
  int64_t running_jobs = 0;
  int64_t active_rpcs = 0;   // profile RPCs currently held open
  int64_t catalog_entries = 0;
  int workers_up = 0;        // router only
  int workers_total = 0;     // router only
};

void EncodeHealthInfo(const HealthInfo& info, std::string* out);
Status DecodeHealthInfo(const std::string& bytes, HealthInfo* info);

// --- shared pieces -----------------------------------------------------

// KeyDiscoveryResult <-> bytes: flags, abort reason, row and attribute
// counts, then the key and non-key lists of EncodeKeyLists (core/gordian.h)
// bounded by the 128-attribute limit. Unlike the catalog's entry record
// (service/key_catalog.h), this codec carries incomplete results too — a
// remote job that tripped its budget must report that honestly rather than
// masquerade as "no keys".
void EncodeDiscoveryResult(const KeyDiscoveryResult& result, std::string* out);
Status DecodeDiscoveryResult(const std::string& bytes, size_t* pos,
                             KeyDiscoveryResult* result);

// Parses "a-b" (or a single "a") into an inclusive shard range within
// [0, KeyCatalog::kNumShards); used by --shards flags and worker specs.
Status ParseShardRange(const std::string& text, int* first, int* last);

}  // namespace gordian

#endif  // GORDIAN_NET_WIRE_H_
