#include "net/wire.h"

#include <string_view>

#include "common/byte_codec.h"
#include "service/key_catalog.h"

namespace gordian {

namespace {

// Plausibility cap mirroring the catalog codec: a flipped byte in a length
// field must not talk the decoder into a gigabyte allocation.
constexpr uint32_t kMaxString = 1u << 20;

Status Corrupt(const char* what) {
  return Status::InvalidArgument(std::string("corrupt ") + what);
}

}  // namespace

void EncodeDiscoveryResult(const KeyDiscoveryResult& result,
                           std::string* out) {
  ByteWriter w(out);
  uint8_t flags = 0;
  if (result.no_keys) flags |= 1;
  if (result.sampled) flags |= 2;
  if (result.incomplete) flags |= 4;
  w.U8(flags);
  w.U8(static_cast<uint8_t>(result.incomplete_reason));
  w.U64(static_cast<uint64_t>(result.stats.rows_processed));
  w.U64(static_cast<uint64_t>(result.stats.num_attributes));
  EncodeKeyLists(result, &w);
}

Status DecodeDiscoveryResult(const std::string& bytes, size_t* pos,
                             KeyDiscoveryResult* result) {
  *result = KeyDiscoveryResult();
  if (*pos > bytes.size()) return Corrupt("result header");
  ByteReader r(std::string_view(bytes).substr(*pos));
  uint8_t flags, reason;
  uint64_t rows, attrs;
  if (!r.U8(&flags) || !r.U8(&reason) || !r.U64(&rows) || !r.U64(&attrs)) {
    return Corrupt("result header");
  }
  if (flags > 7) return Corrupt("result flags");
  if (reason > static_cast<uint8_t>(AbortReason::kCancelled)) {
    return Corrupt("abort reason");
  }
  if (rows > (uint64_t{1} << 40) ||
      attrs > static_cast<uint64_t>(AttributeSet::kMaxAttributes)) {
    return Corrupt("result counts");
  }
  result->no_keys = (flags & 1) != 0;
  result->sampled = (flags & 2) != 0;
  result->incomplete = (flags & 4) != 0;
  result->incomplete_reason = static_cast<AbortReason>(reason);
  if (result->incomplete == (result->incomplete_reason == AbortReason::kNone)) {
    return Corrupt("abort reason / incomplete flag mismatch");
  }
  result->stats.rows_processed = static_cast<int64_t>(rows);
  result->stats.num_attributes = static_cast<int64_t>(attrs);
  Status s = DecodeKeyLists(&r, AttributeSet::kMaxAttributes, result);
  if (!s.ok()) return s;
  *pos += r.pos();
  return Status::OK();
}

void EncodeProfileRequest(const ProfileRequest& req, std::string* out) {
  ByteWriter w(out);
  w.U64(req.fingerprint);
  w.Str(req.client_id);
  w.Str(req.table_name);
  w.U32(static_cast<uint32_t>(req.priority));
  uint8_t flags = 0;
  if (req.use_catalog) flags |= 1;
  if (req.use_tree_cache) flags |= 2;
  w.U8(flags);
  w.U64(static_cast<uint64_t>(req.sample_rows));
  w.U64(req.sample_seed);
  w.Str(req.table_bytes);
}

Status DecodeProfileRequest(const std::string& bytes, ProfileRequest* req) {
  ByteReader r(bytes);
  *req = ProfileRequest();
  uint32_t priority;
  uint8_t flags;
  uint64_t sample_rows;
  if (!r.U64(&req->fingerprint) || !r.Str(&req->client_id, kMaxString) ||
      !r.Str(&req->table_name, kMaxString) || !r.U32(&priority) ||
      !r.U8(&flags) || !r.U64(&sample_rows) || !r.U64(&req->sample_seed)) {
    return Corrupt("profile request header");
  }
  if (flags > 3) return Corrupt("profile request flags");
  req->priority = static_cast<int32_t>(priority);
  req->use_catalog = (flags & 1) != 0;
  req->use_tree_cache = (flags & 2) != 0;
  req->sample_rows = static_cast<int64_t>(sample_rows);
  if (!r.Str(&req->table_bytes, UINT32_MAX) || !r.AtEnd()) {
    return Corrupt("profile request table length");
  }
  return Status::OK();
}

Status DecodeProfileRequestPrefix(const std::string& bytes,
                                  uint64_t* fingerprint,
                                  std::string* client_id) {
  ByteReader r(bytes);
  if (!r.U64(fingerprint) || !r.Str(client_id, kMaxString)) {
    return Corrupt("profile request prefix");
  }
  return Status::OK();
}

void EncodeProfileResponse(const ProfileResponse& resp, std::string* out) {
  ByteWriter w(out);
  w.U64(resp.fingerprint);
  uint8_t flags = 0;
  if (resp.cache_hit) flags |= 1;
  if (resp.follower_hit) flags |= 2;
  if (resp.tree_cache_hit) flags |= 4;
  w.U8(flags);
  w.Str(resp.served_by);
  EncodeDiscoveryResult(resp.result, out);
}

Status DecodeProfileResponse(const std::string& bytes,
                             ProfileResponse* resp) {
  ByteReader r(bytes);
  *resp = ProfileResponse();
  uint8_t flags;
  if (!r.U64(&resp->fingerprint) || !r.U8(&flags) ||
      !r.Str(&resp->served_by, kMaxString)) {
    return Corrupt("profile response header");
  }
  if (flags > 7) return Corrupt("profile response flags");
  resp->cache_hit = (flags & 1) != 0;
  resp->follower_hit = (flags & 2) != 0;
  resp->tree_cache_hit = (flags & 4) != 0;
  size_t pos = r.pos();
  Status s = DecodeDiscoveryResult(bytes, &pos, &resp->result);
  if (!s.ok()) return s;
  if (pos != bytes.size()) return Corrupt("profile response trailer");
  return Status::OK();
}

void EncodeHealthInfo(const HealthInfo& info, std::string* out) {
  ByteWriter w(out);
  w.U8(static_cast<uint8_t>(info.role));
  w.U8(info.accepting ? 1 : 0);
  w.U8(static_cast<uint8_t>(info.shard_first));
  w.U8(static_cast<uint8_t>(info.shard_last));
  w.U64(static_cast<uint64_t>(info.queue_depth));
  w.U64(static_cast<uint64_t>(info.running_jobs));
  w.U64(static_cast<uint64_t>(info.active_rpcs));
  w.U64(static_cast<uint64_t>(info.catalog_entries));
  w.U32(static_cast<uint32_t>(info.workers_up));
  w.U32(static_cast<uint32_t>(info.workers_total));
}

Status DecodeHealthInfo(const std::string& bytes, HealthInfo* info) {
  ByteReader r(bytes);
  *info = HealthInfo();
  uint8_t role, accepting, first, last;
  uint64_t queue, running, active, entries;
  uint32_t up, total;
  if (!r.U8(&role) || !r.U8(&accepting) || !r.U8(&first) || !r.U8(&last) ||
      !r.U64(&queue) || !r.U64(&running) || !r.U64(&active) ||
      !r.U64(&entries) || !r.U32(&up) || !r.U32(&total) || !r.AtEnd()) {
    return Corrupt("health info");
  }
  if (role != static_cast<uint8_t>(HealthInfo::Role::kWorker) &&
      role != static_cast<uint8_t>(HealthInfo::Role::kRouter)) {
    return Corrupt("health role");
  }
  if (accepting > 1 || first >= KeyCatalog::kNumShards ||
      last >= KeyCatalog::kNumShards) {
    return Corrupt("health fields");
  }
  info->role = static_cast<HealthInfo::Role>(role);
  info->accepting = accepting != 0;
  info->shard_first = first;
  info->shard_last = last;
  info->queue_depth = static_cast<int64_t>(queue);
  info->running_jobs = static_cast<int64_t>(running);
  info->active_rpcs = static_cast<int64_t>(active);
  info->catalog_entries = static_cast<int64_t>(entries);
  info->workers_up = static_cast<int>(up);
  info->workers_total = static_cast<int>(total);
  return Status::OK();
}

Status ParseShardRange(const std::string& text, int* first, int* last) {
  const auto parse_int = [](const std::string& s, int* out) {
    if (s.empty() || s.size() > 2) return false;
    int v = 0;
    for (char ch : s) {
      if (ch < '0' || ch > '9') return false;
      v = v * 10 + (ch - '0');
    }
    *out = v;
    return true;
  };
  const size_t dash = text.find('-');
  int a, b;
  if (dash == std::string::npos) {
    if (!parse_int(text, &a)) {
      return Status::InvalidArgument("bad shard range: " + text);
    }
    b = a;
  } else if (!parse_int(text.substr(0, dash), &a) ||
             !parse_int(text.substr(dash + 1), &b)) {
    return Status::InvalidArgument("bad shard range: " + text);
  }
  if (a > b || b >= KeyCatalog::kNumShards) {
    return Status::InvalidArgument("shard range " + text +
                                   " outside 0-" +
                                   std::to_string(KeyCatalog::kNumShards - 1));
  }
  *first = a;
  *last = b;
  return Status::OK();
}

}  // namespace gordian
