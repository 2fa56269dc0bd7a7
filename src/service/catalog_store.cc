#include "service/catalog_store.h"

#include <cstdio>
#include <string_view>
#include <utility>

#include "common/byte_codec.h"

namespace gordian {

namespace {

constexpr std::string_view kShardMagic = "GRDS";
constexpr std::string_view kManifestMagic = "GRDM";
constexpr uint32_t kShardFormatVersion = 1;
constexpr uint32_t kManifestFormatVersion = 1;

// The entry-count ceiling of ReadCatalogEntries, for the manifest's counts.
constexpr uint64_t kMaxEntriesPerShard = 1u << 20;

std::string ShardFileName(int shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%02d.grdc", shard);
  return buf;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

CatalogStore::CatalogStore(std::string dir, KeyCatalog* catalog,
                           Options options)
    : dir_(std::move(dir)), catalog_(catalog), options_(options) {
  if (options_.fs == nullptr) options_.fs = DefaultFileSystem();
  last_flushed_.fill(kNeverFlushed);
  shard_counts_.fill(0);
}

CatalogStore::~CatalogStore() {
  if (lease_handle_ >= 0) fs()->UnlockFile(lease_handle_);
}

std::string CatalogStore::ShardPath(int shard) const {
  return dir_ + "/" + ShardFileName(shard);
}

std::string CatalogStore::ManifestPath() const { return dir_ + "/MANIFEST"; }

std::string CatalogStore::LockPath() const { return dir_ + "/LOCK"; }

uint64_t CatalogStore::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

std::string CatalogStore::EncodeShard(
    int shard, const std::vector<CatalogEntry>& entries) {
  std::string payload;
  ByteWriter w(&payload);
  w.Raw(kShardMagic);
  w.U32(kShardFormatVersion);
  w.U32(static_cast<uint32_t>(shard));
  w.U64(entries.size());
  for (const CatalogEntry& entry : entries) {
    WriteCatalogEntryRecord(entry, &w);
  }
  AppendChecksum(&payload);
  return payload;
}

Status CatalogStore::DecodeShard(const std::string& bytes, int shard,
                                 std::vector<CatalogEntry>* entries) {
  entries->clear();
  std::string_view body;
  if (bytes.size() < 28 || !VerifyChecksum(bytes, &body)) {
    return Status::InvalidArgument("shard checksum mismatch or short file");
  }
  ByteReader r(body);
  if (!r.Magic(kShardMagic)) {
    return Status::InvalidArgument("not a catalog shard file");
  }
  uint32_t version, index;
  if (!r.U32(&version) || version != kShardFormatVersion) {
    return Status::InvalidArgument("unsupported shard format version");
  }
  if (!r.U32(&index) || index != static_cast<uint32_t>(shard)) {
    return Status::InvalidArgument("shard index mismatch");
  }
  Status s = ReadCatalogEntries(&r, entries);
  if (!s.ok()) return s;
  for (const CatalogEntry& entry : *entries) {
    if (KeyCatalog::ShardIndexOf(entry.fingerprint) != shard) {
      return Status::InvalidArgument("entry routed to the wrong shard");
    }
  }
  return Status::OK();
}

std::string CatalogStore::EncodeManifest(uint64_t epoch) const {
  std::string payload;
  ByteWriter w(&payload);
  w.Raw(kManifestMagic);
  w.U32(kManifestFormatVersion);
  w.U64(epoch);
  w.U32(static_cast<uint32_t>(kNumShards));
  for (int s = 0; s < kNumShards; ++s) w.U64(shard_counts_[s]);
  AppendChecksum(&payload);
  return payload;
}

Status CatalogStore::DecodeManifest(
    const std::string& bytes, uint64_t* epoch,
    std::array<uint64_t, kNumShards>* counts) const {
  std::string_view body;
  if (bytes.size() < 28 || !VerifyChecksum(bytes, &body)) {
    return Status::InvalidArgument("manifest checksum mismatch or short file");
  }
  ByteReader r(body);
  if (!r.Magic(kManifestMagic)) {
    return Status::InvalidArgument("not a catalog manifest");
  }
  uint32_t version, shard_count;
  if (!r.U32(&version) || version != kManifestFormatVersion) {
    return Status::InvalidArgument("unsupported manifest format version");
  }
  if (!r.U64(epoch)) {
    return Status::InvalidArgument("truncated manifest");
  }
  if (!r.U32(&shard_count) || shard_count != kNumShards) {
    return Status::InvalidArgument("manifest shard count mismatch");
  }
  for (int s = 0; s < kNumShards; ++s) {
    if (!r.U64(&(*counts)[s]) || (*counts)[s] > kMaxEntriesPerShard) {
      return Status::InvalidArgument("corrupt manifest shard counts");
    }
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing garbage in manifest");
  }
  return Status::OK();
}

Status CatalogStore::WriteDurably(const std::string& path,
                                  const std::string& payload) {
  const std::string tmp = path + ".tmp";
  Status s = fs()->WriteFile(tmp, payload);
  if (!s.ok()) return s;
  s = fs()->SyncFile(tmp);
  if (!s.ok()) return s;
  return fs()->Rename(tmp, path);
}

void CatalogStore::Quarantine(int shard, const std::string& why,
                              RecoveryReport* report) {
  const std::string path = ShardPath(shard);
  if (options_.mode == Mode::kReadWrite && fs()->FileExists(path)) {
    // Move the corrupt file aside rather than deleting it: the bytes stay
    // available for forensics, and the next flush writes a healthy
    // replacement under the canonical name.
    (void)fs()->Rename(path, path + ".quarantined");
  }
  report->shards_quarantined++;
  report->quarantined_shards.push_back(shard);
  report->messages.push_back(ShardFileName(shard) + ": " + why);
}

Status CatalogStore::LoadShards(bool keep_on_error, RecoveryReport* report) {
  // shard_counts_ holds the manifest's expectation on entry (what the last
  // flush recorded); it is overwritten with what actually loaded.
  for (int s = 0; s < kNumShards; ++s) {
    const std::string path = ShardPath(s);
    const uint64_t expected = shard_counts_[s];
    if (!fs()->FileExists(path)) {
      if (expected > 0) {
        Quarantine(s, "shard file missing (" + std::to_string(expected) +
                          " entries recorded at last flush)",
                   report);
      }
      if (!keep_on_error || expected == 0) {
        catalog_->ReplaceShard(s, {});
      }
      shard_counts_[s] = 0;
      last_flushed_[s] = kNeverFlushed;
      continue;
    }
    std::string bytes;
    Status s_read = fs()->ReadFile(path, &bytes);
    std::vector<CatalogEntry> entries;
    if (s_read.ok()) s_read = DecodeShard(bytes, s, &entries);
    if (!s_read.ok()) {
      Quarantine(s, s_read.message(), report);
      if (!keep_on_error) {
        catalog_->ReplaceShard(s, {});
        shard_counts_[s] = 0;
      }
      last_flushed_[s] = kNeverFlushed;
      continue;
    }
    report->shards_loaded++;
    report->entries_loaded += static_cast<int64_t>(entries.size());
    shard_counts_[s] = entries.size();
    catalog_->ReplaceShard(s, std::move(entries));
    last_flushed_[s] = catalog_->ShardVersion(s);
  }
  return Status::OK();
}

Status CatalogStore::Open(RecoveryReport* report) {
  std::lock_guard<std::mutex> lock(mu_);
  if (opened_) return Status::InvalidArgument("catalog store already opened");
  RecoveryReport local_report;
  if (report == nullptr) report = &local_report;
  *report = RecoveryReport{};

  if (options_.mode == Mode::kReadWrite) {
    Status s = fs()->CreateDir(dir_);
    if (!s.ok()) return s;
    s = fs()->LockFile(LockPath(), &lease_handle_);
    if (!s.ok()) {
      lease_handle_ = -1;
      return Status::IOError("cannot take writer lease on catalog directory " +
                             dir_ + ": " + s.message());
    }
    // Reap temp files from an interrupted save: they were never renamed
    // into place, so they are dead weight, not state.
    std::vector<std::string> names;
    if (fs()->ListDir(dir_, &names).ok()) {
      for (const std::string& name : names) {
        if (EndsWith(name, ".tmp")) (void)fs()->Remove(dir_ + "/" + name);
      }
    }
  } else if (!fs()->FileExists(dir_)) {
    return Status::NotFound("no catalog directory at " + dir_);
  }

  bool have_manifest = fs()->FileExists(ManifestPath());
  bool any_shard = false;
  for (int s = 0; s < kNumShards; ++s) {
    if (fs()->FileExists(ShardPath(s))) any_shard = true;
  }

  if (!have_manifest && !any_shard) {
    // Fresh directory. A writer keeps whatever the caller preloaded into
    // the catalog — every shard is dirty, so the first flush materializes
    // all of it. A reader reflects the disk: empty.
    if (options_.mode == Mode::kReadOnly) {
      for (int s = 0; s < kNumShards; ++s) catalog_->ReplaceShard(s, {});
    }
    last_flushed_.fill(kNeverFlushed);
    shard_counts_.fill(0);
    opened_ = true;
    return Status::OK();
  }

  shard_counts_.fill(0);
  if (have_manifest) {
    std::string bytes;
    Status s = fs()->ReadFile(ManifestPath(), &bytes);
    if (s.ok()) s = DecodeManifest(bytes, &epoch_, &shard_counts_);
    if (!s.ok()) {
      // A bad manifest costs bookkeeping, not data: shards self-validate.
      report->messages.push_back("MANIFEST: " + s.message() +
                                 " (rebuilt on next flush)");
      if (options_.mode == Mode::kReadWrite) {
        (void)fs()->Rename(ManifestPath(), ManifestPath() + ".quarantined");
      }
      epoch_ = 0;
      shard_counts_.fill(0);
    }
  }

  (void)LoadShards(/*keep_on_error=*/false, report);
  Add(options_.metrics, Counter::kShardsRecovered, report->shards_loaded);
  Add(options_.metrics, Counter::kShardsQuarantined,
      report->shards_quarantined);
  opened_ = true;
  if (report->shards_quarantined > 0) {
    return Status::Partial(
        "recovered " + std::to_string(report->shards_loaded) + " of " +
        std::to_string(kNumShards) + " catalog shards from " + dir_ + " (" +
        std::to_string(report->shards_quarantined) + " quarantined)");
  }
  return Status::OK();
}

Status CatalogStore::Flush(FlushStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!opened_) return Status::InvalidArgument("catalog store not opened");
  if (options_.mode == Mode::kReadOnly) {
    return Status::Unsupported("read-only catalog store cannot flush");
  }
  FlushStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = FlushStats{};

  Status err;
  std::vector<int> touched;
  for (int s = 0; s < kNumShards; ++s) {
    uint64_t version = 0;
    std::vector<CatalogEntry> entries = catalog_->ShardSnapshot(s, &version);
    if (last_flushed_[s] == version) {
      stats->shards_skipped++;
      continue;
    }
    std::string payload = EncodeShard(s, entries);
    err = WriteDurably(ShardPath(s), payload);
    if (!err.ok()) break;
    touched.push_back(s);
    last_flushed_[s] = version;
    shard_counts_[s] = entries.size();
    stats->shards_flushed++;
    stats->bytes_written += static_cast<int64_t>(payload.size());
  }

  if (err.ok() && stats->shards_flushed > 0) {
    std::string manifest = EncodeManifest(epoch_ + 1);
    err = WriteDurably(ManifestPath(), manifest);
    if (err.ok()) {
      stats->bytes_written += static_cast<int64_t>(manifest.size());
      err = fs()->SyncDir(dir_);
    }
    if (err.ok()) ++epoch_;
  }

  if (!err.ok()) {
    // The directory fsync never happened, so renames done this round are
    // not yet guaranteed durable; re-mark those shards dirty so the next
    // flush re-asserts them.
    for (int s : touched) last_flushed_[s] = kNeverFlushed;
  }
  Add(options_.metrics, Counter::kCatalogFlushes);
  Add(options_.metrics, Counter::kShardsFlushed, stats->shards_flushed);
  Add(options_.metrics, Counter::kDirtyShardSkips, stats->shards_skipped);
  Add(options_.metrics, Counter::kCatalogFlushBytes, stats->bytes_written);
  return err;
}

Status CatalogStore::Refresh(RecoveryReport* report) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!opened_) return Status::InvalidArgument("catalog store not opened");
  if (options_.mode == Mode::kReadWrite) {
    return Status::Unsupported(
        "refresh is for read-only stores; the writer owns the in-memory "
        "state");
  }
  RecoveryReport local_report;
  if (report == nullptr) report = &local_report;
  *report = RecoveryReport{};

  if (fs()->FileExists(ManifestPath())) {
    std::string bytes;
    std::array<uint64_t, kNumShards> counts{};
    uint64_t epoch = 0;
    Status s = fs()->ReadFile(ManifestPath(), &bytes);
    if (s.ok()) s = DecodeManifest(bytes, &epoch, &counts);
    if (s.ok()) {
      epoch_ = epoch;
      shard_counts_ = counts;
    } else {
      report->messages.push_back("MANIFEST: " + s.message());
    }
  }
  // A shard that fails to parse (e.g. read raced the writer's replace) keeps
  // its previous in-memory contents; the next Refresh will catch up.
  (void)LoadShards(/*keep_on_error=*/true, report);
  if (report->shards_quarantined > 0) {
    return Status::Partial("refreshed " + std::to_string(report->shards_loaded) +
                           " of " + std::to_string(kNumShards) +
                           " catalog shards from " + dir_);
  }
  return Status::OK();
}

}  // namespace gordian
