#include "service/key_catalog.h"

#include <algorithm>
#include <utility>

#include "common/fault_fs.h"

namespace gordian {

bool KeyCatalog::Put(uint64_t fingerprint, const std::string& table_name,
                     int num_columns, const KeyDiscoveryResult& result) {
  if (result.incomplete) return false;
  CatalogEntry entry;
  entry.fingerprint = fingerprint;
  entry.table_name = table_name;
  entry.num_columns = num_columns;
  entry.result = result;
  Shard& shard = ShardFor(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.entries[fingerprint] = std::move(entry);
  ++shard.version;
  return true;
}

bool KeyCatalog::Lookup(uint64_t fingerprint, CatalogEntry* out) const {
  const Shard& shard = ShardFor(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(fingerprint);
  if (it == shard.entries.end()) return false;
  if (out != nullptr) *out = it->second;
  return true;
}

bool KeyCatalog::Contains(uint64_t fingerprint) const {
  return Lookup(fingerprint, nullptr);
}

bool KeyCatalog::Erase(uint64_t fingerprint) {
  Shard& shard = ShardFor(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.entries.erase(fingerprint) == 0) return false;
  ++shard.version;
  return true;
}

void KeyCatalog::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.entries.empty()) {
      shard.entries.clear();
      ++shard.version;
    }
  }
}

int64_t KeyCatalog::size() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += static_cast<int64_t>(shard.entries.size());
  }
  return total;
}

std::vector<uint64_t> KeyCatalog::Fingerprints() const {
  std::vector<uint64_t> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [fp, entry] : shard.entries) out.push_back(fp);
  }
  return out;
}

std::vector<CatalogEntry> KeyCatalog::ShardSnapshot(int shard,
                                                    uint64_t* version) const {
  const Shard& s = shards_[shard];
  std::vector<CatalogEntry> out;
  std::lock_guard<std::mutex> lock(s.mu);
  out.reserve(s.entries.size());
  for (const auto& [fp, entry] : s.entries) out.push_back(entry);
  std::sort(out.begin(), out.end(),
            [](const CatalogEntry& a, const CatalogEntry& b) {
              return a.fingerprint < b.fingerprint;
            });
  if (version != nullptr) *version = s.version;
  return out;
}

void KeyCatalog::ReplaceShard(int shard, std::vector<CatalogEntry> entries) {
  Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  s.entries.clear();
  for (CatalogEntry& entry : entries) {
    if (ShardIndexOf(entry.fingerprint) != shard) continue;
    uint64_t fp = entry.fingerprint;
    s.entries[fp] = std::move(entry);
  }
  ++s.version;
}

uint64_t KeyCatalog::ShardVersion(int shard) const {
  const Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  return s.version;
}

namespace {

constexpr std::string_view kMagic = "GRDC";
constexpr uint32_t kFormatVersion = 1;

// Hard ceilings against corrupt counts: loading must never be talked into
// gigabyte allocations by a flipped byte.
constexpr uint64_t kMaxEntries = 1u << 20;
constexpr uint32_t kMaxNameBytes = 1u << 20;
// The smallest entry record (an empty name, no keys, no non-keys): the
// count rule's item size for an entry count.
constexpr size_t kMinEntryBytes = 33;

Status ReadCatalogEntryRecord(ByteReader* in, CatalogEntry* out) {
  CatalogEntry entry;
  uint32_t num_columns;
  uint8_t flags;
  uint64_t rows;
  if (!in->U64(&entry.fingerprint) ||
      !in->Str(&entry.table_name, kMaxNameBytes) || !in->U32(&num_columns) ||
      !in->U8(&flags) || !in->U64(&rows)) {
    return Status::InvalidArgument("truncated catalog entry");
  }
  if (flags > 3) return Status::InvalidArgument("corrupt entry flags");
  if (num_columns > static_cast<uint32_t>(AttributeSet::kMaxAttributes)) {
    return Status::InvalidArgument("too many columns in catalog entry");
  }
  if (rows > (uint64_t{1} << 40)) {
    return Status::InvalidArgument("implausible row count");
  }
  entry.num_columns = static_cast<int>(num_columns);
  entry.result.no_keys = (flags & 1) != 0;
  entry.result.sampled = (flags & 2) != 0;
  entry.result.stats.rows_processed = static_cast<int64_t>(rows);
  entry.result.stats.num_attributes = entry.num_columns;
  Status s = DecodeKeyLists(in, entry.num_columns, &entry.result);
  if (!s.ok()) return s;
  *out = std::move(entry);
  return Status::OK();
}

}  // namespace

void WriteCatalogEntryRecord(const CatalogEntry& entry, ByteWriter* out) {
  out->U64(entry.fingerprint);
  out->Str(entry.table_name);
  out->U32(static_cast<uint32_t>(entry.num_columns));
  uint8_t flags = 0;
  if (entry.result.no_keys) flags |= 1;
  if (entry.result.sampled) flags |= 2;
  out->U8(flags);
  out->U64(static_cast<uint64_t>(entry.result.stats.rows_processed));
  EncodeKeyLists(entry.result, out);
}

Status ReadCatalogEntries(ByteReader* in,
                          std::vector<CatalogEntry>* entries) {
  uint64_t count;
  if (!in->Count(&count, kMinEntryBytes) || count > kMaxEntries) {
    return Status::InvalidArgument("implausible catalog entry count");
  }
  entries->clear();
  entries->reserve(count);
  for (uint64_t e = 0; e < count; ++e) {
    CatalogEntry entry;
    Status s = ReadCatalogEntryRecord(in, &entry);
    if (!s.ok()) return s;
    entries->push_back(std::move(entry));
  }
  // Every valid byte is accounted for above; input that keeps going after
  // the declared last entry was either mis-written or tampered with, and
  // silently dropping the tail would mask both.
  if (!in->AtEnd()) {
    return Status::InvalidArgument("trailing garbage after last catalog entry");
  }
  return Status::OK();
}

Status WriteCatalogFile(const KeyCatalog& catalog, const std::string& path) {
  std::string bytes;
  ByteWriter w(&bytes);
  {
    // The entry count precedes the entries, so the snapshot must be
    // globally consistent: take every shard lock, in index order (the same
    // order Clear uses; point operations hold one lock at a time, so no
    // cycle exists).
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(KeyCatalog::kNumShards);
    uint64_t total = 0;
    for (const KeyCatalog::Shard& shard : catalog.shards_) {
      locks.emplace_back(shard.mu);
      total += shard.entries.size();
    }
    w.Raw(kMagic);
    w.U32(kFormatVersion);
    w.U64(total);
    for (const KeyCatalog::Shard& shard : catalog.shards_) {
      for (const auto& kv : shard.entries) {
        WriteCatalogEntryRecord(kv.second, &w);
      }
    }
  }
  return DefaultFileSystem()->WriteFile(path, bytes);
}

Status ReadCatalogFile(const std::string& path, KeyCatalog* out) {
  std::string bytes;
  Status s = DefaultFileSystem()->ReadFile(path, &bytes);
  if (!s.ok()) return s;
  ByteReader r(bytes);
  if (!r.Magic(kMagic)) {
    return Status::InvalidArgument("not a gordian catalog file: " + path);
  }
  uint32_t version;
  if (!r.U32(&version) || version != kFormatVersion) {
    return Status::InvalidArgument("unsupported catalog format version");
  }
  std::vector<CatalogEntry> entries;
  s = ReadCatalogEntries(&r, &entries);
  if (!s.ok()) return s;
  KeyCatalog loaded;
  for (const CatalogEntry& entry : entries) {
    loaded.Put(entry.fingerprint, entry.table_name, entry.num_columns,
               entry.result);
  }

  // `loaded` is private to this call, so its shards need no locking; the
  // destination's do. Shard assignment is a pure function of the
  // fingerprint, so moving shard-by-shard preserves placement.
  for (int i = 0; i < KeyCatalog::kNumShards; ++i) {
    std::lock_guard<std::mutex> lock(out->shards_[i].mu);
    out->shards_[i].entries = std::move(loaded.shards_[i].entries);
  }
  return Status::OK();
}

}  // namespace gordian
