#ifndef GORDIAN_SERVICE_KEY_CATALOG_H_
#define GORDIAN_SERVICE_KEY_CATALOG_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/byte_codec.h"
#include "common/status.h"
#include "core/gordian.h"

namespace gordian {

// One cached discovery result, keyed by the table's content fingerprint
// (TableFingerprint in table/fingerprint.h).
struct CatalogEntry {
  uint64_t fingerprint = 0;
  std::string table_name;  // informational: name at first profiling
  int num_columns = 0;
  KeyDiscoveryResult result;
};

// Thread-safe cache of discovery results keyed by table fingerprint. The
// profiling service consults it before scheduling discovery: an unchanged
// table (same fingerprint) is a cache hit and skips the run entirely.
//
// Storage is striped across 16 shards keyed by the fingerprint's top bits
// (fingerprints are hashes, so the high bits are uniform): every worker of
// the scheduler pool hits the catalog around each job, and a single mutex
// would serialize them on entry copies that can be kilobytes. Point
// operations lock exactly one shard; whole-catalog operations (Clear, size,
// Fingerprints, persistence) visit shards in index order.
//
// Only complete results are admitted — an incomplete result (budget trip or
// cancellation) certifies nothing and would poison the cache, so Put
// rejects it. Lookups copy the entry out; the catalog never hands out
// references into its own storage, so readers and writers cannot alias.
class KeyCatalog {
 public:
  static constexpr int kNumShards = 16;

  // Shard a fingerprint routes to: the top 4 bits (fingerprints are hashes,
  // so the high bits are uniform). Exposed because the per-shard catalog
  // store (service/catalog_store.h) names its files by shard index and
  // validates that every loaded entry belongs to its file.
  static int ShardIndexOf(uint64_t fingerprint) {
    return static_cast<int>(fingerprint >> 60);
  }

  KeyCatalog() = default;

  // Catalogs are plumbed by pointer (services, advisor); copying one would
  // fork the cache silently, so it is non-copyable by design.
  KeyCatalog(const KeyCatalog&) = delete;
  KeyCatalog& operator=(const KeyCatalog&) = delete;

  // Stores `result` for `fingerprint`, replacing any previous entry.
  // Returns false (and stores nothing) for incomplete results.
  bool Put(uint64_t fingerprint, const std::string& table_name,
           int num_columns, const KeyDiscoveryResult& result);

  // Copies the entry for `fingerprint` into *out (when non-null) and
  // returns true, or returns false on a miss.
  bool Lookup(uint64_t fingerprint, CatalogEntry* out) const;

  bool Contains(uint64_t fingerprint) const;
  bool Erase(uint64_t fingerprint);
  void Clear();
  int64_t size() const;

  // All cached fingerprints, unordered.
  std::vector<uint64_t> Fingerprints() const;

  // --- Per-shard access for the catalog store ---------------------------
  //
  // Each shard carries a version counter bumped by every mutation that
  // touches it (Put, successful Erase, Clear, ReplaceShard). The store
  // compares versions against what it last flushed — the dirty bit — so a
  // warm Flush() skips clean shards without comparing bytes.

  // Copies shard `shard`'s entries out, sorted by fingerprint (so a shard's
  // serialized form is deterministic), along with its current version.
  std::vector<CatalogEntry> ShardSnapshot(int shard,
                                          uint64_t* version = nullptr) const;

  // Replaces shard `shard`'s contents wholesale (catalog-store loads).
  // Every entry must route to `shard`; entries that do not are skipped.
  void ReplaceShard(int shard, std::vector<CatalogEntry> entries);

  uint64_t ShardVersion(int shard) const;

 private:
  friend Status WriteCatalogFile(const KeyCatalog& catalog,
                                 const std::string& path);
  friend Status ReadCatalogFile(const std::string& path, KeyCatalog* out);

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, CatalogEntry> entries;
    uint64_t version = 0;  // bumped under mu by every mutation
  };

  Shard& ShardFor(uint64_t fingerprint) const {
    return shards_[ShardIndexOf(fingerprint)];
  }

  mutable std::array<Shard, kNumShards> shards_;
};

// Binary persistence through the codec of common/byte_codec.h:
//
//   magic "GRDC", format version (u32), entry count (u64),
//   per entry: fingerprint (u64), table name (length-prefixed string),
//   column count (u32), flags (u8: no_keys | sampled<<1),
//   rows processed (u64), then the key and non-key lists in the layout of
//   EncodeKeyLists (core/gordian.h), bounded by the entry's column count.
//
// Loading validates the magic, version, counts, attribute ordering and
// range, truncation, and trailing bytes after the last entry, returning
// InvalidArgument rather than crashing on corrupt input (the catalog fuzz
// tests exercise this).

// Writes the whole catalog to `path`, overwriting it.
Status WriteCatalogFile(const KeyCatalog& catalog, const std::string& path);

// Replaces *out's contents with the catalog stored at `path`.
Status ReadCatalogFile(const std::string& path, KeyCatalog* out);

// --- Entry wire codec --------------------------------------------------
//
// The per-entry record format is shared between the legacy single-file GRDC
// format above and the per-shard files of service/catalog_store.h, so a
// shard file is bit-compatible with the corresponding slice of a GRDC file.

// Appends one entry record (fingerprint through non-key list).
void WriteCatalogEntryRecord(const CatalogEntry& entry, ByteWriter* out);

// Reads the tail that GRDC files and GRDS shards share: a u64 entry count,
// then that many entry records, each fully validated (flags,
// plausibility-capped counts, attribute ordering and range), up to the end
// of the input. Returns InvalidArgument on any structural violation,
// including truncation mid-record and bytes after the last record.
Status ReadCatalogEntries(ByteReader* in, std::vector<CatalogEntry>* entries);

}  // namespace gordian

#endif  // GORDIAN_SERVICE_KEY_CATALOG_H_
