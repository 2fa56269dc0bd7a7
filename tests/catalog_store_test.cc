// Tests for the crash-safe per-shard catalog store: property/fuzz
// round-trips, corruption quarantine (one torn shard must not take out the
// other 15), a FaultFs-driven crash-recovery matrix over every injection
// point of the durable-save sequence, the flock writer lease, read-only
// sharing across store instances, and the ProfilingService wiring
// (background flusher, persistence across a service restart, and the
// warm-flush-writes-zero-bytes guarantee asserted via ServiceMetrics).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "datagen/synthetic.h"
#include "service/catalog_store.h"
#include "common/fault_fs.h"
#include "service/key_catalog.h"
#include "service/metrics.h"
#include "service/profiling_service.h"
#include "table/fingerprint.h"

namespace gordian {
namespace {

namespace stdfs = std::filesystem;

// A fresh, empty directory under the test temp root.
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "gordian_store_" + name;
  std::error_code ec;
  stdfs::remove_all(dir, ec);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Fingerprint routed to `shard`, salted so entries within a shard differ.
uint64_t FingerprintInShard(int shard, uint64_t salt) {
  return (static_cast<uint64_t>(shard) << 60) |
         (salt & ((uint64_t{1} << 60) - 1));
}

constexpr int kColumns = 8;

// A small complete discovery result with structure the loader validates
// (canonical attribute sets below kColumns, strengths, flags).
KeyDiscoveryResult MakeResult(Random* rng) {
  KeyDiscoveryResult r;
  r.sampled = rng->Bernoulli(0.3);
  r.stats.rows_processed = 100 + static_cast<int64_t>(rng->Uniform(1000));
  r.stats.num_attributes = kColumns;
  int num_keys = 1 + static_cast<int>(rng->Uniform(3));
  for (int k = 0; k < num_keys; ++k) {
    DiscoveredKey key;
    key.attrs.Set(static_cast<int>(rng->Uniform(kColumns)));
    key.attrs.Set(static_cast<int>(rng->Uniform(kColumns)));
    key.estimated_strength = 0.5 + 0.5 * rng->NextDouble();
    key.exact_strength = rng->Bernoulli(0.5) ? 1.0 : -1.0;
    r.keys.push_back(key);
  }
  AttributeSet nk;
  nk.Set(static_cast<int>(rng->Uniform(kColumns)));
  r.non_keys.push_back(nk);
  return r;
}

void PutRandomEntry(KeyCatalog* catalog, int shard, uint64_t salt,
                    const std::string& name, Random* rng) {
  ASSERT_TRUE(catalog->Put(FingerprintInShard(shard, salt), name, kColumns,
                           MakeResult(rng)));
}

void ExpectEntriesEqual(const CatalogEntry& a, const CatalogEntry& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.table_name, b.table_name);
  EXPECT_EQ(a.num_columns, b.num_columns);
  EXPECT_EQ(a.result.no_keys, b.result.no_keys);
  EXPECT_EQ(a.result.sampled, b.result.sampled);
  EXPECT_EQ(a.result.stats.rows_processed, b.result.stats.rows_processed);
  EXPECT_EQ(a.result.KeySets(), b.result.KeySets());
  EXPECT_EQ(a.result.non_keys, b.result.non_keys);
  ASSERT_EQ(a.result.keys.size(), b.result.keys.size());
  for (size_t i = 0; i < a.result.keys.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.result.keys[i].estimated_strength,
                     b.result.keys[i].estimated_strength);
    EXPECT_DOUBLE_EQ(a.result.keys[i].exact_strength,
                     b.result.keys[i].exact_strength);
  }
}

void ExpectCatalogsEqual(const KeyCatalog& a, const KeyCatalog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (uint64_t fp : a.Fingerprints()) {
    CatalogEntry ea, eb;
    ASSERT_TRUE(a.Lookup(fp, &ea));
    ASSERT_TRUE(b.Lookup(fp, &eb)) << "missing fingerprint " << fp;
    ExpectEntriesEqual(ea, eb);
  }
}

// ------------------------------------------------------------- round trip

TEST(CatalogStore, RandomCatalogsRoundTripPerShard) {
  Random rng(4711);
  for (int trial = 0; trial < 8; ++trial) {
    std::string dir = FreshDir("roundtrip");
    KeyCatalog original;
    int entries = static_cast<int>(rng.Uniform(40));
    for (int e = 0; e < entries; ++e) {
      PutRandomEntry(&original, static_cast<int>(rng.Uniform(16)),
                     rng.Next(), "t" + std::to_string(e), &rng);
    }
    {
      CatalogStore writer(dir, &original);
      ASSERT_TRUE(writer.Open().ok());
      FlushStats stats;
      ASSERT_TRUE(writer.Flush(&stats).ok());
      EXPECT_GT(stats.bytes_written, 0);
      EXPECT_EQ(stats.shards_flushed + stats.shards_skipped,
                KeyCatalog::kNumShards);
    }
    KeyCatalog reloaded;
    CatalogStore reader(dir, &reloaded);
    RecoveryReport report;
    ASSERT_TRUE(reader.Open(&report).ok()) << "trial " << trial;
    EXPECT_EQ(report.shards_quarantined, 0);
    EXPECT_EQ(report.entries_loaded, original.size());
    ExpectCatalogsEqual(original, reloaded);
  }
}

TEST(CatalogStore, WarmFlushWritesZeroBytes) {
  std::string dir = FreshDir("warm");
  Random rng(99);
  KeyCatalog catalog;
  for (int s = 0; s < 16; ++s) PutRandomEntry(&catalog, s, s, "t", &rng);

  ServiceMetrics metrics;
  CatalogStore::Options options;
  options.metrics = &metrics;
  CatalogStore store(dir, &catalog, options);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Flush().ok());

  // Nothing changed: the dirty bits skip all 16 shards and not one byte —
  // shard, manifest, or otherwise — goes to disk.
  ServiceMetrics::Snapshot before = metrics.Read();
  FlushStats stats;
  ASSERT_TRUE(store.Flush(&stats).ok());
  ServiceMetrics::Snapshot after = metrics.Read();
  EXPECT_EQ(stats.shards_flushed, 0);
  EXPECT_EQ(stats.shards_skipped, KeyCatalog::kNumShards);
  EXPECT_EQ(stats.bytes_written, 0);
  EXPECT_EQ(after[Counter::kCatalogFlushBytes],
            before[Counter::kCatalogFlushBytes]);
  EXPECT_EQ(
      after[Counter::kDirtyShardSkips] - before[Counter::kDirtyShardSkips],
      KeyCatalog::kNumShards);
  EXPECT_EQ(
      after[Counter::kCatalogFlushes] - before[Counter::kCatalogFlushes], 1);
  EXPECT_EQ(store.epoch(), 1u);  // warm flush did not bump the manifest
}

TEST(CatalogStore, DirtyBitRewritesOnlyChangedShards) {
  std::string dir = FreshDir("dirty");
  Random rng(7);
  KeyCatalog catalog;
  for (int s = 0; s < 16; ++s) PutRandomEntry(&catalog, s, s, "t", &rng);
  CatalogStore store(dir, &catalog);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Flush().ok());

  PutRandomEntry(&catalog, 3, 1001, "newer", &rng);
  ASSERT_TRUE(catalog.Erase(FingerprintInShard(9, 9)));
  FlushStats stats;
  ASSERT_TRUE(store.Flush(&stats).ok());
  EXPECT_EQ(stats.shards_flushed, 2);  // shards 3 and 9 only
  EXPECT_EQ(stats.shards_skipped, 14);
  EXPECT_EQ(store.epoch(), 2u);
}

// ------------------------------------------------- corruption quarantine

TEST(CatalogStore, CorruptShardIsQuarantinedAloneFuzz) {
  Random rng(20260807);
  for (int trial = 0; trial < 25; ++trial) {
    std::string dir = FreshDir("quarantine");
    KeyCatalog original;
    for (int s = 0; s < 16; ++s) {
      int per_shard = 1 + static_cast<int>(rng.Uniform(3));
      for (int e = 0; e < per_shard; ++e) {
        PutRandomEntry(&original, s, rng.Next(), "q" + std::to_string(e),
                       &rng);
      }
    }
    std::string victim_path;
    int victim = static_cast<int>(rng.Uniform(16));
    {
      CatalogStore writer(dir, &original);
      ASSERT_TRUE(writer.Open().ok());
      ASSERT_TRUE(writer.Flush().ok());
      victim_path = writer.ShardPath(victim);
    }

    // Corrupt exactly one shard file: random truncation or random bit flips.
    std::string bytes = ReadFileBytes(victim_path);
    ASSERT_FALSE(bytes.empty());
    if (rng.Bernoulli(0.5)) {
      bytes.resize(rng.Uniform(bytes.size()));
    } else {
      int flips = 1 + static_cast<int>(rng.Uniform(4));
      for (int f = 0; f < flips; ++f) {
        size_t pos = rng.Uniform(bytes.size());
        bytes[pos] = static_cast<char>(bytes[pos] ^ (1u << rng.Uniform(8)));
      }
    }
    WriteFileBytes(victim_path, bytes);

    KeyCatalog reloaded;
    CatalogStore reader(dir, &reloaded);
    RecoveryReport report;
    Status s = reader.Open(&report);
    ASSERT_TRUE(s.IsPartial()) << "trial " << trial << ": " << s.ToString();
    ASSERT_EQ(report.quarantined_shards, std::vector<int>{victim});
    EXPECT_EQ(report.shards_loaded, 15);
    // The corrupt file moved aside; its 15 neighbours loaded intact.
    EXPECT_FALSE(stdfs::exists(victim_path));
    EXPECT_TRUE(stdfs::exists(victim_path + ".quarantined"));
    for (int s2 = 0; s2 < 16; ++s2) {
      std::vector<CatalogEntry> want = original.ShardSnapshot(s2);
      std::vector<CatalogEntry> got = reloaded.ShardSnapshot(s2);
      if (s2 == victim) {
        EXPECT_TRUE(got.empty());
        continue;
      }
      ASSERT_EQ(got.size(), want.size()) << "shard " << s2;
      for (size_t i = 0; i < got.size(); ++i) {
        ExpectEntriesEqual(want[i], got[i]);
      }
    }
  }
}

// --------------------------------------------------- crash-recovery matrix

struct CrashCase {
  const char* label;
  FaultSpec fault;
};

// Shard contents keyed by fingerprint -> table name; enough to tell the
// old snapshot from the new one (names differ) while staying cheap.
using ShardImage = std::map<uint64_t, std::string>;

ShardImage ImageOf(const KeyCatalog& catalog, int shard) {
  ShardImage image;
  for (const CatalogEntry& e : catalog.ShardSnapshot(shard)) {
    image[e.fingerprint] = e.table_name;
  }
  return image;
}

TEST(CatalogStore, CrashRecoveryMatrixYieldsOldOrNewPerShard) {
  const CrashCase kCases[] = {
      {"shard temp write fails outright",
       {FsOp::kWriteFile, "shard-", 0, -1, "injected fault", true}},
      {"shard temp write torn after 20 bytes",
       {FsOp::kWriteFile, "shard-", 1, 20, "injected torn write", true}},
      {"shard temp write hits ENOSPC mid-file",
       {FsOp::kWriteFile, "shard-", 2, 100,
        "injected ENOSPC: no space left on device", true}},
      {"shard fsync fails",
       {FsOp::kSyncFile, "shard-", 1, -1, "injected fault", true}},
      {"shard rename fails",
       {FsOp::kRename, "shard-", 1, -1, "injected fault", true}},
      {"manifest temp write fails",
       {FsOp::kWriteFile, "MANIFEST", 0, -1, "injected fault", true}},
      {"manifest temp write torn",
       {FsOp::kWriteFile, "MANIFEST", 0, 10, "injected torn write", true}},
      {"manifest fsync fails",
       {FsOp::kSyncFile, "MANIFEST", 0, -1, "injected fault", true}},
      {"manifest rename fails",
       {FsOp::kRename, "MANIFEST", 0, -1, "injected fault", true}},
      {"directory fsync fails",
       {FsOp::kSyncDir, "", 0, -1, "injected fault", true}},
  };

  Random rng(31337);
  for (const CrashCase& c : kCases) {
    SCOPED_TRACE(c.label);
    std::string dir = FreshDir("crash");

    // State A: entries in several shards, flushed clean.
    KeyCatalog catalog;
    for (int s = 0; s < 8; ++s) {
      PutRandomEntry(&catalog, s, 10 + s, "old", &rng);
      PutRandomEntry(&catalog, s, 200 + s, "old", &rng);
    }
    FaultInjectionFs ffs(DefaultFileSystem());
    CatalogStore::Options options;
    options.fs = &ffs;
    std::array<ShardImage, 16> old_image, new_image;
    {
      CatalogStore store(dir, &catalog, options);
      ASSERT_TRUE(store.Open().ok());
      ASSERT_TRUE(store.Flush().ok());
      for (int s = 0; s < 16; ++s) old_image[s] = ImageOf(catalog, s);

      // State B: touch five shards (update, add, erase) and one new shard.
      for (int s = 2; s < 6; ++s) {
        PutRandomEntry(&catalog, s, 10 + s, "new", &rng);   // update
        PutRandomEntry(&catalog, s, 3000 + s, "new", &rng); // add
      }
      ASSERT_TRUE(catalog.Erase(FingerprintInShard(7, 207)));
      PutRandomEntry(&catalog, 12, 999, "new", &rng);  // fresh shard
      for (int s = 0; s < 16; ++s) new_image[s] = ImageOf(catalog, s);

      ffs.Arm(c.fault);
      Status flush = store.Flush();
      ASSERT_FALSE(flush.ok());
      ASSERT_TRUE(ffs.fired()) << "fault never matched: " << flush.ToString();
      // The store is abandoned here, mid-save, exactly as a crash would
      // leave it (the halted fs blocked everything after the fault point).
    }

    // Reboot: recover the directory with a healthy file system.
    KeyCatalog recovered;
    CatalogStore reopened(dir, &recovered);
    RecoveryReport report;
    Status open = reopened.Open(&report);
    // Write-to-temp + atomic rename must never leave a corrupt *final*
    // file, whatever step died — so recovery is clean, never partial.
    ASSERT_TRUE(open.ok()) << open.ToString();
    EXPECT_EQ(report.shards_quarantined, 0);

    for (int s = 0; s < 16; ++s) {
      ShardImage got = ImageOf(recovered, s);
      EXPECT_TRUE(got == old_image[s] || got == new_image[s])
          << "shard " << s << " recovered to a mixed/unknown snapshot";
    }
  }
}

TEST(CatalogStore, InterruptedFlushRetriesToCompletion) {
  std::string dir = FreshDir("retry");
  Random rng(55);
  KeyCatalog catalog;
  for (int s = 0; s < 6; ++s) PutRandomEntry(&catalog, s, s, "v1", &rng);

  FaultInjectionFs ffs(DefaultFileSystem());
  CatalogStore::Options options;
  options.fs = &ffs;
  CatalogStore store(dir, &catalog, options);
  ASSERT_TRUE(store.Open().ok());

  // First flush dies on the third shard file; the same store retries after
  // the "transient" fault clears and must complete the snapshot.
  ffs.Arm({FsOp::kWriteFile, "shard-", 2, -1, "injected fault", true});
  ASSERT_FALSE(store.Flush().ok());
  ffs.Reset();
  ASSERT_TRUE(store.Flush().ok());

  KeyCatalog reloaded;
  CatalogStore::Options reader_options;
  reader_options.mode = CatalogStore::Mode::kReadOnly;  // writer holds the lease
  CatalogStore reader(dir, &reloaded, reader_options);
  ASSERT_TRUE(reader.Open().ok());
  ExpectCatalogsEqual(catalog, reloaded);
}

// ------------------------------------------------------- lease + sharing

TEST(CatalogStore, SecondWriterFailsFastWithClearStatus) {
  std::string dir = FreshDir("lease");
  KeyCatalog c1, c2;
  CatalogStore writer1(dir, &c1);
  ASSERT_TRUE(writer1.Open().ok());

  CatalogStore writer2(dir, &c2);
  Status s = writer2.Open();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kIOError);
  EXPECT_NE(s.ToString().find("writer lease"), std::string::npos)
      << s.ToString();
}

TEST(CatalogStore, LeaseIsReleasedOnDestruction) {
  std::string dir = FreshDir("lease2");
  KeyCatalog c1, c2;
  {
    CatalogStore writer1(dir, &c1);
    ASSERT_TRUE(writer1.Open().ok());
  }
  CatalogStore writer2(dir, &c2);
  EXPECT_TRUE(writer2.Open().ok());
}

TEST(CatalogStore, ReaderObservesWriterFlushes) {
  std::string dir = FreshDir("share");
  Random rng(81);
  KeyCatalog writer_catalog;
  CatalogStore writer(dir, &writer_catalog);
  ASSERT_TRUE(writer.Open().ok());
  PutRandomEntry(&writer_catalog, 4, 1, "first", &rng);
  ASSERT_TRUE(writer.Flush().ok());

  // A reader over the same directory, no lease, sees the flushed entry.
  KeyCatalog reader_catalog;
  CatalogStore::Options read_options;
  read_options.mode = CatalogStore::Mode::kReadOnly;
  CatalogStore reader(dir, &reader_catalog, read_options);
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_TRUE(reader_catalog.Contains(FingerprintInShard(4, 1)));
  EXPECT_EQ(reader_catalog.size(), 1);

  // Unflushed writer state is invisible; after the flush, Refresh sees it.
  PutRandomEntry(&writer_catalog, 9, 2, "second", &rng);
  ASSERT_TRUE(reader.Refresh().ok());
  EXPECT_FALSE(reader_catalog.Contains(FingerprintInShard(9, 2)));
  ASSERT_TRUE(writer.Flush().ok());
  ASSERT_TRUE(reader.Refresh().ok());
  EXPECT_TRUE(reader_catalog.Contains(FingerprintInShard(9, 2)));
  EXPECT_EQ(reader.epoch(), writer.epoch());

  // Readers cannot write, and they hold no lease that would block one.
  EXPECT_EQ(reader.Flush().code(), Status::Code::kUnsupported);
}

// ------------------------------------------------------- service wiring

Table MakeTable(int64_t rows, uint64_t seed) {
  SyntheticSpec spec = UniformSpec(5, rows, 24, 0.5, seed);
  spec.columns[0].cardinality = 128;
  spec.columns[2].cardinality = 32;
  spec.planted_keys.push_back({0, 2});
  Table t;
  Status s = GenerateSynthetic(spec, &t);
  EXPECT_TRUE(s.ok());
  return t;
}

TEST(ProfilingServicePersistence, CatalogSurvivesServiceRestart) {
  std::string dir = FreshDir("service");
  std::vector<Table> tables;
  for (uint64_t i = 0; i < 3; ++i) tables.push_back(MakeTable(200, 40 + i));

  {
    ServiceOptions options;
    options.num_threads = 2;
    options.catalog_dir = dir;
    options.flush_every_puts = 1;  // background flusher after every put
    ProfilingService service(options);
    ASSERT_TRUE(service.persistence_status().ok())
        << service.persistence_status().ToString();
    std::vector<JobId> ids;
    for (size_t i = 0; i < tables.size(); ++i) {
      ids.push_back(service.SubmitTable("t" + std::to_string(i), &tables[i]));
    }
    for (JobId id : ids) {
      ProfileOutcome out = service.Wait(id);
      EXPECT_FALSE(out.cache_hit);
      EXPECT_FALSE(out.result.incomplete);
    }
    // Destructor: final flush + lease release.
  }

  ServiceOptions options;
  options.num_threads = 2;
  options.catalog_dir = dir;
  ProfilingService service(options);
  ASSERT_TRUE(service.persistence_status().ok());
  EXPECT_EQ(service.catalog().size(), static_cast<int64_t>(tables.size()));

  // Every table is served straight from the recovered catalog.
  for (size_t i = 0; i < tables.size(); ++i) {
    ProfileOutcome out =
        service.Wait(service.SubmitTable("again", &tables[i]));
    EXPECT_TRUE(out.cache_hit) << "table " << i;
  }
  ServiceMetrics::Snapshot m = service.Metrics();
  EXPECT_EQ(m[Counter::kCacheHits], static_cast<int64_t>(tables.size()));
  EXPECT_GT(m[Counter::kShardsRecovered], 0);

  // With nothing new, a flush is pure dirty-bit skips: zero bytes.
  ASSERT_TRUE(service.FlushCatalog().ok());
  ServiceMetrics::Snapshot before = service.Metrics();
  ASSERT_TRUE(service.FlushCatalog().ok());
  ServiceMetrics::Snapshot after = service.Metrics();
  EXPECT_EQ(after[Counter::kCatalogFlushBytes],
            before[Counter::kCatalogFlushBytes]);
  EXPECT_EQ(
      after[Counter::kDirtyShardSkips] - before[Counter::kDirtyShardSkips],
      KeyCatalog::kNumShards);
}

TEST(ProfilingServicePersistence, SecondServiceOnSameDirDegradesGracefully) {
  std::string dir = FreshDir("service_lease");
  ServiceOptions options;
  options.num_threads = 1;
  options.catalog_dir = dir;
  ProfilingService first(options);
  ASSERT_TRUE(first.persistence_status().ok());

  // The second service cannot take the lease: it still profiles fine, but
  // reports why durability is off and has no store.
  ProfilingService second(options);
  Status s = second.persistence_status();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("writer lease"), std::string::npos);
  EXPECT_EQ(second.catalog_store(), nullptr);

  Table t = MakeTable(150, 5);
  ProfileOutcome out = second.Wait(second.SubmitTable("t", &t));
  EXPECT_FALSE(out.result.incomplete);
}

TEST(ProfilingServicePersistence, QuarantinedShardSurfacesAsPartial) {
  std::string dir = FreshDir("service_partial");
  Random rng(12);
  {
    KeyCatalog catalog;
    for (int s = 0; s < 16; ++s) PutRandomEntry(&catalog, s, s, "t", &rng);
    CatalogStore store(dir, &catalog);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Flush().ok());
  }
  // Tear one shard's file.
  std::string victim = dir + "/shard-05.grdc";
  WriteFileBytes(victim, ReadFileBytes(victim).substr(0, 9));

  ServiceOptions options;
  options.num_threads = 1;
  options.catalog_dir = dir;
  ProfilingService service(options);
  Status s = service.persistence_status();
  EXPECT_TRUE(s.IsPartial()) << s.ToString();
  EXPECT_EQ(service.recovery_report().quarantined_shards,
            std::vector<int>{5});
  EXPECT_EQ(service.catalog().size(), 15);
  EXPECT_NE(service.catalog_store(), nullptr);  // still durable going forward
  ServiceMetrics::Snapshot m = service.Metrics();
  EXPECT_EQ(m[Counter::kShardsQuarantined], 1);
  EXPECT_EQ(m[Counter::kShardsRecovered], 15);
}

}  // namespace
}  // namespace gordian
