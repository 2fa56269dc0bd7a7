// Golden bytes for every binary format the library writes: GRDT tables,
// GRDD artifact metadata, GRDL spilled columns, GRDC catalog files, GRDS
// catalog shards, the GRDM manifest, GRDN frame headers and the RPC
// payloads. Each test encodes a small fixed object, compares the bytes with
// a hex constant, and decodes the constant back into the object, so a
// change to any encoder or decoder that moves a single byte fails here.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/gordian.h"
#include "net/byte_stream.h"
#include "net/frame.h"
#include "net/wire.h"
#include "service/catalog_store.h"
#include "service/key_catalog.h"
#include "service/table_artifacts.h"
#include "table/serialize.h"
#include "table/table.h"

namespace gordian {
namespace {

namespace stdfs = std::filesystem;

constexpr uint64_t kNanBits = 0x7ff8000000000123ull;  // quiet NaN, payload

double NanWithPayload() {
  double d;
  std::memcpy(&d, &kNanBits, sizeof(d));
  return d;
}

uint64_t BitsOf(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

std::string Unhex(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "gordian_golden_" + name;
  std::error_code ec;
  stdfs::remove_all(dir, ec);
  stdfs::create_directories(dir, ec);
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

// Three columns, two rows: an int, a double (one cell a NaN with a
// payload), and a string column holding a NULL.
Table GoldenTable() {
  TableBuilder b(Schema(std::vector<std::string>{"i", "d", "s"}));
  b.AddRow({Value(int64_t{-2}), Value(NanWithPayload()), Value("ab")});
  b.AddRow({Value(int64_t{7}), Value(1.5), Value::Null()});
  return b.Build();
}

void ExpectGoldenTable(const Table& t) {
  ASSERT_EQ(t.num_columns(), 3);
  ASSERT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.schema().name(0), "i");
  EXPECT_EQ(t.schema().name(1), "d");
  EXPECT_EQ(t.schema().name(2), "s");
  EXPECT_EQ(t.value(0, 0), Value(int64_t{-2}));
  EXPECT_EQ(t.value(1, 0), Value(int64_t{7}));
  ASSERT_EQ(t.value(0, 1).type(), ValueType::kDouble);
  EXPECT_EQ(BitsOf(t.value(0, 1).dbl()), kNanBits);
  EXPECT_EQ(t.value(1, 1), Value(1.5));
  EXPECT_EQ(t.value(0, 2), Value("ab"));
  EXPECT_TRUE(t.value(1, 2).is_null());
  for (int c = 0; c < 3; ++c) EXPECT_EQ(t.dictionary(c).size(), 2u);
}

// Keys {0,2} (a sampled estimate) and {1}, non-keys {0,1} and {1,2}.
KeyDiscoveryResult GoldenResult() {
  KeyDiscoveryResult r;
  r.sampled = true;
  DiscoveredKey k;
  k.attrs = AttributeSet{0, 2};
  k.estimated_strength = 0.5;
  k.exact_strength = 1.0;
  r.keys.push_back(k);
  k.attrs = AttributeSet::Single(1);
  k.estimated_strength = 1.0;
  k.exact_strength = -1.0;
  r.keys.push_back(k);
  r.non_keys.push_back(AttributeSet{0, 1});
  r.non_keys.push_back(AttributeSet{1, 2});
  r.stats.rows_processed = 2;
  r.stats.num_attributes = 3;
  return r;
}

void ExpectSameResult(const KeyDiscoveryResult& a,
                      const KeyDiscoveryResult& b) {
  EXPECT_EQ(a.no_keys, b.no_keys);
  EXPECT_EQ(a.sampled, b.sampled);
  EXPECT_EQ(a.incomplete, b.incomplete);
  EXPECT_EQ(a.incomplete_reason, b.incomplete_reason);
  EXPECT_EQ(a.stats.rows_processed, b.stats.rows_processed);
  EXPECT_EQ(a.stats.num_attributes, b.stats.num_attributes);
  ASSERT_EQ(a.keys.size(), b.keys.size());
  for (size_t i = 0; i < a.keys.size(); ++i) {
    EXPECT_EQ(a.keys[i].attrs, b.keys[i].attrs);
    EXPECT_EQ(BitsOf(a.keys[i].estimated_strength),
              BitsOf(b.keys[i].estimated_strength));
    EXPECT_EQ(BitsOf(a.keys[i].exact_strength),
              BitsOf(b.keys[i].exact_strength));
  }
  EXPECT_EQ(a.non_keys, b.non_keys);
}

// Routes to catalog shard 1 (its top four bits).
constexpr uint64_t kGoldenFingerprint = 0x1234567890abcdefull;

void FillGoldenCatalog(KeyCatalog* catalog) {
  ASSERT_TRUE(catalog->Put(kGoldenFingerprint, "t", 3, GoldenResult()));
}

// ------------------------------------------------------------------ tables

const char kGrdt[] =
    "475244540100000003000000020000000000000001000000690200000001feff"
    "ffffffffffff0107000000000000000000000001000000010000006402000000"
    "02230100000000f87f02000000000000f83f0000000001000000010000007302"
    "00000003020000006162000000000001000000";

TEST(FormatGolden, GrdtTable) {
  std::ostringstream os(std::ios::binary);
  ASSERT_TRUE(WriteTable(GoldenTable(), os).ok());
  EXPECT_EQ(Hex(os.str()), kGrdt);

  const std::string path = FreshDir("grdt") + "/t.grdt";
  WriteFileBytes(path, Unhex(kGrdt));
  Table back;
  ASSERT_TRUE(ReadTableFile(path, &back).ok());
  ExpectGoldenTable(back);
}

const char kGrdd[] =
    "475244440100000003000000020000000000000001000000690200000001feff"
    "ffffffffffff01070000000000000001000000640200000002230100000000f8"
    "7f02000000000000f83f0100000073020000000302000000616200f60851c29a"
    "906770";

// Column 2 ("s") with one row per chunk: two chunk-table rows, the second
// counting the NULL.
const char kGrdl[] =
    "0000000001000000526e9f5cfe2183660000000000000000c51f64b0a06b3107"
    "01000000010000004752444c0100000002000000000000000100000002000000"
    "01000000020000000800000000000000000000000000000040acb70b979a99a7";

TEST(FormatGolden, ArtifactGrddAndGrdl) {
  const std::string dir = FreshDir("artifact");
  TableArtifactStore::Options options;
  options.chunk_rows = 1;
  const uint64_t fp = 0xfeedface01234567ull;
  {
    TableArtifactStore store(dir, options);
    ASSERT_TRUE(store.Put(fp, GoldenTable()).ok());
    EXPECT_EQ(Hex(ReadFileBytes(store.MetaPath(fp))), kGrdd);
    EXPECT_EQ(Hex(ReadFileBytes(store.ColumnPath(fp, 2))), kGrdl);
  }

  // The artifact reloads from the golden meta and column bytes.
  TableArtifactStore store(dir, options);
  WriteFileBytes(store.MetaPath(fp), Unhex(kGrdd));
  WriteFileBytes(store.ColumnPath(fp, 2), Unhex(kGrdl));
  Table back;
  ASSERT_TRUE(store.Get(fp, &back).ok());
  ExpectGoldenTable(back);
}

// ----------------------------------------------------------------- catalog

const char kGrdc[] =
    "47524443010000000100000000000000efcdab90785634120100000074030000"
    "0002020000000000000002000000020002000000000000e03f000000000000f0"
    "3f0101000000000000f03f000000000000f0bf02000000020001020102";

TEST(FormatGolden, GrdcFile) {
  KeyCatalog catalog;
  FillGoldenCatalog(&catalog);
  const std::string path = FreshDir("grdc") + "/c.grdc";
  ASSERT_TRUE(WriteCatalogFile(catalog, path).ok());
  EXPECT_EQ(Hex(ReadFileBytes(path)), kGrdc);

  WriteFileBytes(path, Unhex(kGrdc));
  KeyCatalog loaded;
  ASSERT_TRUE(ReadCatalogFile(path, &loaded).ok());
  CatalogEntry entry;
  ASSERT_TRUE(loaded.Lookup(kGoldenFingerprint, &entry));
  EXPECT_EQ(entry.table_name, "t");
  EXPECT_EQ(entry.num_columns, 3);
  ExpectSameResult(entry.result, GoldenResult());
}

const char kGrdsShard1[] =
    "4752445301000000010000000100000000000000efcdab907856341201000000"
    "740300000002020000000000000002000000020002000000000000e03f000000"
    "000000f03f0101000000000000f03f000000000000f0bf020000000200010201"
    "02da3c6b9624fa5ffd";

const char kGrdsEmptyShard0[] =
    "475244530100000000000000000000000000000007991a27be5614be";

const char kGrdm[] =
    "4752444d01000000010000000000000010000000000000000000000001000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000f291c8f867b4a209";

TEST(FormatGolden, GrdsShardsAndGrdmManifest) {
  const std::string dir = FreshDir("store");
  {
    KeyCatalog catalog;
    FillGoldenCatalog(&catalog);
    CatalogStore store(dir, &catalog);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Flush().ok());
    EXPECT_EQ(Hex(ReadFileBytes(store.ShardPath(1))), kGrdsShard1);
    EXPECT_EQ(Hex(ReadFileBytes(store.ShardPath(0))), kGrdsEmptyShard0);
    EXPECT_EQ(Hex(ReadFileBytes(store.ManifestPath())), kGrdm);
  }

  // Rewrite the files from the constants and load them read-only.
  CatalogStore::Options read_only;
  read_only.mode = CatalogStore::Mode::kReadOnly;
  KeyCatalog loaded;
  CatalogStore store(dir, &loaded, read_only);
  WriteFileBytes(store.ShardPath(1), Unhex(kGrdsShard1));
  WriteFileBytes(store.ShardPath(0), Unhex(kGrdsEmptyShard0));
  WriteFileBytes(store.ManifestPath(), Unhex(kGrdm));
  RecoveryReport report;
  ASSERT_TRUE(store.Open(&report).ok());
  EXPECT_EQ(report.shards_loaded, KeyCatalog::kNumShards);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(loaded.size(), 1);
  CatalogEntry entry;
  ASSERT_TRUE(loaded.Lookup(kGoldenFingerprint, &entry));
  ExpectSameResult(entry.result, GoldenResult());
}

// --------------------------------------------------------------------- net

const char kGrdnHeader[] =
    "4752444e020000000807060504030201020207004d0000006869";

TEST(FormatGolden, GrdnFrame) {
  Frame frame;
  frame.request_id = 0x0102030405060708ull;
  frame.type = FrameType::kResponse;
  frame.method = RpcMethod::kHealth;
  frame.status_code = Status::Code::kUnavailable;
  frame.deadline_millis = 77;
  frame.payload = "hi";
  MemoryStream out;
  ASSERT_TRUE(WriteFrame(out, frame).ok());
  EXPECT_EQ(Hex(out.output()), kGrdnHeader);

  MemoryStream in(Unhex(kGrdnHeader));
  Frame back;
  ASSERT_TRUE(ReadFrame(in, &back).ok());
  EXPECT_EQ(back.request_id, frame.request_id);
  EXPECT_EQ(back.type, frame.type);
  EXPECT_EQ(back.method, frame.method);
  EXPECT_EQ(back.status_code, frame.status_code);
  EXPECT_EQ(back.deadline_millis, frame.deadline_millis);
  EXPECT_EQ(back.payload, frame.payload);
}

const char kProfileRequest[] =
    "efcdab90785634120200000063310100000074fdffffff016400000000000000"
    "07000000000000000400000047524454";

TEST(FormatGolden, ProfileRequest) {
  ProfileRequest req;
  req.fingerprint = kGoldenFingerprint;
  req.client_id = "c1";
  req.table_name = "t";
  req.priority = -3;
  req.use_catalog = true;
  req.use_tree_cache = false;
  req.sample_rows = 100;
  req.sample_seed = 7;
  req.table_bytes = "GRDT";
  std::string bytes;
  EncodeProfileRequest(req, &bytes);
  EXPECT_EQ(Hex(bytes), kProfileRequest);

  ProfileRequest back;
  ASSERT_TRUE(DecodeProfileRequest(Unhex(kProfileRequest), &back).ok());
  EXPECT_EQ(back.fingerprint, req.fingerprint);
  EXPECT_EQ(back.client_id, req.client_id);
  EXPECT_EQ(back.table_name, req.table_name);
  EXPECT_EQ(back.priority, req.priority);
  EXPECT_EQ(back.use_catalog, req.use_catalog);
  EXPECT_EQ(back.use_tree_cache, req.use_tree_cache);
  EXPECT_EQ(back.sample_rows, req.sample_rows);
  EXPECT_EQ(back.sample_seed, req.sample_seed);
  EXPECT_EQ(back.table_bytes, req.table_bytes);
}

const char kDiscoveryResult[] =
    "02000200000000000000030000000000000002000000020002000000000000e0"
    "3f000000000000f03f0101000000000000f03f000000000000f0bf0200000002"
    "0001020102";

TEST(FormatGolden, DiscoveryResult) {
  std::string bytes;
  EncodeDiscoveryResult(GoldenResult(), &bytes);
  EXPECT_EQ(Hex(bytes), kDiscoveryResult);

  const std::string golden = Unhex(kDiscoveryResult);
  size_t pos = 0;
  KeyDiscoveryResult back;
  ASSERT_TRUE(DecodeDiscoveryResult(golden, &pos, &back).ok());
  EXPECT_EQ(pos, golden.size());
  ExpectSameResult(back, GoldenResult());
}

const char kProfileResponse[] =
    "efcdab9078563412050100000077020002000000000000000300000000000000"
    "02000000020002000000000000e03f000000000000f03f0101000000000000f0"
    "3f000000000000f0bf02000000020001020102";

const char kProfileResponseIncomplete[] =
    "0500000000000000020b0000006f776e65722d30302d31350402090000000000"
    "00008000000000000000000000000100000002007f";

TEST(FormatGolden, ProfileResponses) {
  ProfileResponse complete;
  complete.fingerprint = kGoldenFingerprint;
  complete.cache_hit = true;
  complete.tree_cache_hit = true;
  complete.served_by = "w";
  complete.result = GoldenResult();

  ProfileResponse incomplete;
  incomplete.fingerprint = 5;
  incomplete.follower_hit = true;
  incomplete.served_by = "owner-00-15";
  incomplete.result.incomplete = true;
  incomplete.result.incomplete_reason = AbortReason::kTimeBudget;
  incomplete.result.non_keys.push_back(AttributeSet{0, 127});
  incomplete.result.stats.rows_processed = 9;
  incomplete.result.stats.num_attributes = 128;

  const std::pair<const ProfileResponse*, const char*> cases[] = {
      {&complete, kProfileResponse},
      {&incomplete, kProfileResponseIncomplete},
  };
  for (const auto& [resp, hex] : cases) {
    std::string bytes;
    EncodeProfileResponse(*resp, &bytes);
    EXPECT_EQ(Hex(bytes), hex);

    ProfileResponse back;
    ASSERT_TRUE(DecodeProfileResponse(Unhex(hex), &back).ok());
    EXPECT_EQ(back.fingerprint, resp->fingerprint);
    EXPECT_EQ(back.cache_hit, resp->cache_hit);
    EXPECT_EQ(back.follower_hit, resp->follower_hit);
    EXPECT_EQ(back.tree_cache_hit, resp->tree_cache_hit);
    EXPECT_EQ(back.served_by, resp->served_by);
    ExpectSameResult(back.result, resp->result);
  }
}

const char kHealth[] =
    "0200020f03000000000000000100000000000000040000000000000000000100"
    "000000000200000003000000";

TEST(FormatGolden, HealthInfo) {
  HealthInfo info;
  info.role = HealthInfo::Role::kRouter;
  info.accepting = false;
  info.shard_first = 2;
  info.shard_last = 15;
  info.queue_depth = 3;
  info.running_jobs = 1;
  info.active_rpcs = 4;
  info.catalog_entries = 0x10000;
  info.workers_up = 2;
  info.workers_total = 3;
  std::string bytes;
  EncodeHealthInfo(info, &bytes);
  EXPECT_EQ(Hex(bytes), kHealth);

  HealthInfo back;
  ASSERT_TRUE(DecodeHealthInfo(Unhex(kHealth), &back).ok());
  EXPECT_EQ(back.role, info.role);
  EXPECT_EQ(back.accepting, info.accepting);
  EXPECT_EQ(back.shard_first, info.shard_first);
  EXPECT_EQ(back.shard_last, info.shard_last);
  EXPECT_EQ(back.queue_depth, info.queue_depth);
  EXPECT_EQ(back.running_jobs, info.running_jobs);
  EXPECT_EQ(back.active_rpcs, info.active_rpcs);
  EXPECT_EQ(back.catalog_entries, info.catalog_entries);
  EXPECT_EQ(back.workers_up, info.workers_up);
  EXPECT_EQ(back.workers_total, info.workers_total);
}

}  // namespace
}  // namespace gordian
