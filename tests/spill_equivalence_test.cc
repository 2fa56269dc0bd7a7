// Spilled-vs-resident equivalence: a table whose columns live in GRDL
// files must be observationally identical to the same table fully in
// memory — same fingerprint, same distinct counts, same samples and
// projections, and byte-identical profiling reports. Also covers the
// TableArtifactStore round trip and the service wiring.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fault_fs.h"
#include "core/gordian.h"
#include "core/report.h"
#include "core/streaming.h"
#include "oracle/non_key_finder.h"
#include "service/profiling_service.h"
#include "service/table_artifacts.h"
#include "table/csv.h"
#include "table/fingerprint.h"
#include "table/table.h"

namespace gordian {
namespace {

std::string TestDir(const std::string& name) {
  // Per-process suffix: the artifact store is content-addressed, so leftovers
  // from a previous run would turn Puts into no-ops and skew assertions.
  std::string dir = ::testing::TempDir() + "gordian_spill_" + name + "_" +
                    std::to_string(::getpid());
  EXPECT_TRUE(DefaultFileSystem()->CreateDir(dir).ok());
  return dir;
}

uint64_t Next(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state >> 33;
}

// A CSV with mixed types, repeated values, and empty (NULL) fields —
// enough structure for keys to exist and for dictionaries to matter.
std::string MakeCsv(const std::string& dir, int64_t rows, uint64_t seed) {
  std::string body = "id,cat,val,note\n";
  uint64_t state = seed * 977 + 13;
  for (int64_t i = 0; i < rows; ++i) {
    body += std::to_string(i);
    body += ",c" + std::to_string(Next(&state) % 23);
    body += "," + std::to_string(static_cast<double>(Next(&state) % 7) / 2);
    if (Next(&state) % 9 == 0) {
      body += ",";  // NULL
    } else {
      body += ",note" + std::to_string(Next(&state) % 101);
    }
    body += "\n";
  }
  std::string path = dir + "/t" + std::to_string(seed) + ".csv";
  EXPECT_TRUE(DefaultFileSystem()->WriteFile(path, body).ok());
  return path;
}

// Profiling report with run-dependent stats zeroed, so equality is
// byte-identical over everything discovery can observe.
std::string CanonicalJson(const Table& t, KeyDiscoveryResult r) {
  DatabaseProfile p;
  r.stats = GordianStats{};
  p.tables.push_back({"t", &t, std::move(r)});
  return ProfileToJson(p);
}

std::string CanonicalReport(const Table& t) {
  return CanonicalJson(t, FindKeys(t));
}

SpillPolicy Policy(const std::string& dir, int64_t budget) {
  SpillPolicy spill;
  spill.memory_budget_bytes = budget;
  spill.spill_dir = dir;
  spill.chunk_rows = 512;  // small chunks: boundaries get exercised
  return spill;
}

// The core oracle, fuzzed over seeds x budgets: every observable behavior
// of a spilled table matches the resident one.
TEST(SpillEquivalence, CsvIngestMatchesResidentAcrossBudgets) {
  const std::string dir = TestDir("fuzz");
  for (uint64_t seed : {1u, 2u, 3u}) {
    const std::string csv = MakeCsv(dir, 3000, seed);
    Table resident;
    ASSERT_TRUE(ReadCsv(csv, CsvOptions{}, &resident).ok());
    const std::string want_report = CanonicalReport(resident);
    const uint64_t want_fp = TableFingerprint(resident);

    // 1 KB budget spills every column; 64 KB a subset; 1 GB none.
    for (int64_t budget : {int64_t{1} << 10, int64_t{64} << 10,
                           int64_t{1} << 30}) {
      Table spilled;
      ASSERT_TRUE(
          ReadCsv(csv, CsvOptions{}, Policy(dir, budget), &spilled).ok());
      if (budget == (int64_t{1} << 10)) {
        EXPECT_EQ(spilled.spilled_column_count(), spilled.num_columns());
      } else if (budget == (int64_t{1} << 30)) {
        EXPECT_EQ(spilled.spilled_column_count(), 0);
      }

      EXPECT_EQ(TableFingerprint(spilled), want_fp) << "budget " << budget;
      EXPECT_EQ(CanonicalReport(spilled), want_report) << "budget " << budget;
      // The pointer-tree oracle, building its tree from the spilled
      // columns, reports the same.
      EXPECT_EQ(CanonicalJson(spilled, OracleFindKeys(spilled)), want_report)
          << "budget " << budget;

      // The full distinct-count family over assorted projections.
      for (AttributeSet attrs :
           {AttributeSet{0}, AttributeSet{1}, AttributeSet{1, 2},
            AttributeSet{0, 3}, AttributeSet{1, 2, 3},
            AttributeSet{0, 1, 2, 3}}) {
        EXPECT_EQ(spilled.DistinctCount(attrs), resident.DistinctCount(attrs));
        EXPECT_EQ(spilled.DistinctCountFast(attrs),
                  resident.DistinctCountFast(attrs));
        EXPECT_EQ(spilled.IsUnique(attrs), resident.IsUnique(attrs));
      }

      // Views over a spilled table: same rows, same codes, no copy of the
      // underlying storage.
      Table sample_r = resident.SampleRows(500, 9);
      Table sample_s = spilled.SampleRows(500, 9);
      EXPECT_EQ(TableFingerprint(sample_s), TableFingerprint(sample_r));
      Table sel_r = resident.SelectColumns({3, 1});
      Table sel_s = spilled.SelectColumns({3, 1});
      EXPECT_EQ(TableFingerprint(sel_s), TableFingerprint(sel_r));
      EXPECT_EQ(sel_s.spilled_column_count(), spilled.spilled_column_count() > 0
                                                  ? sel_s.num_columns()
                                                  : 0);
    }
  }
}

TEST(SpillEquivalence, RowAtATimeIngestSpillsIdentically) {
  const std::string dir = TestDir("addrow");
  Schema schema(std::vector<std::string>{"a", "b"});
  TableBuilder resident(schema);
  TableBuilder spilling(schema, Policy(dir, 1 << 10));
  // Past the 4096-row cadence at which the row-at-a-time path rechecks the
  // budget, so the tiny budget actually triggers a spill.
  uint64_t state = 99;
  for (int64_t i = 0; i < 10000; ++i) {
    std::vector<Value> row = {Value(static_cast<int64_t>(i)),
                              Value("v" + std::to_string(Next(&state) % 31))};
    resident.AddRow(row);
    spilling.AddRow(row);
  }
  Table a = resident.Build();
  Table b;
  ASSERT_TRUE(spilling.Build(&b).ok());
  EXPECT_GT(b.spilled_column_count(), 0);
  EXPECT_EQ(TableFingerprint(a), TableFingerprint(b));
  EXPECT_EQ(CanonicalReport(a), CanonicalReport(b));
}

TEST(SpillEquivalence, SpilledTableMemoryAccounting) {
  const std::string dir = TestDir("accounting");
  const std::string csv = MakeCsv(dir, 3000, 5);
  Table resident, spilled;
  ASSERT_TRUE(ReadCsv(csv, CsvOptions{}, &resident).ok());
  ASSERT_TRUE(ReadCsv(csv, CsvOptions{}, Policy(dir, 1 << 10), &spilled).ok());
  ASSERT_EQ(spilled.spilled_column_count(), spilled.num_columns());

  // Resident accounting excludes the mmapped code files; mapped accounting
  // covers them (4 bytes per row per column, plus chunk stats + trailer).
  EXPECT_EQ(resident.MappedBytes(), 0);
  EXPECT_GT(spilled.MappedBytes(),
            spilled.num_rows() * spilled.num_columns() * 4);
  EXPECT_LT(spilled.ApproxBytes(), resident.ApproxBytes());

  // A projection shares the mapping: mapped bytes must not double-count.
  Table twice = spilled.SelectColumns({0, 0});
  Table once = spilled.SelectColumns({0});
  EXPECT_EQ(twice.MappedBytes(), once.MappedBytes());
}

TEST(SpillEquivalence, ProfileCsvFileSpillOverloadMatchesResident) {
  const std::string dir = TestDir("streamprof");
  const std::string csv = MakeCsv(dir, 3000, 6);
  KeyDiscoveryResult plain, spilled;
  ASSERT_TRUE(ProfileCsvFile(csv, CsvOptions{}, GordianOptions{}, &plain)
                  .ok());
  ASSERT_TRUE(ProfileCsvFile(csv, CsvOptions{}, GordianOptions{},
                             Policy(dir, 1 << 10), &spilled)
                  .ok());
  auto sorted = [](std::vector<AttributeSet> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(plain.KeySets()), sorted(spilled.KeySets()));
  EXPECT_EQ(plain.non_keys.size(), spilled.non_keys.size());
}

TEST(SpillEquivalence, ArtifactStoreRoundTrip) {
  const std::string dir = TestDir("artifacts");
  const std::string csv = MakeCsv(dir, 2000, 7);
  Table t;
  ASSERT_TRUE(ReadCsv(csv, CsvOptions{}, &t).ok());
  const uint64_t fp = TableFingerprint(t);

  TableArtifactStore::Options opts;
  opts.chunk_rows = 256;
  TableArtifactStore store(dir + "/store", opts);
  EXPECT_FALSE(store.Contains(fp));
  ASSERT_TRUE(store.Put(fp, t).ok());
  EXPECT_TRUE(store.Contains(fp));
  // Content-addressed: a second Put of the same fingerprint is a no-op.
  ASSERT_TRUE(store.Put(fp, t).ok());

  Table back;
  ASSERT_TRUE(store.Get(fp, &back).ok());
  EXPECT_EQ(back.spilled_column_count(), back.num_columns());
  EXPECT_EQ(back.num_rows(), t.num_rows());
  EXPECT_EQ(TableFingerprint(back), fp);
  EXPECT_EQ(CanonicalReport(back), CanonicalReport(t));

  Table missing;
  Status s = store.Get(fp + 1, &missing);
  EXPECT_EQ(s.code(), Status::Code::kNotFound);

  // A flipped byte anywhere in the meta file is caught by its checksum.
  std::string meta;
  ASSERT_TRUE(DefaultFileSystem()->ReadFile(store.MetaPath(fp), &meta).ok());
  std::string bad = meta;
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x01);
  ASSERT_TRUE(DefaultFileSystem()->WriteFile(store.MetaPath(fp), bad).ok());
  EXPECT_EQ(store.Get(fp, &back).code(), Status::Code::kInvalidArgument);
  ASSERT_TRUE(DefaultFileSystem()->WriteFile(store.MetaPath(fp), meta).ok());
  ASSERT_TRUE(store.Get(fp, &back).ok());
}

TEST(SpillEquivalence, ArtifactPutCrashLeavesNoCommittedArtifact) {
  const std::string dir = TestDir("artifact_crash");
  const std::string csv = MakeCsv(dir, 500, 8);
  Table t;
  ASSERT_TRUE(ReadCsv(csv, CsvOptions{}, &t).ok());
  const uint64_t fp = TableFingerprint(t);

  // Fail the meta rename — every column file is already published, but the
  // artifact must still read as absent, and a retry must complete it.
  FaultInjectionFs ffs(DefaultFileSystem());
  TableArtifactStore::Options opts;
  opts.fs = &ffs;
  TableArtifactStore store(dir + "/store", opts);
  FaultSpec spec;
  spec.op = FsOp::kRename;
  spec.path_substr = "meta.grdd";
  ffs.Arm(spec);
  EXPECT_FALSE(store.Put(fp, t).ok());
  EXPECT_TRUE(ffs.fired());
  ffs.Reset();
  EXPECT_FALSE(store.Contains(fp));

  ASSERT_TRUE(store.Put(fp, t).ok());
  Table back;
  ASSERT_TRUE(store.Get(fp, &back).ok());
  EXPECT_EQ(TableFingerprint(back), fp);
}

TEST(SpillEquivalence, ServicePersistsArtifactsAndSpillsCsvJobs) {
  const std::string dir = TestDir("service");
  const std::string csv = MakeCsv(dir, 2500, 10);
  Table t;
  ASSERT_TRUE(ReadCsv(csv, CsvOptions{}, &t).ok());
  const std::string want_report = CanonicalReport(t);

  ServiceOptions options;
  options.num_threads = 2;
  options.table_artifact_dir = dir + "/artifacts";
  options.spill_dir = dir + "/scratch";
  options.spill_memory_budget = 1 << 10;
  ProfilingService service(options);
  ASSERT_NE(service.artifact_store(), nullptr);

  ProfileOutcome table_outcome = service.Wait(service.SubmitTable("t", &t));
  ASSERT_EQ(table_outcome.info.state, JobState::kSucceeded);
  ASSERT_NE(table_outcome.fingerprint, 0u);

  // The completed table job persisted its table; a reload round-trips.
  Table back;
  ASSERT_TRUE(
      service.artifact_store()->Get(table_outcome.fingerprint, &back).ok());
  EXPECT_EQ(TableFingerprint(back), table_outcome.fingerprint);
  EXPECT_EQ(CanonicalReport(back), want_report);
  EXPECT_GE(service.Metrics()[Counter::kArtifactPuts], 1);

  // A CSV job under the 1 KB ingest budget spills during ingest and still
  // reports the same keys as the resident table.
  ProfileOutcome csv_outcome =
      service.Wait(service.SubmitCsv("t_csv", csv, CsvOptions{}));
  ASSERT_EQ(csv_outcome.info.state, JobState::kSucceeded);
  auto sorted = [](std::vector<AttributeSet> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(csv_outcome.result.KeySets()),
            sorted(FindKeys(t).KeySets()));
}

}  // namespace
}  // namespace gordian
