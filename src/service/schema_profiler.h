#ifndef GORDIAN_SERVICE_SCHEMA_PROFILER_H_
#define GORDIAN_SERVICE_SCHEMA_PROFILER_H_

#include <string>
#include <utility>
#include <vector>

#include "common/fault_fs.h"
#include "common/status.h"
#include "core/fd.h"
#include "core/foreign_key.h"
#include "core/report.h"
#include "service/profiling_service.h"

namespace gordian {

// Schema-wide profiling: one call that takes a whole schema's tables and
// returns per-table keys, ranked top-k FDs, and cross-table foreign-key
// candidates — the "full entity-relationship diagram" the paper names as
// future work, composed from the pieces the service stack already has.
//
// Execution is staged over the owning ProfilingService's scheduler:
//   1. keys — one SubmitTable job per table (catalog + tree cache reuse);
//   2. FDs  — one DiscoverFds job per table (independent tables, so the
//      jobs run concurrently without sharing mutable state);
//   3. FKs  — one DiscoverForeignKeys job over the whole schema: it
//      builds one schema-wide value index and verifies every key against
//      it, so the report is DiscoverForeignKeys's sorted list at any
//      thread count.
// Every job is forgotten as soon as it is waited on: stage 1 jobs through
// ProfilingService::Forget, stage 2 and 3 jobs in the scheduler.

struct SchemaProfileOptions {
  // Per-table key-discovery knobs (catalog/tree-cache reuse included).
  ProfileJobOptions job;

  ForeignKeyOptions fk;
  FdOptions fd;

  bool discover_foreign_keys = true;
  bool discover_fds = true;

  // Where to persist the schema_report.json artifact. Empty = next to the
  // service's catalog (ServiceOptions::catalog_dir); both empty = the
  // report is not persisted.
  std::string report_dir;

  // File-system seam for the artifact write; null = the real one.
  FileSystem* fs = nullptr;
};

struct SchemaReport {
  struct TableEntry {
    std::string name;
    const Table* table = nullptr;
    uint64_t fingerprint = 0;
    bool catalog_hit = false;     // keys served from the catalog
    bool tree_cache_hit = false;  // discovery ran but reused a cached tree
    KeyDiscoveryResult result;
    std::vector<FdCandidate> fds;  // ranked, FdCandidateLess order
  };
  std::vector<TableEntry> tables;

  // Sorted with SortForeignKeyCandidates; table indices refer to `tables`.
  std::vector<ForeignKeyCandidate> foreign_keys;

  // Wall clock per stage.
  double key_seconds = 0;
  double fd_seconds = 0;
  double fk_seconds = 0;

  // Absolute path of the persisted artifact; empty when not persisted.
  std::string report_path;

  // Views for the report renderers (core/report.h) and the FK API.
  DatabaseProfile AsDatabaseProfile() const;
  std::vector<ProfiledTable> AsProfiledTables() const;
};

class SchemaProfiler {
 public:
  // The service must outlive the profiler; its scheduler, catalog, and tree
  // cache do the heavy lifting.
  explicit SchemaProfiler(ProfilingService* service) : service_(service) {}

  // Profiles every table and fills *report (cleared first). Tables must
  // stay alive and unmodified for the duration of the call. Returns OK when
  // profiling succeeded; a persistence failure still leaves *report fully
  // populated (with an empty report_path) and returns that error.
  Status Profile(
      const std::vector<std::pair<std::string, const Table*>>& tables,
      const SchemaProfileOptions& options, SchemaReport* report);

 private:
  ProfilingService* service_;
};

// JSON rendering of a schema report: stable field order, two-space
// indentation, names JSON-escaped. Byte-stable across thread counts (the
// report itself is deterministically ordered).
std::string SchemaReportToJson(const SchemaReport& report);

}  // namespace gordian

#endif  // GORDIAN_SERVICE_SCHEMA_PROFILER_H_
