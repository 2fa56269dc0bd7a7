#include "service/schema_profiler.h"

#include <cstdio>
#include <utility>

#include "common/stopwatch.h"

namespace gordian {

namespace {

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

std::string FormatDouble(double v) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

void AppendAttrNames(const Schema& schema, const AttributeSet& attrs,
                     std::string* out) {
  bool first = true;
  attrs.ForEach([&](int a) {
    if (!first) *out += ", ";
    first = false;
    *out += "\"" + JsonEscape(schema.name(a)) + "\"";
  });
}

}  // namespace

DatabaseProfile SchemaReport::AsDatabaseProfile() const {
  DatabaseProfile profile;
  for (const TableEntry& t : tables) {
    profile.tables.push_back({t.name, t.table, t.result});
  }
  profile.foreign_keys = foreign_keys;
  return profile;
}

std::vector<ProfiledTable> SchemaReport::AsProfiledTables() const {
  std::vector<ProfiledTable> out;
  out.reserve(tables.size());
  for (const TableEntry& t : tables) {
    out.push_back({t.name, t.table, t.result.KeySets()});
  }
  return out;
}

Status SchemaProfiler::Profile(
    const std::vector<std::pair<std::string, const Table*>>& tables,
    const SchemaProfileOptions& options, SchemaReport* report) {
  *report = SchemaReport();
  report->tables.resize(tables.size());

  // Stage 1: per-table key discovery as service jobs — catalog hits skip
  // discovery, tree-cache hits skip the build stage.
  Stopwatch watch;
  std::vector<JobId> key_jobs;
  key_jobs.reserve(tables.size());
  for (const auto& [name, table] : tables) {
    key_jobs.push_back(service_->SubmitTable(name, table, options.job));
  }
  for (size_t i = 0; i < tables.size(); ++i) {
    ProfileOutcome outcome = service_->Wait(key_jobs[i]);
    SchemaReport::TableEntry& entry = report->tables[i];
    entry.name = tables[i].first;
    entry.table = tables[i].second;
    entry.fingerprint = outcome.fingerprint;
    entry.catalog_hit = outcome.cache_hit;
    entry.tree_cache_hit = outcome.tree_cache_hit;
    entry.result = std::move(outcome.result);
  }
  // No job id leaves this call, so every record is forgotten once waited
  // on; the service would otherwise keep one per job for its lifetime.
  // Key jobs go in reverse submission order, so a repeated table's alias
  // goes before its primary.
  for (auto it = key_jobs.rbegin(); it != key_jobs.rend(); ++it) {
    service_->Forget(*it);
  }
  report->key_seconds = watch.ElapsedSeconds();

  JobScheduler& scheduler = service_->scheduler();

  // Stage 2: ranked FDs, one job per table. Jobs touch only their own
  // table, so its lazy cardinality cache is never shared across threads.
  if (options.discover_fds) {
    watch.Restart();
    std::vector<JobId> fd_jobs;
    fd_jobs.reserve(tables.size());
    for (size_t i = 0; i < tables.size(); ++i) {
      SchemaReport::TableEntry* entry = &report->tables[i];
      const FdOptions fd_options = options.fd;
      fd_jobs.push_back(scheduler.Submit([entry, fd_options](
                                             const JobContext& ctx) {
        if (ctx.Cancelled()) return;
        entry->fds = DiscoverFds(*entry->table, entry->result, fd_options);
      }));
    }
    for (JobId id : fd_jobs) {
      scheduler.Wait(id);
      scheduler.Forget(id);
    }
    report->fd_seconds = watch.ElapsedSeconds();
  }

  // Stage 3: FK discovery as one job. It builds one schema-wide value
  // index and verifies every key against it; the result is already sorted.
  if (options.discover_foreign_keys) {
    watch.Restart();
    const std::vector<ProfiledTable> profiled = report->AsProfiledTables();
    std::vector<ForeignKeyCandidate>* out = &report->foreign_keys;
    const ForeignKeyOptions fk_options = options.fk;
    const JobId fk_job = scheduler.Submit(
        [&profiled, out, fk_options](const JobContext& ctx) {
          if (ctx.Cancelled()) return;
          *out = DiscoverForeignKeys(profiled, fk_options);
        });
    scheduler.Wait(fk_job);
    scheduler.Forget(fk_job);
    report->fk_seconds = watch.ElapsedSeconds();
  }

  // Persist the artifact next to the catalog (durable write: temp + sync +
  // rename + dirsync, the same discipline as the stores).
  std::string dir =
      !options.report_dir.empty() ? options.report_dir : service_->catalog_dir();
  if (dir.empty()) return Status::OK();
  FileSystem* fs = options.fs != nullptr ? options.fs : DefaultFileSystem();
  Status s = fs->CreateDir(dir);
  if (!s.ok()) return s;
  const std::string path = JoinPath(dir, "schema_report.json");
  const std::string tmp = path + ".tmp";
  const std::string json = SchemaReportToJson(*report);
  if (s.ok()) s = fs->WriteFile(tmp, json);
  if (s.ok()) s = fs->SyncFile(tmp);
  if (s.ok()) s = fs->Rename(tmp, path);
  if (s.ok()) s = fs->SyncDir(dir);
  if (s.ok()) report->report_path = path;
  return s;
}

std::string SchemaReportToJson(const SchemaReport& report) {
  std::string out = "{\n  \"tables\": [\n";
  for (size_t i = 0; i < report.tables.size(); ++i) {
    const SchemaReport::TableEntry& t = report.tables[i];
    const Schema& schema = t.table->schema();
    out += "    {\n";
    out += "      \"name\": \"" + JsonEscape(t.name) + "\",\n";
    out += "      \"rows\": " + std::to_string(t.table->num_rows()) + ",\n";
    out += "      \"columns\": " + std::to_string(t.table->num_columns()) +
           ",\n";
    out += "      \"fingerprint\": " + std::to_string(t.fingerprint) + ",\n";
    out += std::string("      \"catalog_hit\": ") +
           (t.catalog_hit ? "true" : "false") + ",\n";
    out += std::string("      \"tree_cache_hit\": ") +
           (t.tree_cache_hit ? "true" : "false") + ",\n";
    out += "      \"keys\": [\n";
    for (size_t k = 0; k < t.result.keys.size(); ++k) {
      const DiscoveredKey& key = t.result.keys[k];
      out += "        {\"columns\": [";
      AppendAttrNames(schema, key.attrs, &out);
      out += "], \"estimated_strength\": " +
             FormatDouble(key.estimated_strength) + "}";
      out += k + 1 < t.result.keys.size() ? ",\n" : "\n";
    }
    out += "      ],\n";
    out += "      \"fds\": [\n";
    for (size_t f = 0; f < t.fds.size(); ++f) {
      const FdCandidate& fd = t.fds[f];
      out += "        {\"lhs\": [";
      AppendAttrNames(schema, fd.lhs, &out);
      out += "], \"rhs\": \"" + JsonEscape(schema.name(fd.rhs)) + "\"";
      out += ", \"redundancy\": " + FormatDouble(fd.redundancy);
      out += ", \"lhs_distinct\": " + std::to_string(fd.lhs_distinct) + "}";
      out += f + 1 < t.fds.size() ? ",\n" : "\n";
    }
    out += "      ]\n";
    out += i + 1 < report.tables.size() ? "    },\n" : "    }\n";
  }
  out += "  ],\n  \"foreign_keys\": [\n";
  for (size_t i = 0; i < report.foreign_keys.size(); ++i) {
    const ForeignKeyCandidate& fk = report.foreign_keys[i];
    const SchemaReport::TableEntry& ft = report.tables[fk.referencing_table];
    const SchemaReport::TableEntry& kt = report.tables[fk.referenced_table];
    out += "    {\"referencing_table\": \"" + JsonEscape(ft.name) + "\"";
    out += ", \"columns\": [";
    for (size_t c = 0; c < fk.foreign_key_columns.size(); ++c) {
      if (c > 0) out += ", ";
      out += "\"" +
             JsonEscape(ft.table->schema().name(fk.foreign_key_columns[c])) +
             "\"";
    }
    out += "], \"referenced_table\": \"" + JsonEscape(kt.name) + "\"";
    out += ", \"referenced_key\": [";
    AppendAttrNames(kt.table->schema(), fk.referenced_key, &out);
    out += "], \"coverage\": " + FormatDouble(fk.coverage);
    out += ", \"referenced_coverage\": " + FormatDouble(fk.referenced_coverage);
    out += ", \"distinct_fk_tuples\": " + std::to_string(fk.distinct_fk_tuples);
    out += "}";
    out += i + 1 < report.foreign_keys.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"key_seconds\": " + FormatDouble(report.key_seconds) + ",\n";
  out += "  \"fd_seconds\": " + FormatDouble(report.fd_seconds) + ",\n";
  out += "  \"fk_seconds\": " + FormatDouble(report.fk_seconds) + "\n";
  out += "}\n";
  return out;
}

}  // namespace gordian
