// schema_discovery: the full metadata-discovery pipeline on a directory of
// exported files — the "automating the data-integration process" scenario
// from the paper's introduction. Loads every input (CSV or XML collection),
// hands the whole schema to the service-layer SchemaProfiler (per-table key
// discovery as scheduler jobs, ranked top-k FDs, dictionary-first foreign
// keys fanned across the pool), and writes a JSON profile plus a Graphviz
// ER diagram.
//
// Usage:
//   ./build/examples/schema_discovery [files...] [--sample=N] [--threads=N]
//       [--json=profile.json] [--dot=schema.dot] [--min-coverage=1.0]
//       [--report-dir=DIR]
//
// With no inputs a demo TPC-H-like database is generated and profiled.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/report.h"
#include "datagen/tpch_lite.h"
#include "service/schema_profiler.h"
#include "table/csv.h"
#include "table/xml_lite.h"

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string BaseName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = name.find_last_of('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gordian;
  Flags flags(argc, argv);

  // Load the inputs (or generate the demo database).
  std::vector<std::unique_ptr<Table>> owned;
  std::vector<std::pair<std::string, const Table*>> tables;
  if (flags.positional().empty()) {
    std::printf("no inputs given; generating a demo TPC-H-like database\n");
    for (NamedTable& nt : GenerateTpchLite(0.005, /*seed=*/11)) {
      owned.push_back(std::make_unique<Table>(std::move(nt.table)));
      tables.emplace_back(nt.name, owned.back().get());
    }
  } else {
    for (const std::string& path : flags.positional()) {
      auto table = std::make_unique<Table>();
      Status s = EndsWith(path, ".xml")
                     ? ReadXmlCollection(path, table.get())
                     : ReadCsv(path, CsvOptions{}, table.get());
      if (!s.ok()) {
        std::fprintf(stderr, "error loading %s: %s\n", path.c_str(),
                     s.ToString().c_str());
        return 1;
      }
      owned.push_back(std::move(table));
      tables.emplace_back(BaseName(path), owned.back().get());
    }
  }

  // One SchemaProfiler pass: keys, FDs, and foreign keys across the pool.
  ServiceOptions service_options;
  service_options.num_threads = flags.ThreadCount();
  ProfilingService service(service_options);
  SchemaProfiler profiler(&service);

  SchemaProfileOptions options;
  options.job.gordian.sample_rows = flags.GetInt("sample", 0);
  options.fk.min_coverage = flags.GetDouble("min-coverage", 1.0);
  options.fk.min_distinct_values = flags.GetInt("min-distinct", 20);
  options.fk.min_referenced_coverage =
      flags.GetDouble("min-ref-coverage", 0.3);
  options.report_dir = flags.GetString("report-dir", "");

  SchemaReport report;
  Status status = profiler.Profile(tables, options, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "warning: report not persisted: %s\n",
                 status.ToString().c_str());
  }

  // Console summary.
  for (const SchemaReport::TableEntry& e : report.tables) {
    std::printf("%-12s %8lld rows  %2d attrs  ", e.name.c_str(),
                static_cast<long long>(e.table->num_rows()),
                e.table->num_columns());
    if (e.result.no_keys) {
      std::printf("NO KEYS (duplicate rows)\n");
      continue;
    }
    std::printf("%zu key(s); smallest: %s\n", e.result.keys.size(),
                e.result.keys.empty()
                    ? "-"
                    : e.table->schema()
                          .Describe(e.result.keys.front().attrs)
                          .c_str());
    for (size_t f = 0; f < e.fds.size() && f < 3; ++f) {
      const FdCandidate& fd = e.fds[f];
      std::printf("    fd: %s -> %s  (redundancy %.3f)\n",
                  e.table->schema().Describe(fd.lhs).c_str(),
                  e.table->schema().name(fd.rhs).c_str(), fd.redundancy);
    }
  }
  std::printf("\n%zu foreign-key candidate(s)\n", report.foreign_keys.size());
  for (const ForeignKeyCandidate& fk : report.foreign_keys) {
    const auto& from = report.tables[fk.referencing_table];
    const auto& to = report.tables[fk.referenced_table];
    std::string cols;
    for (size_t i = 0; i < fk.foreign_key_columns.size(); ++i) {
      if (i > 0) cols += ", ";
      cols += from.table->schema().name(fk.foreign_key_columns[i]);
    }
    std::printf("  %s(%s) -> %s%s  coverage=%.3f refs %.0f%% of keys\n",
                from.name.c_str(), cols.c_str(), to.name.c_str(),
                to.table->schema().Describe(fk.referenced_key).c_str(),
                fk.coverage, fk.referenced_coverage * 100);
  }
  std::printf("\nstage timings: keys %.3fs  fds %.3fs  fks %.3fs\n",
              report.key_seconds, report.fd_seconds, report.fk_seconds);
  if (!report.report_path.empty()) {
    std::printf("schema report: %s\n", report.report_path.c_str());
  }

  // Artifacts (the renderers consume the classic DatabaseProfile view).
  DatabaseProfile profile = report.AsDatabaseProfile();
  std::string json_path = flags.GetString("json", "profile.json");
  std::string dot_path = flags.GetString("dot", "schema.dot");
  {
    std::ofstream os(json_path);
    os << ProfileToJson(profile);
  }
  {
    std::ofstream os(dot_path);
    os << ProfileToDot(profile);
  }
  std::printf("\nwrote %s and %s (render with: dot -Tsvg %s -o schema.svg)\n",
              json_path.c_str(), dot_path.c_str(), dot_path.c_str());
  return 0;
}
