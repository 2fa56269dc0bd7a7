// profile_service_demo: the profiling service end to end. Generates a small
// fleet of tables, submits them with mixed priorities, polls progress while
// the pool works, then shows the fingerprint catalog paying off: a warm
// re-submission pass served from cache, persistence to a .grdc file, a
// reload, and a catalog-backed index recommendation that skips rediscovery.
//
// Usage:
//   ./build/examples/profile_service_demo [--tables=N] [--rows=N] [--threads=N]
//
// Distributed modes (the same binary is every role of the src/net fleet;
// the multi-process integration test spawns it as its workers and router):
//
//   --serve --shards=a-b [--port=N] [--catalog-root=DIR] [--port-file=PATH]
//       Run a shard-owner worker daemon until SIGTERM/SIGINT.
//   --route --workers=host:port/a-b,host:port/a-b [--port=N]
//           [--port-file=PATH]
//       Run the routing front-end over an already-started worker fleet.
//   --connect=host:port [--tables=N] [--rows=N]
//       Profile the demo tables through a remote worker or router.
//
// --port-file publishes the bound port by atomic rename, so a parent
// process can poll for it without racing a partially written file.

#include <csignal>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "common/flags.h"
#include "datagen/synthetic.h"
#include "engine/advisor.h"
#include "engine/row_store.h"
#include "net/client.h"
#include "net/router.h"
#include "net/worker.h"
#include "common/fault_fs.h"
#include "service/key_catalog.h"
#include "service/metrics.h"
#include "service/profiling_service.h"
#include "table/fingerprint.h"

namespace {

std::vector<gordian::Table> MakeTables(int count, int64_t rows) {
  std::vector<gordian::Table> tables;
  for (int i = 0; i < count; ++i) {
    gordian::SyntheticSpec spec =
        gordian::UniformSpec(8, rows, 24, 0.5, 400 + i);
    spec.columns[0].cardinality = 512;
    spec.columns[3].cardinality = 64;
    spec.planted_keys.push_back({0, 3});
    gordian::Table t;
    gordian::Status s = gordian::GenerateSynthetic(spec, &t);
    if (!s.ok()) {
      std::fprintf(stderr, "datagen failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    tables.push_back(std::move(t));
  }
  return tables;
}

const char* StateName(gordian::JobState s) {
  switch (s) {
    case gordian::JobState::kQueued: return "queued";
    case gordian::JobState::kRunning: return "running";
    case gordian::JobState::kSucceeded: return "succeeded";
    case gordian::JobState::kCancelled: return "cancelled";
    case gordian::JobState::kFailed: return "failed";
  }
  return "?";
}

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int) { g_stop = 1; }

void InstallStopHandlers() {
  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);
}

void SleepBriefly() {
  struct timespec ts = {0, 50 * 1000 * 1000};  // 50 ms
  nanosleep(&ts, nullptr);
}

// Publishes the bound port for a parent process: temp write + atomic
// rename, so a reader never sees a half-written number.
bool PublishPort(const std::string& path, int port) {
  gordian::FileSystem* fs = gordian::DefaultFileSystem();
  const std::string tmp = path + ".tmp";
  gordian::Status s = fs->WriteFile(tmp, std::to_string(port) + "\n");
  if (s.ok()) s = fs->Rename(tmp, path);
  if (!s.ok()) {
    std::fprintf(stderr, "port file failed: %s\n", s.ToString().c_str());
    return false;
  }
  return true;
}

bool ParseHostPort(const std::string& text, std::string* host, int* port) {
  size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= text.size()) {
    return false;
  }
  *host = text.substr(0, colon);
  *port = std::atoi(text.c_str() + colon + 1);
  return *port > 0;
}

int RunServe(const gordian::Flags& flags) {
  gordian::WorkerOptions options;
  options.port = static_cast<int>(flags.GetInt("port", 0));
  options.catalog_root = flags.GetString("catalog-root");
  options.num_threads = static_cast<int>(flags.GetInt("threads", 0));
  gordian::Status s = gordian::ParseShardRange(
      flags.GetString("shards", "0-15"), &options.shard_first,
      &options.shard_last);
  if (!s.ok()) {
    std::fprintf(stderr, "bad --shards: %s\n", s.ToString().c_str());
    return 1;
  }
  gordian::WorkerDaemon worker(options);
  s = worker.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "worker start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("%s serving shards %d-%d on port %d\n",
              worker.name().c_str(), worker.shard_first(),
              worker.shard_last(), worker.port());
  std::fflush(stdout);
  const std::string port_file = flags.GetString("port-file");
  if (!port_file.empty() && !PublishPort(port_file, worker.port())) return 1;
  InstallStopHandlers();
  while (!g_stop) SleepBriefly();
  worker.Stop();
  std::printf("%s drained and stopped\n", worker.name().c_str());
  return 0;
}

int RunRoute(const gordian::Flags& flags) {
  gordian::RouterOptions options;
  options.port = static_cast<int>(flags.GetInt("port", 0));
  options.quota_tokens_per_second = flags.GetDouble("quota-rps", 0);
  options.quota_burst = flags.GetDouble("quota-burst", 16);

  // --workers=host:port/a-b,host:port/a-b — one spec per shard owner.
  std::string spec_text = flags.GetString("workers");
  while (!spec_text.empty()) {
    const size_t comma = spec_text.find(',');
    std::string one = spec_text.substr(0, comma);
    spec_text = comma == std::string::npos ? ""
                                           : spec_text.substr(comma + 1);
    const size_t slash = one.find('/');
    gordian::WorkerSpec spec;
    if (slash == std::string::npos ||
        !ParseHostPort(one.substr(0, slash), &spec.host, &spec.port) ||
        !gordian::ParseShardRange(one.substr(slash + 1), &spec.shard_first,
                                  &spec.shard_last)
             .ok()) {
      std::fprintf(stderr, "bad worker spec: %s\n", one.c_str());
      return 1;
    }
    options.workers.push_back(spec);
  }

  gordian::Router router(options);
  gordian::Status s = router.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "router start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("router on port %d over %zu worker(s)\n", router.port(),
              options.workers.size());
  std::fflush(stdout);
  const std::string port_file = flags.GetString("port-file");
  if (!port_file.empty() && !PublishPort(port_file, router.port())) return 1;
  InstallStopHandlers();
  while (!g_stop) SleepBriefly();
  router.Stop();
  std::printf("router stopped\n");
  return 0;
}

int RunConnect(const gordian::Flags& flags) {
  std::string host;
  int port = 0;
  if (!ParseHostPort(flags.GetString("connect"), &host, &port)) {
    std::fprintf(stderr, "bad --connect, expected host:port\n");
    return 1;
  }
  const int num_tables = static_cast<int>(flags.GetInt("tables", 8));
  const int64_t rows = flags.GetInt("rows", 5000);
  std::vector<gordian::Table> tables = MakeTables(num_tables, rows);

  gordian::ServiceMetrics metrics;
  gordian::ProfileClient client(host, port, &metrics);
  gordian::HealthInfo health;
  gordian::Status s = client.Health(&health);
  if (!s.ok()) {
    std::fprintf(stderr, "health probe failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("connected to %s:%d (%s)\n", host.c_str(), port,
              health.role == gordian::HealthInfo::Role::kRouter
                  ? "router"
                  : "worker");

  // Cold pass, then an identical warm pass to show remote catalog hits.
  for (int pass = 0; pass < 2; ++pass) {
    std::printf("%s pass:\n", pass == 0 ? "cold" : "warm");
    int sheds = 0, retries = 0;
    for (int i = 0; i < num_tables; ++i) {
      gordian::RemoteOutcome outcome;
      s = client.Profile("table" + std::to_string(i), tables[i],
                         gordian::RemoteProfileOptions{}, &outcome);
      if (!s.ok()) {
        std::fprintf(stderr, "profile failed: %s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("  table%-3d %zu key(s)  served by %s%s%s\n", i,
                  outcome.result.keys.size(), outcome.served_by.c_str(),
                  outcome.cache_hit ? "  [catalog hit]" : "",
                  outcome.follower_hit ? " [follower]" : "");
      sheds += outcome.sheds;
      retries += outcome.transport_retries;
    }
    if (sheds > 0 || retries > 0) {
      std::printf("  (absorbed %d shed(s), %d transport retr%s)\n", sheds,
                  retries, retries == 1 ? "y" : "ies");
    }
  }
  gordian::ServiceMetrics::Snapshot m = metrics.Read();
  std::printf("rpcs out: %lld in: %lld (%lld bytes sent, %lld received)\n",
              static_cast<long long>(m[gordian::Counter::kRpcsOut]),
              static_cast<long long>(m[gordian::Counter::kRpcsIn]),
              static_cast<long long>(m[gordian::Counter::kRpcBytesOut]),
              static_cast<long long>(m[gordian::Counter::kRpcBytesIn]));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  gordian::Flags flags(argc, argv);
  if (flags.Has("serve")) return RunServe(flags);
  if (flags.Has("route")) return RunRoute(flags);
  if (flags.Has("connect")) return RunConnect(flags);
  const int num_tables = static_cast<int>(flags.GetInt("tables", 8));
  const int64_t rows = flags.GetInt("rows", 5000);
  const int threads = flags.ThreadCount();

  std::vector<gordian::Table> tables = MakeTables(num_tables, rows);
  gordian::KeyCatalog catalog;
  gordian::ServiceOptions service_options;
  service_options.num_threads = threads;
  service_options.catalog = &catalog;
  gordian::ProfilingService service(service_options);
  std::printf("profiling %d tables (%lld rows each) on %d worker thread(s)\n\n",
              num_tables, static_cast<long long>(rows),
              service.num_threads());

  // Submit everything at once; later tables get higher priority to show the
  // scheduler picking them up first once a worker frees.
  std::vector<gordian::JobId> ids;
  for (int i = 0; i < num_tables; ++i) {
    gordian::ProfileJobOptions job;
    job.priority = i;  // table N-1 is the most urgent
    ids.push_back(service.SubmitTable("table" + std::to_string(i),
                                      &tables[i], job));
  }
  std::printf("queue after submission: depth=%lld running=%lld\n",
              static_cast<long long>(service.Metrics().queue_depth),
              static_cast<long long>(service.Metrics().running_jobs));

  // Cold pass: wait for each job and report.
  for (int i = 0; i < num_tables; ++i) {
    gordian::ProfileOutcome out = service.Wait(ids[i]);
    std::printf("  %-8s [%s, prio %d] %zu key(s) in %.3f s, fp=%016llx\n",
                out.table_name.c_str(), StateName(out.info.state),
                out.info.priority, out.result.keys.size(),
                out.info.latency_seconds,
                static_cast<unsigned long long>(out.fingerprint));
  }

  // Warm pass: identical tables, so every job is a catalog hit.
  std::printf("\nre-submitting all %d tables (unchanged)...\n", num_tables);
  std::vector<gordian::JobId> warm;
  for (int i = 0; i < num_tables; ++i) {
    warm.push_back(
        service.SubmitTable("table" + std::to_string(i), &tables[i]));
  }
  int hits = 0;
  for (gordian::JobId id : warm) {
    if (service.Wait(id).cache_hit) ++hits;
  }
  std::printf("cache hits: %d/%d\n\n", hits, num_tables);
  std::printf("%s\n", FormatServiceMetrics(service.Metrics()).c_str());

  // Persist the catalog, reload it, and drive the index advisor from it —
  // no rediscovery for a table whose fingerprint is already known.
  const std::string path = "profile_service_demo.grdc";
  gordian::Status s = gordian::WriteCatalogFile(catalog, path);
  if (!s.ok()) {
    std::fprintf(stderr, "catalog write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  gordian::KeyCatalog reloaded;
  s = gordian::ReadCatalogFile(path, &reloaded);
  if (!s.ok()) {
    std::fprintf(stderr, "catalog read failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("catalog persisted to %s and reloaded: %lld entries\n",
              path.c_str(), static_cast<long long>(reloaded.size()));

  gordian::RowStore store(tables[0]);
  gordian::Planner planner =
      gordian::BuildRecommendedIndexes(tables[0], store, &reloaded);
  std::printf("advisor (catalog-backed): %zu index(es) recommended for "
              "table0 without re-running discovery\n",
              planner.indexes().size());
  return 0;
}
