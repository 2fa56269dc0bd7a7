// bench_service_throughput: jobs/sec of the profiling service against plain
// sequential FindKeys, at 1 worker and at one worker per hardware thread,
// plus the warm-cache speedup when every table is already in the catalog,
// plus a repeated-table workload (catalog off, every job runs discovery)
// that isolates the TreeArtifactCache's tree-build amortization. Per-stage
// wall clock and tree-cache hit rate land in BENCH_pipeline.json
// (overridable via GORDIAN_BENCH_PIPELINE_JSON) for CI trend tracking.
//
// A networked section then pushes the same discovery work through the
// distributed front-end — router plus shard-owner workers, all in this
// process over loopback — at one and two workers, against the in-process
// service as the no-wire baseline. Throughput and the backpressure shed
// rate land in BENCH_service.json (overridable via
// GORDIAN_BENCH_SERVICE_JSON).
//
// Usage: bench_service_throughput [--tables=N] [--rows=N] [--repeats=N]
//                                 [--threads=N] [--net_clients=N]
//                                 [--net_tables=N] [--net_rows=N]
//                                 [--net_queue=N] [--net_connections=N]
//                                 [--net_worker_rpcs=N]

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "core/gordian.h"
#include "datagen/synthetic.h"
#include "net/client.h"
#include "net/router.h"
#include "net/worker.h"
#include "service/catalog_store.h"
#include "service/metrics.h"
#include "service/profiling_service.h"

namespace {

using gordian::bench::FormatRatio;
using gordian::bench::FormatSeconds;
using gordian::bench::SeriesPrinter;

std::vector<gordian::Table> MakeTables(int count, int64_t rows,
                                       uint64_t seed_base = 9000) {
  std::vector<gordian::Table> tables;
  for (int i = 0; i < count; ++i) {
    gordian::SyntheticSpec spec =
        gordian::UniformSpec(8, rows, 24, 0.5, seed_base + i);
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

double RunService(const std::vector<gordian::Table>& tables, int threads,
                  gordian::KeyCatalog* catalog) {
  gordian::ServiceOptions options;
  options.num_threads = threads;
  options.catalog = catalog;
  gordian::ProfilingService service(options);
  gordian::Stopwatch watch;
  std::vector<gordian::JobId> ids;
  for (size_t i = 0; i < tables.size(); ++i) {
    ids.push_back(
        service.SubmitTable("t" + std::to_string(i), &tables[i]));
  }
  for (gordian::JobId id : ids) (void)service.Wait(id);
  return watch.ElapsedSeconds();
}

// Tables for the amortization workload: heavy Zipf skew is the paper's
// Theorem 1 compression regime — tree build still walks every row's path,
// but the shared prefixes keep the tree (and hence the traversal) small, so
// build dominates per-job cost and reusing the built tree pays most.
std::vector<gordian::Table> MakeBuildBoundTables(int count, int64_t rows) {
  std::vector<gordian::Table> tables;
  for (int i = 0; i < count; ++i) {
    gordian::SyntheticSpec spec =
        gordian::UniformSpec(8, rows, 32, 1.5, 7000 + i);
    spec.columns[0].cardinality = 512;
    spec.columns[1].cardinality = 512;
    spec.planted_keys.push_back({0, 1});
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

// The repeated-table workload: every table is profiled `repeats` times with
// the catalog bypassed, so each job runs real discovery and only the prefix
// tree is shareable. Submissions go in waves (one job per table per wave,
// WaitAll between) so the service's identical-job coalescing cannot serve a
// repeat without running it.
struct RepeatedRun {
  double seconds = 0;
  gordian::ServiceMetrics::Snapshot metrics;
};

RepeatedRun RunRepeatedTables(const std::vector<gordian::Table>& tables,
                              int threads, int repeats,
                              int64_t tree_cache_bytes) {
  gordian::ServiceOptions options;
  options.num_threads = threads;
  options.tree_cache_bytes = tree_cache_bytes;
  gordian::ProfilingService service(options);
  gordian::ProfileJobOptions job;
  job.use_catalog = false;
  gordian::Stopwatch watch;
  for (int r = 0; r < repeats; ++r) {
    for (size_t i = 0; i < tables.size(); ++i) {
      (void)service.SubmitTable("t" + std::to_string(i), &tables[i], job);
    }
    service.WaitAll();
  }
  RepeatedRun run;
  run.seconds = watch.ElapsedSeconds();
  run.metrics = service.Metrics();
  return run;
}

void WritePipelineJson(int num_tables, int64_t rows, int repeats, int threads,
                       const RepeatedRun& cold, const RepeatedRun& warm) {
  const char* env_path = std::getenv("GORDIAN_BENCH_PIPELINE_JSON");
  const std::string path = (env_path != nullptr && *env_path != '\0')
                               ? env_path
                               : "BENCH_pipeline.json";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  const int jobs = num_tables * repeats;
  auto stages = [&](const gordian::ServiceMetrics::Snapshot& m) {
    std::string out = "[\n";
    for (int i = 0; i < gordian::kNumStages; ++i) {
      const gordian::Counter micros = gordian::StageMicros(i);
      const int64_t runs = m[gordian::StageRuns(i)];
      if (runs == 0) continue;
      if (out.size() > 2) out += ",\n";
      out += "        {\"stage\": \"" +
             std::string(gordian::CounterLabel(micros)) +
             "\", \"wall_seconds\": " + std::to_string(m.seconds(micros)) +
             ", \"runs\": " + std::to_string(runs) + "}";
    }
    out += "\n      ]";
    return out;
  };
  os << "{\n"
     << "  \"benchmark\": \"pipeline_tree_cache\",\n"
     << "  \"tables\": " << num_tables << ",\n"
     << "  \"rows\": " << rows << ",\n"
     << "  \"repeats\": " << repeats << ",\n"
     << "  \"threads\": " << threads << ",\n"
     << "  \"jobs\": " << jobs << ",\n"
     << "  \"configurations\": [\n"
     << "    {\"name\": \"cold_no_tree_cache\",\n"
     << "     \"wall_seconds\": " << cold.seconds << ",\n"
     << "     \"jobs_per_second\": "
     << (cold.seconds > 0 ? jobs / cold.seconds : 0) << ",\n"
     << "     \"tree_cache_hit_rate\": " << cold.metrics.tree_cache_hit_rate()
     << ",\n"
     << "     \"stages\": " << stages(cold.metrics) << "},\n"
     << "    {\"name\": \"warm_tree_cache\",\n"
     << "     \"wall_seconds\": " << warm.seconds << ",\n"
     << "     \"jobs_per_second\": "
     << (warm.seconds > 0 ? jobs / warm.seconds : 0) << ",\n"
     << "     \"tree_cache_hit_rate\": " << warm.metrics.tree_cache_hit_rate()
     << ",\n"
     << "     \"stages\": " << stages(warm.metrics) << "}\n"
     << "  ],\n"
     << "  \"warm_speedup\": "
     << (warm.seconds > 0 ? cold.seconds / warm.seconds : 0) << "\n"
     << "}\n";
  std::cout << "wrote " << path << "\n";
}

// --- networked front-end: the same discovery work through the wire -------
//
// Each client thread owns a disjoint slice of tables (distinct seeds), so
// no two jobs are identical and neither job coalescing nor a catalog hit
// can serve one job from another: every job pays serialization, framing,
// routing, and a real discovery run. Admission caps default to the offered
// burst (see NetAdmission), so the shed rate reads as a health signal:
// near zero unless the workers genuinely cannot keep up, with sheds and
// the retries they drove both surfaced in BENCH_service.json.
struct NetRun {
  double seconds = 0;
  int64_t jobs = 0;
  int64_t sheds = 0;
  int64_t shed_retries = 0;
  int64_t transport_retries = 0;
  double shed_rate() const {
    return jobs + sheds > 0
               ? static_cast<double>(sheds) /
                     static_cast<double>(jobs + sheds)
               : 0;
  }
};

std::vector<std::vector<gordian::Table>> MakeClientSlices(int clients,
                                                          int per_client,
                                                          int64_t rows) {
  std::vector<std::vector<gordian::Table>> slices;
  for (int s = 0; s < clients; ++s) {
    slices.push_back(MakeTables(per_client, rows, 11000 + 100 * s));
  }
  return slices;
}

// The no-wire baseline: every slice submitted straight into an in-process
// service, same total job count and thread budget as the networked runs.
NetRun RunLocalBaseline(const std::vector<std::vector<gordian::Table>>& slices,
                        int threads) {
  gordian::KeyCatalog catalog;
  gordian::ServiceOptions options;
  options.num_threads = threads;
  options.catalog = &catalog;
  gordian::ProfilingService service(options);
  NetRun run;
  gordian::Stopwatch watch;
  std::vector<gordian::JobId> ids;
  for (size_t s = 0; s < slices.size(); ++s) {
    for (size_t i = 0; i < slices[s].size(); ++i) {
      ids.push_back(service.SubmitTable(
          "c" + std::to_string(s) + "-t" + std::to_string(i), &slices[s][i]));
      ++run.jobs;
    }
  }
  for (gordian::JobId id : ids) (void)service.Wait(id);
  run.seconds = watch.ElapsedSeconds();
  return run;
}

// Admission caps for the networked runs, settable from the command line so
// the same binary can measure both regimes: sized-to-the-burst (the
// default — every client's one in-flight job fits the router queue, sheds
// only on real overload) and deliberately tight (--net_queue=1 reproduces
// the old backpressure-dominated configuration).
struct NetAdmission {
  int per_worker_queue = 0;        // router queue depth per worker
  int per_worker_connections = 2;  // dispatcher connections per worker
  int worker_max_active_rpcs = 64; // worker-side concurrent-RPC cap
};

NetRun RunNetworked(const std::vector<std::vector<gordian::Table>>& slices,
                    int num_workers, int threads,
                    const NetAdmission& admission) {
  // Shard-owner workers over loopback, memory-only catalogs (persistence
  // is benched separately), the service's thread budget split across them.
  std::vector<std::unique_ptr<gordian::WorkerDaemon>> workers;
  gordian::RouterOptions router_options;
  const int span = gordian::KeyCatalog::kNumShards / num_workers;
  for (int w = 0; w < num_workers; ++w) {
    gordian::WorkerOptions wo;
    wo.shard_first = w * span;
    wo.shard_last = (w + 1 == num_workers)
                        ? gordian::KeyCatalog::kNumShards - 1
                        : (w + 1) * span - 1;
    wo.num_threads = std::max(1, threads / num_workers);
    wo.max_active_rpcs = admission.worker_max_active_rpcs;
    auto daemon = std::make_unique<gordian::WorkerDaemon>(wo);
    gordian::Status s = daemon->Start();
    if (!s.ok()) {
      std::fprintf(stderr, "worker start failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    gordian::WorkerSpec spec;
    spec.port = daemon->port();
    spec.shard_first = wo.shard_first;
    spec.shard_last = wo.shard_last;
    router_options.workers.push_back(spec);
    workers.push_back(std::move(daemon));
  }
  // Short retry-after keeps the retry tax honest but small when the caps
  // do bind.
  router_options.per_worker_queue = admission.per_worker_queue;
  router_options.per_worker_connections = admission.per_worker_connections;
  router_options.retry_after_millis = 5;
  gordian::Router router(router_options);
  gordian::Status s = router.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "router start failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }

  std::atomic<int64_t> jobs{0};
  std::atomic<int64_t> sheds{0};
  std::atomic<int64_t> shed_retries{0};
  std::atomic<int64_t> retries{0};
  gordian::Stopwatch watch;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < slices.size(); ++c) {
    clients.emplace_back([&, c] {
      gordian::ProfileClient client("127.0.0.1", router.port());
      gordian::RemoteProfileOptions options;
      options.client_id = "bench-" + std::to_string(c);
      options.max_attempts = 64;
      options.retry_base_millis = 2;
      for (size_t i = 0; i < slices[c].size(); ++i) {
        gordian::RemoteOutcome outcome;
        gordian::Status st = client.Profile(
            "c" + std::to_string(c) + "-t" + std::to_string(i), slices[c][i],
            options, &outcome);
        if (!st.ok()) {
          std::fprintf(stderr, "remote profile failed: %s\n",
                       st.ToString().c_str());
          std::exit(1);
        }
        jobs.fetch_add(1);
        sheds.fetch_add(outcome.sheds);
        shed_retries.fetch_add(outcome.shed_retries);
        retries.fetch_add(outcome.transport_retries);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  NetRun run;
  run.seconds = watch.ElapsedSeconds();
  run.jobs = jobs.load();
  run.sheds = sheds.load();
  run.shed_retries = shed_retries.load();
  run.transport_retries = retries.load();
  router.Stop();
  for (auto& w : workers) w->Stop();
  return run;
}

void WriteServiceJson(int clients, int per_client, int64_t rows, int threads,
                      const NetAdmission& admission, const NetRun& local,
                      const NetRun& one, const NetRun& two) {
  const char* env_path = std::getenv("GORDIAN_BENCH_SERVICE_JSON");
  const std::string path = (env_path != nullptr && *env_path != '\0')
                               ? env_path
                               : "BENCH_service.json";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  auto config = [&os](const char* name, const NetRun& r, bool last) {
    os << "    {\"name\": \"" << name << "\",\n"
       << "     \"wall_seconds\": " << r.seconds << ",\n"
       << "     \"jobs_per_second\": "
       << (r.seconds > 0 ? r.jobs / r.seconds : 0) << ",\n"
       << "     \"sheds\": " << r.sheds << ",\n"
       << "     \"shed_retries\": " << r.shed_retries << ",\n"
       << "     \"transport_retries\": " << r.transport_retries << ",\n"
       << "     \"shed_rate\": " << r.shed_rate() << "}"
       << (last ? "\n" : ",\n");
  };
  os << "{\n"
     << "  \"benchmark\": \"networked_service_throughput\",\n"
     << "  \"client_threads\": " << clients << ",\n"
     << "  \"tables_per_client\": " << per_client << ",\n"
     << "  \"rows\": " << rows << ",\n"
     << "  \"threads\": " << threads << ",\n"
     << "  \"per_worker_queue\": " << admission.per_worker_queue << ",\n"
     << "  \"per_worker_connections\": " << admission.per_worker_connections
     << ",\n"
     << "  \"worker_max_active_rpcs\": " << admission.worker_max_active_rpcs
     << ",\n"
     << "  \"jobs\": " << local.jobs << ",\n"
     << "  \"configurations\": [\n";
  config("local_in_process", local, false);
  config("router_1_worker", one, false);
  config("router_2_workers", two, true);
  os << "  ],\n"
     << "  \"wire_overhead_1_worker\": "
     << (local.seconds > 0 ? one.seconds / local.seconds : 0) << ",\n"
     << "  \"two_worker_speedup_over_one\": "
     << (two.seconds > 0 ? one.seconds / two.seconds : 0) << "\n"
     << "}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  gordian::Flags flags(argc, argv);
  const int num_tables = static_cast<int>(flags.GetInt("tables", 24));
  const int64_t rows = flags.GetInt("rows", 4000);
  const int max_threads = flags.ThreadCount();

  gordian::bench::Banner(
      "profiling service throughput",
      "the service layer; jobs/sec vs sequential FindKeys");

  std::vector<gordian::Table> tables = MakeTables(num_tables, rows);

  // Sequential baseline: plain FindKeys on the caller's thread.
  gordian::Stopwatch watch;
  for (const gordian::Table& t : tables) (void)gordian::FindKeys(t);
  const double seq_seconds = watch.ElapsedSeconds();

  // Cold service runs (fresh catalog each) at 1 and max_threads workers.
  gordian::KeyCatalog cold1;
  const double svc1_seconds = RunService(tables, 1, &cold1);
  gordian::KeyCatalog coldN;
  const double svcN_seconds = RunService(tables, max_threads, &coldN);

  // Warm run: catalog already holds every table, so each job is a hit.
  const double warm_seconds = RunService(tables, max_threads, &coldN);

  const double n = static_cast<double>(num_tables);
  SeriesPrinter printer(
      {"configuration", "seconds", "jobs/sec", "vs sequential"});
  printer.AddRow({"sequential FindKeys", FormatSeconds(seq_seconds),
                  FormatRatio(n / seq_seconds), "1.00"});
  printer.AddRow({"service, 1 thread", FormatSeconds(svc1_seconds),
                  FormatRatio(n / svc1_seconds),
                  FormatRatio(seq_seconds / svc1_seconds)});
  printer.AddRow({"service, " + std::to_string(max_threads) + " thread(s)",
                  FormatSeconds(svcN_seconds), FormatRatio(n / svcN_seconds),
                  FormatRatio(seq_seconds / svcN_seconds)});
  printer.AddRow({"service, warm cache", FormatSeconds(warm_seconds),
                  FormatRatio(n / warm_seconds),
                  FormatRatio(seq_seconds / warm_seconds)});
  printer.Print();

  std::printf("\n%d tables x %lld rows; warm-cache speedup over cold run: "
              "%.1fx\n",
              num_tables, static_cast<long long>(rows),
              svcN_seconds / warm_seconds);

  // Repeated-table workload: same tables profiled `repeats` times with the
  // catalog off, so every job pays traversal + conversion and only the
  // prefix-tree build can be amortized by the TreeArtifactCache.
  const int repeats = static_cast<int>(flags.GetInt("repeats", 8));
  const int64_t amort_rows = flags.GetInt("amort_rows", 80000);
  gordian::bench::Banner(
      "tree-build amortization",
      "repeated re-profiling (catalog off): TreeArtifactCache on vs off");
  std::vector<gordian::Table> amort_tables =
      MakeBuildBoundTables(num_tables, amort_rows);
  const RepeatedRun cold = RunRepeatedTables(amort_tables, max_threads,
                                             repeats, /*tree_cache_bytes=*/0);
  // Budget sized to the working set: all tables' trees must stay resident,
  // or the round-robin waves thrash the LRU (each wave evicts exactly the
  // tree the next wave needs, and the hit rate collapses to zero). An
  // entry's charge covers the mutable tree pool AND its frozen layout
  // (~52 MB at 80k rows since freeze-on-insert landed), so the default
  // budget is sized at ~4 GiB for the default 24 tables rather than the
  // old 1 GiB, which silently started thrashing once frozen bytes were
  // added to the accounting.
  const int64_t tree_cache_mb = flags.GetInt("tree_cache_mb", 4096);
  const RepeatedRun warm = RunRepeatedTables(amort_tables, max_threads,
                                             repeats,
                                             tree_cache_mb * (1LL << 20));

  const double jobs = static_cast<double>(num_tables) * repeats;
  SeriesPrinter rp({"configuration", "seconds", "jobs/sec", "tree hit rate",
                    "speedup"});
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.1f%%",
                cold.metrics.tree_cache_hit_rate() * 100);
  rp.AddRow({"tree cache off", FormatSeconds(cold.seconds),
             FormatRatio(jobs / cold.seconds), rate, "1.00"});
  std::snprintf(rate, sizeof(rate), "%.1f%%",
                warm.metrics.tree_cache_hit_rate() * 100);
  rp.AddRow({"tree cache on", FormatSeconds(warm.seconds),
             FormatRatio(jobs / warm.seconds), rate,
             FormatRatio(cold.seconds / warm.seconds)});
  rp.Print();

  std::printf("\nper-stage wall clock with the tree cache on:\n");
  for (int i = 0; i < gordian::kNumStages; ++i) {
    const gordian::Counter micros = gordian::StageMicros(i);
    const int64_t runs = warm.metrics[gordian::StageRuns(i)];
    if (runs == 0) continue;
    std::printf("  %-12s %8.3f s over %lld run(s)\n",
                gordian::CounterLabel(micros), warm.metrics.seconds(micros),
                static_cast<long long>(runs));
  }

  WritePipelineJson(num_tables, amort_rows, repeats, max_threads, cold, warm);

  // Durable catalog flushes: cost of the first full snapshot (every shard
  // dirty), of an incremental flush after one shard changed, and of a warm
  // flush where the dirty bits skip all 16 shards and write zero bytes.
  gordian::bench::Banner(
      "catalog persistence",
      "per-shard flush cost: cold snapshot vs incremental vs no-op");
  {
    namespace stdfs = std::filesystem;
    const std::string dir =
        (stdfs::temp_directory_path() / "gordian_bench_catalog").string();
    std::error_code ec;
    stdfs::remove_all(dir, ec);

    gordian::CatalogStore store(dir, &coldN);  // coldN: one entry per table
    if (!store.Open().ok()) {
      std::fprintf(stderr, "cannot open catalog dir %s\n", dir.c_str());
      return 1;
    }
    auto timed_flush = [&store](gordian::FlushStats* stats) {
      gordian::Stopwatch w;
      (void)store.Flush(stats);
      return w.ElapsedSeconds();
    };
    gordian::FlushStats cold_stats, incr_stats, warm_stats;
    const double cold_flush = timed_flush(&cold_stats);
    // Dirty exactly one shard by re-storing one existing entry.
    for (int s = 0; s < gordian::KeyCatalog::kNumShards; ++s) {
      std::vector<gordian::CatalogEntry> entries = coldN.ShardSnapshot(s);
      if (entries.empty()) continue;
      (void)coldN.Put(entries[0].fingerprint, entries[0].table_name,
                      entries[0].num_columns, entries[0].result);
      break;
    }
    const double incr_flush = timed_flush(&incr_stats);
    const double warm_flush = timed_flush(&warm_stats);

    SeriesPrinter fp({"flush", "seconds", "shards written", "bytes"});
    auto flush_row = [&fp](const char* name, double seconds,
                           const gordian::FlushStats& s) {
      fp.AddRow({name, FormatSeconds(seconds),
                 std::to_string(s.shards_flushed),
                 std::to_string(s.bytes_written)});
    };
    flush_row("cold (all shards)", cold_flush, cold_stats);
    flush_row("incremental (1 dirty)", incr_flush, incr_stats);
    flush_row("warm (no-op)", warm_flush, warm_stats);
    fp.Print();
    std::printf("\ncatalog dir: %s (%d entries across %d shards)\n",
                dir.c_str(), static_cast<int>(coldN.size()),
                gordian::KeyCatalog::kNumShards);
    stdfs::remove_all(dir, ec);
  }

  // Networked front-end: identical discovery workload pushed through the
  // router + shard-owner workers over loopback, at one and two workers,
  // with the in-process service as the no-wire baseline.
  const int net_clients = static_cast<int>(flags.GetInt("net_clients", 6));
  const int net_tables = static_cast<int>(flags.GetInt("net_tables", 6));
  const int64_t net_rows = flags.GetInt("net_rows", 2000);
  // Each client keeps one job in flight, so a queue of net_clients admits
  // the whole burst even when one worker owns every shard; sheds then only
  // appear under real overload. --net_queue=1 reproduces the old
  // deliberately-tight regime where the shed rate itself was the subject.
  NetAdmission admission;
  admission.per_worker_queue =
      static_cast<int>(flags.GetInt("net_queue", net_clients));
  admission.per_worker_connections =
      static_cast<int>(flags.GetInt("net_connections", 2));
  admission.worker_max_active_rpcs =
      static_cast<int>(flags.GetInt("net_worker_rpcs", 64));
  gordian::bench::Banner(
      "networked front-end",
      "router + shard-owner workers over loopback vs in-process service");
  {
    std::vector<std::vector<gordian::Table>> slices =
        MakeClientSlices(net_clients, net_tables, net_rows);
    const NetRun local = RunLocalBaseline(slices, max_threads);
    const NetRun one =
        RunNetworked(slices, /*num_workers=*/1, max_threads, admission);
    const NetRun two =
        RunNetworked(slices, /*num_workers=*/2, max_threads, admission);

    SeriesPrinter np({"configuration", "seconds", "jobs/sec", "sheds",
                      "shed rate", "vs local"});
    char shed[32];
    auto net_row = [&](const char* name, const NetRun& r) {
      std::snprintf(shed, sizeof(shed), "%.1f%%", r.shed_rate() * 100);
      np.AddRow({name, FormatSeconds(r.seconds),
                 FormatRatio(r.jobs / r.seconds), std::to_string(r.sheds),
                 shed, FormatRatio(local.seconds / r.seconds)});
    };
    net_row("local in-process", local);
    net_row("router + 1 worker", one);
    net_row("router + 2 workers", two);
    np.Print();

    std::printf("\n%d client thread(s) x %d table(s) x %lld rows; "
                "wire overhead at 1 worker: %.2fx; "
                "2 workers vs 1: %.2fx\n",
                net_clients, net_tables, static_cast<long long>(net_rows),
                one.seconds / local.seconds, one.seconds / two.seconds);
    WriteServiceJson(net_clients, net_tables, net_rows, max_threads,
                     admission, local, one, two);
  }
  return 0;
}
