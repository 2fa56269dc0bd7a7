// In-process tests for the distributed profiling front-end: RPC server and
// client over real loopback sockets, shard-owner workers, the router's
// admission control (queues + quotas), retry/failover, and equivalence of
// remote results with a local single-process run.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/gordian.h"
#include "datagen/synthetic.h"
#include "net/client.h"
#include "net/router.h"
#include "net/socket.h"
#include "net/worker.h"
#include "service/job_scheduler.h"
#include "service/key_catalog.h"
#include "service/profiling_service.h"
#include "table/fingerprint.h"
#include "table/serialize.h"

namespace gordian {
namespace {

Table MakeTable(int64_t rows, uint64_t seed, int columns = 5) {
  SyntheticSpec spec = UniformSpec(columns, rows, 32, 0.5, seed);
  spec.columns[0].cardinality = 256;
  spec.columns[2].cardinality = 64;
  spec.planted_keys.push_back({0, 2});
  Table t;
  Status s = GenerateSynthetic(spec, &t);
  EXPECT_TRUE(s.ok());
  return t;
}

void ExpectSameResult(const KeyDiscoveryResult& a,
                      const KeyDiscoveryResult& b) {
  EXPECT_EQ(a.no_keys, b.no_keys);
  EXPECT_EQ(a.sampled, b.sampled);
  EXPECT_EQ(a.incomplete, b.incomplete);
  ASSERT_EQ(a.keys.size(), b.keys.size());
  for (size_t i = 0; i < a.keys.size(); ++i) {
    EXPECT_EQ(a.keys[i].attrs, b.keys[i].attrs);
    EXPECT_DOUBLE_EQ(a.keys[i].estimated_strength,
                     b.keys[i].estimated_strength);
    EXPECT_DOUBLE_EQ(a.keys[i].exact_strength, b.keys[i].exact_strength);
  }
  EXPECT_EQ(a.non_keys, b.non_keys);
}

// Finds a seed whose table fingerprint lands in [first, last]; the routing
// tests need tables aimed at a specific owner.
Table TableForShards(int first, int last, uint64_t* seed_io) {
  for (uint64_t seed = *seed_io;; ++seed) {
    Table t = MakeTable(120, seed);
    const int shard = KeyCatalog::ShardIndexOf(TableFingerprint(t));
    if (shard >= first && shard <= last) {
      *seed_io = seed + 1;
      return t;
    }
  }
}

// ----------------------------------------------------------------- raw RPC

TEST(Rpc, EchoOverLoopback) {
  RpcServer server(RpcServer::Options{});
  ASSERT_TRUE(server
                  .Start([](const Frame& request, Frame* response) {
                    response->payload = request.payload + "!";
                  })
                  .ok());
  ASSERT_GT(server.port(), 0);

  RpcClient client("127.0.0.1", server.port());
  for (int i = 0; i < 5; ++i) {
    RpcReply reply;
    ASSERT_TRUE(
        client.Call(RpcMethod::kHealth, "ping" + std::to_string(i), 2000,
                    &reply)
            .ok());
    EXPECT_TRUE(reply.remote.ok());
    EXPECT_EQ(reply.payload, "ping" + std::to_string(i) + "!");
  }
  server.Stop();
}

TEST(Rpc, RemoteErrorsAndRetryAfterCrossTheWire) {
  RpcServer server(RpcServer::Options{});
  ASSERT_TRUE(server
                  .Start([](const Frame&, Frame* response) {
                    response->status_code = Status::Code::kUnavailable;
                    response->payload = "try later";
                    response->deadline_millis = 77;
                  })
                  .ok());
  RpcClient client("127.0.0.1", server.port());
  RpcReply reply;
  ASSERT_TRUE(client.Call(RpcMethod::kProfile, "", 2000, &reply).ok());
  EXPECT_TRUE(reply.remote.IsUnavailable());
  EXPECT_NE(reply.remote.ToString().find("try later"), std::string::npos);
  EXPECT_EQ(reply.retry_after_millis, 77u);
  server.Stop();
}

TEST(Rpc, ConnectionRefusedIsATransportError) {
  RpcClient client("127.0.0.1", 1);  // nothing listens on port 1
  RpcReply reply;
  Status s = client.Call(RpcMethod::kHealth, "", 500, &reply);
  EXPECT_FALSE(s.ok());
}

TEST(Rpc, ServerSurvivesGarbageConnections) {
  std::atomic<int> handled{0};
  RpcServer server(RpcServer::Options{});
  ASSERT_TRUE(server
                  .Start([&handled](const Frame&, Frame* response) {
                    handled.fetch_add(1);
                    response->payload = "ok";
                  })
                  .ok());
  // A client that speaks garbage gets its connection dropped...
  {
    std::unique_ptr<ByteStream> raw;
    ASSERT_TRUE(TcpConnect("127.0.0.1", server.port(),
                           std::chrono::milliseconds(2000), &raw)
                    .ok());
    std::string junk(64, '\x5A');
    (void)raw->Write(junk.data(), junk.size());
    char buf[16];
    size_t n = 1;
    // The server closes; we read end-of-stream (n == 0) or an error.
    Status s = raw->ReadSome(buf, sizeof(buf), &n);
    EXPECT_TRUE(!s.ok() || n == 0);
    raw->Close();
  }
  // ...while well-formed clients are unaffected.
  RpcClient client("127.0.0.1", server.port());
  RpcReply reply;
  ASSERT_TRUE(client.Call(RpcMethod::kHealth, "", 2000, &reply).ok());
  EXPECT_TRUE(reply.remote.ok());
  EXPECT_EQ(handled.load(), 1);
  server.Stop();
}

// ------------------------------------------------------------------ worker

TEST(Worker, RemoteProfileMatchesLocalRun) {
  WorkerOptions options;
  WorkerDaemon worker(options);
  ASSERT_TRUE(worker.Start().ok());
  // No-op jobs bracket the requests' ids in the worker's scheduler.
  JobScheduler& scheduler = worker.service().scheduler();
  const auto noop = [](const JobContext&) {};
  const JobId before = scheduler.Submit(noop);
  scheduler.Wait(before);

  Table table = MakeTable(300, 1);
  ProfileClient client("127.0.0.1", worker.port());
  RemoteOutcome remote;
  ASSERT_TRUE(
      client.Profile("t", table, RemoteProfileOptions{}, &remote).ok());
  EXPECT_EQ(remote.served_by, "owner-00-15");
  EXPECT_EQ(remote.fingerprint, TableFingerprint(table));
  EXPECT_FALSE(remote.cache_hit);

  ProfilingService local;
  ProfileOutcome baseline = local.Wait(local.SubmitTable("t", &table));
  ExpectSameResult(remote.result, baseline.result);

  // Same table again: the worker's catalog answers without re-discovery.
  RemoteOutcome again;
  ASSERT_TRUE(
      client.Profile("t", table, RemoteProfileOptions{}, &again).ok());
  EXPECT_TRUE(again.cache_hit);
  ExpectSameResult(again.result, baseline.result);

  // One job per request, and each record went with its handler.
  const JobId after = scheduler.Submit(noop);
  scheduler.Wait(after);
  EXPECT_EQ(after - before, 3);
  for (JobId id = before + 1; id < after; ++id) {
    EXPECT_FALSE(scheduler.Poll(id).valid) << id;
  }
  worker.Stop();
}

TEST(Worker, HealthProbeReportsShardsAndCatalog) {
  WorkerOptions options;
  options.shard_first = 4;
  options.shard_last = 9;
  WorkerDaemon worker(options);
  ASSERT_TRUE(worker.Start().ok());

  ProfileClient client("127.0.0.1", worker.port());
  HealthInfo info;
  ASSERT_TRUE(client.Health(&info).ok());
  EXPECT_EQ(info.role, HealthInfo::Role::kWorker);
  EXPECT_TRUE(info.accepting);
  EXPECT_EQ(info.shard_first, 4);
  EXPECT_EQ(info.shard_last, 9);
  worker.Stop();
}

TEST(Worker, ShedsBeyondActiveRpcCap) {
  WorkerOptions options;
  options.max_active_rpcs = 0;  // shed everything: capacity test
  options.retry_after_millis = 11;
  WorkerDaemon worker(options);
  ASSERT_TRUE(worker.Start().ok());

  Table table = MakeTable(100, 2);
  ProfileClient client("127.0.0.1", worker.port());
  RemoteProfileOptions one_shot;
  one_shot.max_attempts = 1;
  RemoteOutcome outcome;
  Status s = client.Profile("t", table, one_shot, &outcome);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  // The shed and the frames that carried it land in the one snapshot.
  const ServiceMetrics::Snapshot m = worker.Metrics();
  EXPECT_EQ(m[Counter::kRpcSheds], 1);
  EXPECT_GE(m[Counter::kRpcsIn], 1);
  worker.Stop();
}

TEST(Worker, RejectsFingerprintMismatch) {
  WorkerDaemon worker(WorkerOptions{});
  ASSERT_TRUE(worker.Start().ok());

  // Hand-build a request whose claimed fingerprint is wrong.
  Table table = MakeTable(100, 3);
  std::ostringstream os;
  ASSERT_TRUE(WriteTable(table, os).ok());
  ProfileRequest req;
  req.fingerprint = TableFingerprint(table) ^ 1;
  req.table_name = "t";
  req.table_bytes = os.str();
  std::string payload;
  EncodeProfileRequest(req, &payload);

  RpcClient rpc("127.0.0.1", worker.port());
  RpcReply reply;
  ASSERT_TRUE(rpc.Call(RpcMethod::kProfile, payload, 5000, &reply).ok());
  EXPECT_EQ(reply.remote.code(), Status::Code::kInvalidArgument);
  worker.Stop();
}

TEST(Worker, RefusesImplausibleCountsThenServes) {
  WorkerDaemon worker(WorkerOptions{});
  ASSERT_TRUE(worker.Start().ok());

  // A GRDT stream claiming 2^33 rows of a one-column table, with none of
  // their codes: the worker must answer InvalidArgument instead of trying
  // to allocate the code vector.
  std::string table_bytes = "GRDT";
  const auto put = [&table_bytes](uint64_t v, int width) {
    for (int b = 0; b < width; ++b) {
      table_bytes.push_back(static_cast<char>(v >> (8 * b)));
    }
  };
  put(1, 4);                  // format version
  put(1, 4);                  // column count
  put(uint64_t{1} << 33, 8);  // row count
  put(1, 4);                  // name length
  table_bytes += "a";
  put(0, 4);  // dictionary size
  ProfileRequest req;
  req.table_name = "hostile";
  req.table_bytes = table_bytes;
  std::string payload;
  EncodeProfileRequest(req, &payload);
  RpcClient rpc("127.0.0.1", worker.port());
  RpcReply reply;
  ASSERT_TRUE(rpc.Call(RpcMethod::kProfile, payload, 5000, &reply).ok());
  EXPECT_EQ(reply.remote.code(), Status::Code::kInvalidArgument);

  // The worker is still serving.
  Table table = MakeTable(200, 4);
  ProfileClient client("127.0.0.1", worker.port());
  RemoteOutcome outcome;
  ASSERT_TRUE(
      client.Profile("t", table, RemoteProfileOptions{}, &outcome).ok());
  ExpectSameResult(outcome.result, FindKeys(table));
  worker.Stop();
}

TEST(Worker, SampledTableMatchesLocalRun) {
  WorkerDaemon worker(WorkerOptions{});
  ASSERT_TRUE(worker.Start().ok());

  // The sample shares the full table's dictionaries; it must reach the
  // worker with its fingerprint intact.
  Table sample = MakeTable(2000, 6).SampleRows(300, 8);
  ProfileClient client("127.0.0.1", worker.port());
  RemoteOutcome remote;
  Status s = client.Profile("sample", sample, RemoteProfileOptions{}, &remote);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(remote.fingerprint, TableFingerprint(sample));
  ExpectSameResult(remote.result, FindKeys(sample));
  worker.Stop();
}

TEST(ProfileClientLimits, OversizedRequestFailsBeforeConnecting) {
  // Two 33 MiB strings: the request exceeds the 64 MiB frame limit, so no
  // attempt can succeed and none is made, even against a closed port.
  TableBuilder b(Schema(std::vector<std::string>{"blob"}));
  b.AddRow({Value(std::string(33u << 20, 'a'))});
  b.AddRow({Value(std::string(33u << 20, 'b'))});
  Table table = b.Build();
  ProfileClient client("127.0.0.1", 1);  // nothing listens on port 1
  RemoteOutcome outcome;
  Status s = client.Profile("big", table, RemoteProfileOptions{}, &outcome);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << s.ToString();
  EXPECT_EQ(outcome.transport_retries, 0);
}

// A call whose last attempt fails returns at once: the backoff or
// retry-after that would precede another attempt is not slept out.
TEST(ProfileClientLimits, LastAttemptShedReturnsWithoutWaiting) {
  WorkerOptions options;
  options.max_active_rpcs = 0;  // shed everything
  options.retry_after_millis = 3000;
  WorkerDaemon worker(options);
  ASSERT_TRUE(worker.Start().ok());

  Table table = MakeTable(100, 4);
  ProfileClient client("127.0.0.1", worker.port());
  RemoteProfileOptions one_shot;
  one_shot.max_attempts = 1;
  RemoteOutcome outcome;
  const auto start = std::chrono::steady_clock::now();
  Status s = client.Profile("t", table, one_shot, &outcome);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_EQ(outcome.sheds, 1);
  EXPECT_EQ(outcome.shed_retries, 0);
  worker.Stop();
}

TEST(ProfileClientLimits, LastAttemptTransportFailureReturnsWithoutBackoff) {
  Table table = MakeTable(100, 5);
  ProfileClient client("127.0.0.1", 1);  // nothing listens on port 1
  RemoteProfileOptions one_shot;
  one_shot.max_attempts = 1;
  one_shot.retry_base_millis = 2000;
  RemoteOutcome outcome;
  const auto start = std::chrono::steady_clock::now();
  Status s = client.Profile("t", table, one_shot, &outcome);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(outcome.transport_retries, 1);
}

// ------------------------------------------------------------------ router

class RouterTest : public ::testing::Test {
 protected:
  // Two workers splitting the shard space in half, fronted by a router.
  void StartFleet(RouterOptions router_options = {}) {
    WorkerOptions w1;
    w1.shard_first = 0;
    w1.shard_last = 7;
    worker1_ = std::make_unique<WorkerDaemon>(w1);
    ASSERT_TRUE(worker1_->Start().ok());

    WorkerOptions w2;
    w2.shard_first = 8;
    w2.shard_last = 15;
    worker2_ = std::make_unique<WorkerDaemon>(w2);
    ASSERT_TRUE(worker2_->Start().ok());

    router_options.workers = {
        {"127.0.0.1", worker1_->port(), 0, 7},
        {"127.0.0.1", worker2_->port(), 8, 15},
    };
    router_ = std::make_unique<Router>(router_options);
    ASSERT_TRUE(router_->Start().ok());
  }

  void TearDown() override {
    if (router_ != nullptr) router_->Stop();
    if (worker1_ != nullptr) worker1_->Stop();
    if (worker2_ != nullptr) worker2_->Stop();
  }

  std::unique_ptr<WorkerDaemon> worker1_;
  std::unique_ptr<WorkerDaemon> worker2_;
  std::unique_ptr<Router> router_;
};

TEST_F(RouterTest, RoutesByFingerprintShard) {
  StartFleet();
  ProfileClient client("127.0.0.1", router_->port());
  uint64_t seed = 10;
  for (int i = 0; i < 2; ++i) {
    Table low = TableForShards(0, 7, &seed);
    RemoteOutcome outcome;
    ASSERT_TRUE(
        client.Profile("low", low, RemoteProfileOptions{}, &outcome).ok());
    EXPECT_EQ(outcome.served_by, "owner-00-07");

    Table high = TableForShards(8, 15, &seed);
    ASSERT_TRUE(
        client.Profile("high", high, RemoteProfileOptions{}, &outcome).ok());
    EXPECT_EQ(outcome.served_by, "owner-08-15");
  }
  ServiceMetrics::Snapshot m = router_->Metrics();
  EXPECT_GE(m[Counter::kRpcsIn], 4);
  EXPECT_GE(m[Counter::kRpcsOut], 4);
  EXPECT_GT(m[Counter::kRpcBytesIn], 0);
  EXPECT_GT(m[Counter::kRpcBytesOut], 0);
}

TEST_F(RouterTest, HealthAggregatesTheFleet) {
  StartFleet();
  ProfileClient client("127.0.0.1", router_->port());
  HealthInfo info;
  ASSERT_TRUE(client.Health(&info).ok());
  EXPECT_EQ(info.role, HealthInfo::Role::kRouter);
  EXPECT_EQ(info.workers_total, 2);
  EXPECT_EQ(info.workers_up, 2);
}

TEST_F(RouterTest, QuotaShedsAndRecovers) {
  // One token per two seconds: the burst phase below (a few small RPCs)
  // never lasts a refill period, even on a loaded host, so the greedy
  // client's bucket is still empty when its one-shot and its first
  // retrying request arrive. The retrying client's 40 attempts x 100 ms
  // retry-after outlast that period about twice over.
  RouterOptions options;
  options.quota_tokens_per_second = 0.5;
  options.quota_burst = 2;
  options.retry_after_millis = 100;
  StartFleet(options);

  Table table = MakeTable(100, 30);
  ProfileClient client("127.0.0.1", router_->port());

  // Burn the burst, then the one-shot request is shed...
  RemoteProfileOptions opts;
  opts.client_id = "greedy";
  for (int i = 0; i < 2; ++i) {
    RemoteOutcome outcome;
    ASSERT_TRUE(client.Profile("t", table, opts, &outcome).ok());
  }
  RemoteProfileOptions one_shot = opts;
  one_shot.max_attempts = 1;
  RemoteOutcome shed;
  Status s = client.Profile("t", table, one_shot, &shed);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_GE(router_->Metrics()[Counter::kRpcSheds], 1);

  // ...while other clients are unaffected...
  RemoteProfileOptions other = opts;
  other.client_id = "patient";
  other.max_attempts = 1;
  RemoteOutcome ok_outcome;
  EXPECT_TRUE(client.Profile("t", table, other, &ok_outcome).ok());

  // ...and the greedy client succeeds once it waits out the retry-after.
  RemoteProfileOptions retrying = opts;
  retrying.max_attempts = 40;
  RemoteOutcome eventually;
  EXPECT_TRUE(client.Profile("t", table, retrying, &eventually).ok());
  EXPECT_GE(eventually.sheds, 1);
}

TEST_F(RouterTest, FailsOverWhenTheOwnerDies) {
  RouterOptions options;
  options.heartbeat_period_millis = 50;
  options.retry_base_millis = 5;
  StartFleet(options);

  uint64_t seed = 40;
  Table table = TableForShards(8, 15, &seed);
  ProfileClient client("127.0.0.1", router_->port());

  // Baseline through the owner.
  RemoteOutcome before;
  ASSERT_TRUE(
      client.Profile("t", table, RemoteProfileOptions{}, &before).ok());
  EXPECT_EQ(before.served_by, "owner-08-15");

  // Kill the owner; the router must fail the forward over to the survivor,
  // which serves the non-owned shard without persisting it.
  worker2_->Stop();
  RemoteOutcome after;
  Status s = client.Profile("t", table, RemoteProfileOptions{}, &after);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(after.served_by, "owner-00-07");
  ExpectSameResult(before.result, after.result);
  EXPECT_GE(router_->Metrics()[Counter::kRpcRetries], 1);

  // The survivor never wrote the foreign shard: ownership is preserved.
  EXPECT_FALSE(worker1_->service().catalog().Lookup(after.fingerprint,
                                                    nullptr));
}

TEST_F(RouterTest, ShutdownDrainsCleanly) {
  StartFleet();
  ProfileClient client("127.0.0.1", router_->port());
  Table table = MakeTable(100, 50);
  RemoteOutcome outcome;
  ASSERT_TRUE(
      client.Profile("t", table, RemoteProfileOptions{}, &outcome).ok());
  router_->Stop();
  // A post-shutdown call fails at transport or with Unavailable — never
  // hangs.
  RemoteProfileOptions one_shot;
  one_shot.max_attempts = 1;
  one_shot.deadline_millis = 1000;
  RemoteOutcome late;
  EXPECT_FALSE(client.Profile("t", table, one_shot, &late).ok());
}

}  // namespace
}  // namespace gordian
