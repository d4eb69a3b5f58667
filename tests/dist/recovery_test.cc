// Fault-tolerance tests: the coordinator must survive workers that die,
// hang, or drop requests — at handshake and mid-mine — by declaring them
// dead and re-assigning their chunk-aligned ranges to survivors, and every
// recovered run must stay BIT-IDENTICAL to the single-process pipeline
// (re-assigned ranges perturb on the same global seeded-chunk streams, and
// counts are additive over any row partition). Also covered: the
// all-workers-dead terminal state, worker-reported errors staying fatal,
// CheckHealth liveness probes, a worker outliving a crashed coordinator,
// and the per-range index cache that makes the rerun cheap.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "frapp/data/census.h"
#include "frapp/data/health.h"
#include "frapp/dist/coordinator.h"
#include "frapp/dist/fault.h"
#include "frapp/dist/index_cache.h"
#include "frapp/dist/worker.h"
#include "frapp/mining/vertical_index.h"
#include "frapp/pipeline/privacy_pipeline.h"

namespace frapp {
namespace dist {
namespace {

constexpr uint64_t kSeed = 17;
constexpr double kMinSupport = 0.02;

void ExpectSameMiningResult(const mining::AprioriResult& a,
                            const mining::AprioriResult& b) {
  ASSERT_EQ(a.by_length.size(), b.by_length.size());
  for (size_t k = 0; k < a.by_length.size(); ++k) {
    ASSERT_EQ(a.by_length[k].size(), b.by_length[k].size()) << "length " << k + 1;
    for (size_t i = 0; i < a.by_length[k].size(); ++i) {
      EXPECT_EQ(a.by_length[k][i].itemset, b.by_length[k][i].itemset);
      EXPECT_EQ(a.by_length[k][i].support, b.by_length[k][i].support);
    }
  }
}

WorkerOptions MakeWorkerOptions(const data::CategoricalTable& table) {
  WorkerOptions options(table.schema());
  options.num_threads = 2;
  options.source_factory =
      [&table]() -> StatusOr<std::unique_ptr<pipeline::TableSource>> {
    return std::unique_ptr<pipeline::TableSource>(
        std::make_unique<pipeline::InMemoryTableSource>(table,
                                                        /*num_shards=*/0));
  };
  return options;
}

class RecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new data::CategoricalTable(*data::census::MakeDataset(50000, 321));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }

  static mining::AprioriOptions MiningOptions() {
    mining::AprioriOptions options;
    options.min_support = kMinSupport;
    return options;
  }

  static mining::AprioriResult PipelineReference(const MechanismSpec& spec) {
    auto mechanism = *MakeMechanism(spec, table_->schema());
    pipeline::PipelineOptions options;
    options.num_shards = 3;
    options.num_threads = 2;
    options.perturb_seed = kSeed;
    options.mining = MiningOptions();
    const StatusOr<pipeline::PipelineResult> result =
        pipeline::PrivacyPipeline(options).Run(*mechanism, *table_);
    FRAPP_CHECK(result.ok()) << result.status().ToString();
    return result->mined;
  }

  // In-process fleet with `fault_spec` injected into the coordinator's
  // endpoints; runs CheckHealth first if asked, then a full mine.
  static StatusOr<mining::AprioriResult> MineWithFaults(
      const MechanismSpec& spec, size_t num_workers,
      const std::string& fault_spec, const CoordinatorOptions& options,
      DistStats* stats_out = nullptr, bool check_health_first = false) {
    const FaultSpec faults = *ParseFaultSpec(fault_spec);
    std::vector<std::unique_ptr<InProcessWorker>> workers;
    std::vector<std::unique_ptr<Transport>> transports;
    for (size_t w = 0; w < num_workers; ++w) {
      workers.push_back(
          std::make_unique<InProcessWorker>(MakeWorkerOptions(*table_)));
      transports.push_back(
          MaybeInjectFaults(workers[w]->TakeCoordinatorEndpoint(), faults, w));
    }
    FRAPP_ASSIGN_OR_RETURN(
        std::unique_ptr<Coordinator> coordinator,
        Coordinator::Connect(std::move(transports), table_->schema(), spec,
                             table_->num_rows(), options));
    if (check_health_first) {
      FRAPP_RETURN_IF_ERROR(coordinator->CheckHealth());
    }
    FRAPP_ASSIGN_OR_RETURN(mining::AprioriResult result,
                           coordinator->Mine(MiningOptions()));
    if (stats_out != nullptr) *stats_out = coordinator->stats();
    coordinator->Shutdown();
    for (auto& worker : workers) {
      // Dead workers see their connection closed, which is a CLEAN session
      // end for them — every worker must join OK even after a drill.
      FRAPP_RETURN_IF_ERROR(worker->Join());
    }
    return result;
  }

  static CoordinatorOptions Options() {
    CoordinatorOptions options;
    options.perturb_seed = kSeed;
    return options;
  }

  static data::CategoricalTable* table_;
};

data::CategoricalTable* RecoveryTest::table_ = nullptr;

TEST_F(RecoveryTest, WorkerDeadMidMineIsReassignedBitIdentical) {
  // Worker 1's connection closes on the coordinator's second receive from
  // it: its HelloAck lands, the first counting round's response does not.
  // The round must be discarded, worker 1's range re-assigned, the round
  // restarted — and the result must still match the pipeline bit for bit.
  MechanismSpec spec;
  DistStats stats;
  const StatusOr<mining::AprioriResult> mined =
      MineWithFaults(spec, 3, "1:close-recv=1", Options(), &stats);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ExpectSameMiningResult(PipelineReference(spec), *mined);
  EXPECT_EQ(stats.workers_failed, 1u);
  EXPECT_EQ(stats.workers_alive, 2u);
  EXPECT_GE(stats.ranges_reassigned, 1u);
  EXPECT_GE(stats.rounds_restarted, 1u);
}

TEST_F(RecoveryTest, WorkerSilentAtHandshakeTripsDeadlineAndIsReassigned) {
  // Worker 2 never answers anything (every receive reports an expired
  // deadline): the handshake must retry, declare it dead, and hand its
  // planned range to the survivors before mining even starts.
  MechanismSpec spec;
  DistStats stats;
  const StatusOr<mining::AprioriResult> mined =
      MineWithFaults(spec, 3, "2:timeout-recv=0", Options(), &stats);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ExpectSameMiningResult(PipelineReference(spec), *mined);
  EXPECT_EQ(stats.workers_failed, 1u);
  EXPECT_GE(stats.deadline_retries, 1u);
  EXPECT_GE(stats.ranges_reassigned, 1u);
}

TEST_F(RecoveryTest, DroppedRequestIsUnmaskedByRealDeadline) {
  // Worker 1's requests after the Hello are silently eaten — the classic
  // partition where the peer never hears you. No injected timeout this
  // time: the REAL receive deadline (in-process cv wait) must fire, retry,
  // and declare the worker dead.
  MechanismSpec spec;
  CoordinatorOptions options = Options();
  options.retry.request_deadline_ms = 1000;
  options.retry.max_attempts = 2;
  DistStats stats;
  const StatusOr<mining::AprioriResult> mined =
      MineWithFaults(spec, 3, "1:drop-send=1", options, &stats);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ExpectSameMiningResult(PipelineReference(spec), *mined);
  EXPECT_EQ(stats.workers_failed, 1u);
  EXPECT_GE(stats.deadline_retries, 1u);
}

TEST_F(RecoveryTest, AllWorkersDeadYieldsUnavailable) {
  // Nobody left to re-assign to: the one worker is silent, so Connect must
  // fail with kUnavailable — the only terminal failure recovery allows.
  const StatusOr<mining::AprioriResult> mined =
      MineWithFaults(MechanismSpec{}, 1, "0:timeout-recv=0", Options());
  ASSERT_FALSE(mined.ok());
  EXPECT_EQ(mined.status().code(), StatusCode::kUnavailable);
}

TEST_F(RecoveryTest, WorkerReportedErrorStaysFatal) {
  // A worker that REFUSES the job (here: schema fingerprint mismatch)
  // reports an app-level error; re-assignment would just be refused again
  // everywhere, so this must stay fatal even with a healthy second worker.
  std::vector<std::unique_ptr<InProcessWorker>> workers;
  std::vector<std::unique_ptr<Transport>> transports;
  for (size_t w = 0; w < 2; ++w) {
    workers.push_back(
        std::make_unique<InProcessWorker>(MakeWorkerOptions(*table_)));
    transports.push_back(workers[w]->TakeCoordinatorEndpoint());
  }
  const StatusOr<std::unique_ptr<Coordinator>> coordinator =
      Coordinator::Connect(std::move(transports), data::health::Schema(),
                           MechanismSpec{}, table_->num_rows(), Options());
  ASSERT_FALSE(coordinator.ok());
  EXPECT_EQ(coordinator.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(coordinator.status().message().find("fingerprint"),
            std::string::npos);
}

// A fake worker endpoint: acks the handshake (claiming its assigned range)
// and answers pings, but refuses every AssignRange with an app-level Error
// frame — the one failure shape re-assignment must treat as the JOB's
// fault, not the worker's.
class RefusingWorkerTransport : public Transport {
 public:

  Status Send(const Message& message) override {
    std::lock_guard<std::mutex> lock(mu_);
    switch (message.type) {
      case MessageType::kHello: {
        const StatusOr<HelloRequest> hello = DecodeHello(message);
        FRAPP_CHECK(hello.ok()) << hello.status().ToString();
        HelloAck ack;
        ack.num_rows = hello->range_end - hello->range_begin;
        replies_.push_back(EncodeHelloAck(ack));
        break;
      }
      case MessageType::kPing:
        replies_.push_back(EncodePong());
        break;
      case MessageType::kAssignRange:
        replies_.push_back(EncodeError(
            Status::InvalidArgument("scripted refusal of re-assignment")));
        break;
      case MessageType::kShutdown:
        break;
      default:
        replies_.push_back(
            EncodeError(Status::Internal("unexpected message type")));
        break;
    }
    return Status::OK();
  }

  StatusOr<Message> Receive() override {
    std::lock_guard<std::mutex> lock(mu_);
    if (replies_.empty()) return Status::Unavailable("no scripted reply");
    Message reply = std::move(replies_.front());
    replies_.erase(replies_.begin());
    return reply;
  }

  void Close() override {}

 private:
  std::mutex mu_;
  std::vector<Message> replies_;
};

TEST_F(RecoveryTest, AssignRangeRefusalStaysFatalInsteadOfCascading) {
  // Worker 2 dies at handshake; its 2-chunk orphan splits across BOTH
  // survivors, so scripted worker 1 is guaranteed an AssignRange — which
  // it refuses with an app-level Error. Treating that as worker death
  // would cascade (requeue to worker 0, coverage mismatch, kUnavailable);
  // the refusal's own status must surface instead, naming the worker.
  MechanismSpec spec;
  std::vector<std::unique_ptr<InProcessWorker>> workers;
  std::vector<std::unique_ptr<Transport>> transports;
  workers.push_back(
      std::make_unique<InProcessWorker>(MakeWorkerOptions(*table_)));
  transports.push_back(workers[0]->TakeCoordinatorEndpoint());
  transports.push_back(std::make_unique<RefusingWorkerTransport>());
  workers.push_back(
      std::make_unique<InProcessWorker>(MakeWorkerOptions(*table_)));
  transports.push_back(
      MaybeInjectFaults(workers[1]->TakeCoordinatorEndpoint(),
                        *ParseFaultSpec("2:timeout-recv=0"), 2));

  const StatusOr<std::unique_ptr<Coordinator>> coordinator =
      Coordinator::Connect(std::move(transports), table_->schema(), spec,
                           table_->num_rows(), Options());
  ASSERT_FALSE(coordinator.ok());
  EXPECT_EQ(coordinator.status().code(), StatusCode::kInvalidArgument)
      << coordinator.status().ToString();
  EXPECT_NE(coordinator.status().message().find("worker 1"),
            std::string::npos)
      << coordinator.status().ToString();
  EXPECT_NE(coordinator.status().message().find("scripted refusal"),
            std::string::npos)
      << coordinator.status().ToString();
}

TEST_F(RecoveryTest, WorkerRefusesRangesThatBeginOffTheChunkGrid) {
  // A real ServeWorker, not a scripted transport: a Hello or an AssignRange
  // whose range begins off the chunk grid is answered with an
  // InvalidArgument Error frame, and the session ends with that status.
  constexpr uint64_t kChunk = data::kShardAlignmentRows;
  const auto expect_refused = [](Transport& endpoint, InProcessWorker& worker,
                                 const Message& request) {
    ASSERT_TRUE(endpoint.Send(request).ok());
    const StatusOr<Message> reply = endpoint.Receive();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->type, MessageType::kError);
    EXPECT_EQ(DecodeError(*reply).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(worker.Join().code(), StatusCode::kInvalidArgument);
  };
  HelloRequest hello;
  hello.schema_fingerprint = data::SchemaFingerprint(table_->schema());
  hello.perturb_seed = kSeed;
  hello.range_begin = 100;
  hello.range_end = kChunk;

  InProcessWorker refuses_hello(MakeWorkerOptions(*table_));
  expect_refused(*refuses_hello.TakeCoordinatorEndpoint(), refuses_hello,
                 EncodeHello(hello));

  InProcessWorker refuses_assign(MakeWorkerOptions(*table_));
  std::unique_ptr<Transport> endpoint =
      refuses_assign.TakeCoordinatorEndpoint();
  hello.range_begin = 0;
  ASSERT_TRUE(endpoint->Send(EncodeHello(hello)).ok());
  const StatusOr<Message> ack = endpoint->Receive();
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_EQ(ack->type, MessageType::kHelloAck);
  AssignRange assign;
  assign.range_begin = kChunk + 100;
  assign.range_end = 2 * kChunk;
  expect_refused(*endpoint, refuses_assign, EncodeAssignRange(assign));
}

TEST_F(RecoveryTest, CheckHealthPingsEveryWorker) {
  MechanismSpec spec;
  DistStats stats;
  const StatusOr<mining::AprioriResult> mined =
      MineWithFaults(spec, 2, "", Options(), &stats,
                     /*check_health_first=*/true);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ExpectSameMiningResult(PipelineReference(spec), *mined);
  EXPECT_EQ(stats.pings_sent, 2u);
  EXPECT_EQ(stats.workers_failed, 0u);
  EXPECT_EQ(stats.workers_alive, 2u);
}

TEST_F(RecoveryTest, CheckHealthUnmasksHungWorkerBeforeMining) {
  // Worker 0 answers its HelloAck, then goes silent. CheckHealth must trip
  // on the missing Pong, re-assign its range, and the subsequent mine must
  // run entirely on the survivors — bit-identical.
  MechanismSpec spec;
  DistStats stats;
  const StatusOr<mining::AprioriResult> mined =
      MineWithFaults(spec, 3, "0:timeout-recv=1", Options(), &stats,
                     /*check_health_first=*/true);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ExpectSameMiningResult(PipelineReference(spec), *mined);
  EXPECT_EQ(stats.pings_sent, 3u);
  EXPECT_EQ(stats.workers_failed, 1u);
  EXPECT_EQ(stats.workers_alive, 2u);
  EXPECT_GE(stats.ranges_reassigned, 1u);
}

// ServeWorker sessions in an accept loop, like `frapp worker` runs them:
// the substrate for coordinator-outlived-by-worker tests.
class MultiSessionTcpWorkerHost {
 public:
  explicit MultiSessionTcpWorkerHost(WorkerOptions options) {
    StatusOr<TcpListener> listener = TcpListener::Bind("127.0.0.1", 0);
    FRAPP_CHECK(listener.ok()) << listener.status().ToString();
    listener_ = std::make_unique<TcpListener>(*std::move(listener));
    thread_ = std::thread([this, options = std::move(options)] {
      while (true) {
        StatusOr<std::unique_ptr<Transport>> accepted = listener_->Accept();
        if (!accepted.ok()) return;  // listener closed: host shut down
        session_results_.push_back(ServeWorker(**accepted, options));
      }
    });
  }

  ~MultiSessionTcpWorkerHost() { Stop(); }

  uint16_t port() const { return listener_->port(); }

  const std::vector<Status>& Stop() {
    if (thread_.joinable()) {
      listener_->Close();
      thread_.join();
    }
    return session_results_;
  }

 private:
  std::unique_ptr<TcpListener> listener_;
  std::thread thread_;
  std::vector<Status> session_results_;
};

TEST_F(RecoveryTest, WorkerOutlivesCrashedCoordinatorAndServesRerun) {
  MechanismSpec spec;
  IndexCache cache;
  WorkerOptions options = MakeWorkerOptions(*table_);
  options.index_cache = &cache;
  options.source_id = "census-test-table";
  MultiSessionTcpWorkerHost host(std::move(options));

  // Session 1: a "coordinator" that dies right after connecting, without
  // so much as a Hello. The worker must shrug it off and keep accepting.
  {
    StatusOr<std::unique_ptr<Transport>> doomed =
        TcpConnect("127.0.0.1", host.port());
    ASSERT_TRUE(doomed.ok()) << doomed.status().ToString();
    (*doomed)->Close();
  }

  // Sessions 2 and 3: two full coordinator runs against the same worker
  // process. Both must succeed and match; the second one's ingest must be
  // served from the index cache.
  mining::AprioriResult results[2];
  for (int run = 0; run < 2; ++run) {
    StatusOr<std::unique_ptr<Transport>> transport =
        TcpConnect("127.0.0.1", host.port());
    ASSERT_TRUE(transport.ok()) << transport.status().ToString();
    std::vector<std::unique_ptr<Transport>> transports;
    transports.push_back(*std::move(transport));
    StatusOr<std::unique_ptr<Coordinator>> coordinator =
        Coordinator::Connect(std::move(transports), table_->schema(), spec,
                             table_->num_rows(), Options());
    ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
    StatusOr<mining::AprioriResult> mined =
        (*coordinator)->Mine(MiningOptions());
    ASSERT_TRUE(mined.ok()) << mined.status().ToString();
    results[run] = *std::move(mined);
    (*coordinator)->Shutdown();
  }
  ExpectSameMiningResult(results[0], results[1]);
  ExpectSameMiningResult(PipelineReference(spec), results[0]);

  const IndexCache::Stats cache_stats = cache.stats();
  EXPECT_GE(cache_stats.hits, 1u) << "rerun did not hit the index cache";
  EXPECT_GE(cache_stats.entries, 1u);

  for (const Status& session : host.Stop()) {
    EXPECT_TRUE(session.ok()) << session.ToString();
  }
}

TEST_F(RecoveryTest, IndexCacheKeyCoversEveryDeterminismInput) {
  MechanismSpec spec;
  const std::string base =
      MakeIndexCacheKey("src", 1, CanonicalSpecKey(spec), 7, 0, 8192);
  EXPECT_NE(base,
            MakeIndexCacheKey("other", 1, CanonicalSpecKey(spec), 7, 0, 8192));
  EXPECT_NE(base,
            MakeIndexCacheKey("src", 2, CanonicalSpecKey(spec), 7, 0, 8192));
  EXPECT_NE(base,
            MakeIndexCacheKey("src", 1, CanonicalSpecKey(spec), 8, 0, 8192));
  EXPECT_NE(base,
            MakeIndexCacheKey("src", 1, CanonicalSpecKey(spec), 7, 0, 16384));
  EXPECT_NE(base, MakeIndexCacheKey("src", 1, CanonicalSpecKey(spec), 7, 8192,
                                    16384));

  // The spec key must see FLOAT BIT PATTERNS, not formatted decimals: two
  // gammas that print identically at low precision still key differently.
  MechanismSpec a = spec;
  MechanismSpec b = spec;
  a.gamma = 19.0;
  b.gamma = 19.0 + 1e-12;
  EXPECT_NE(CanonicalSpecKey(a), CanonicalSpecKey(b));
  EXPECT_NE(base,
            MakeIndexCacheKey("src", 1, CanonicalSpecKey(b), 7, 0, 8192));
}

// A bounded cache evicts least-recently-used entries instead of growing
// forever — and recency is refreshed by Lookup, not insertion order.
TEST_F(RecoveryTest, IndexCacheEvictsLeastRecentlyUsedUnderByteBudget) {
  // Each entry's shard holds 1024 words = 8 KiB; budget two and a bit
  // entries so the third insert must evict exactly one.
  CachedRangeIndex entry;
  entry.shards.push_back(mining::VerticalIndex::FromRaw(
      64 * 1024, {0}, std::vector<uint64_t>(1024, 0)));
  const size_t entry_bytes = entry.MemoryBytes();
  ASSERT_GT(entry_bytes, 0u);

  IndexCache cache(entry_bytes * 2 + entry_bytes / 2);
  cache.Insert("a", entry);
  cache.Insert("b", entry);
  CachedRangeIndex out;
  EXPECT_TRUE(cache.Lookup("a", &out));  // refresh: "b" is now the LRU
  cache.Insert("c", entry);

  EXPECT_TRUE(cache.Lookup("a", &out));
  EXPECT_FALSE(cache.Lookup("b", &out)) << "LRU entry was not the victim";
  EXPECT_TRUE(cache.Lookup("c", &out));
  const IndexCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, entry_bytes * 2 + entry_bytes / 2);

  // An unbounded cache (0) never evicts; a tiny budget still retains the
  // newest entry rather than thrashing to empty.
  IndexCache unbounded(0);
  unbounded.Insert("a", entry);
  unbounded.Insert("b", entry);
  EXPECT_EQ(unbounded.stats().evictions, 0u);
  IndexCache tiny(1);
  tiny.Insert("a", entry);
  EXPECT_TRUE(tiny.Lookup("a", &out));
  tiny.Insert("b", entry);
  EXPECT_TRUE(tiny.Lookup("b", &out));
  EXPECT_EQ(tiny.stats().entries, 1u);
}

}  // namespace
}  // namespace dist
}  // namespace frapp
