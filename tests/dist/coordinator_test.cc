// Distributed-mining equivalence: on CENSUS 50k, mined frequent itemsets
// and reconstructed supports from the coordinator/worker path must equal
// the single-process pipeline::PrivacyPipeline output BIT FOR BIT at every
// point of the workers {1, 2, 4} x transport {in-process, tcp-loopback}
// grid — distribution is a placement transform, never an accuracy one.
// Also covered: the schema-fingerprint handshake failure, worker row-count
// verification, empty worker ranges, and the traffic invariant (per-pass
// coordinator traffic is exactly the candidate-count vectors; rows never
// cross the wire).

#include "frapp/dist/coordinator.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "frapp/data/census.h"
#include "frapp/data/health.h"
#include "frapp/data/shard_io.h"
#include "frapp/dist/worker.h"
#include "frapp/pipeline/privacy_pipeline.h"

namespace frapp {
namespace dist {
namespace {

constexpr uint64_t kSeed = 17;
constexpr double kMinSupport = 0.02;

// Exact (bitwise) equality of two mining results, supports included.
void ExpectSameMiningResult(const mining::AprioriResult& a,
                            const mining::AprioriResult& b) {
  ASSERT_EQ(a.by_length.size(), b.by_length.size());
  EXPECT_EQ(a.candidates_per_pass, b.candidates_per_pass);
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

/// ServeWorker on an accepted TCP loopback connection, on its own thread.
class TcpWorkerHost {
 public:
  explicit TcpWorkerHost(WorkerOptions options) {
    StatusOr<TcpListener> listener = TcpListener::Bind("127.0.0.1", 0);
    FRAPP_CHECK(listener.ok()) << listener.status().ToString();
    listener_ = std::make_unique<TcpListener>(*std::move(listener));
    thread_ = std::thread([this, options = std::move(options)] {
      StatusOr<std::unique_ptr<Transport>> accepted = listener_->Accept();
      if (!accepted.ok()) {
        result_ = accepted.status();
        return;
      }
      result_ = ServeWorker(**accepted, options);
    });
  }

  ~TcpWorkerHost() { (void)Join(); }

  uint16_t port() const { return listener_->port(); }

  Status Join() {
    if (thread_.joinable()) {
      listener_->Close();
      thread_.join();
    }
    return result_;
  }

 private:
  std::unique_ptr<TcpListener> listener_;
  std::thread thread_;
  Status result_;
};

class CoordinatorTest : public ::testing::Test {
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

  static CoordinatorOptions Options() {
    CoordinatorOptions options;
    options.perturb_seed = kSeed;
    return options;
  }

  // The single-process reference for `spec`, via the streaming pipeline.
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

  // Distributed mine over `num_workers` in-process workers; returns the
  // result and optionally the coordinator's stats.
  static StatusOr<mining::AprioriResult> MineInProcess(
      const MechanismSpec& spec, size_t num_workers,
      DistStats* stats_out = nullptr) {
    std::vector<std::unique_ptr<InProcessWorker>> workers;
    std::vector<std::unique_ptr<Transport>> transports;
    for (size_t w = 0; w < num_workers; ++w) {
      workers.push_back(
          std::make_unique<InProcessWorker>(MakeWorkerOptions(*table_)));
      transports.push_back(workers.back()->TakeCoordinatorEndpoint());
    }
    FRAPP_ASSIGN_OR_RETURN(
        std::unique_ptr<Coordinator> coordinator,
        Coordinator::Connect(std::move(transports), table_->schema(), spec,
                             table_->num_rows(), Options()));
    FRAPP_ASSIGN_OR_RETURN(mining::AprioriResult result,
                           coordinator->Mine(MiningOptions()));
    if (stats_out != nullptr) *stats_out = coordinator->stats();
    coordinator->Shutdown();
    for (auto& worker : workers) {
      FRAPP_RETURN_IF_ERROR(worker->Join());
    }
    return result;
  }

  static StatusOr<mining::AprioriResult> MineTcp(const MechanismSpec& spec,
                                                 size_t num_workers) {
    std::vector<std::unique_ptr<TcpWorkerHost>> workers;
    std::vector<std::unique_ptr<Transport>> transports;
    for (size_t w = 0; w < num_workers; ++w) {
      workers.push_back(
          std::make_unique<TcpWorkerHost>(MakeWorkerOptions(*table_)));
      FRAPP_ASSIGN_OR_RETURN(std::unique_ptr<Transport> transport,
                             TcpConnect("127.0.0.1", workers.back()->port()));
      transports.push_back(std::move(transport));
    }
    FRAPP_ASSIGN_OR_RETURN(
        std::unique_ptr<Coordinator> coordinator,
        Coordinator::Connect(std::move(transports), table_->schema(), spec,
                             table_->num_rows(), Options()));
    FRAPP_ASSIGN_OR_RETURN(mining::AprioriResult result,
                           coordinator->Mine(MiningOptions()));
    coordinator->Shutdown();
    for (auto& worker : workers) {
      FRAPP_RETURN_IF_ERROR(worker->Join());
    }
    return result;
  }

  // The acceptance grid for one mechanism: workers {1, 2, 4} x transports
  // {in-process, tcp-loopback}, every point bit-identical to the pipeline.
  static void ExpectGridBitIdentical(const MechanismSpec& spec) {
    const mining::AprioriResult reference = PipelineReference(spec);
    ASSERT_GT(reference.TotalFrequent(), 0u);
    for (size_t num_workers : {1ul, 2ul, 4ul}) {
      {
        SCOPED_TRACE(testing::Message()
                     << "workers=" << num_workers << " transport=in-process");
        const StatusOr<mining::AprioriResult> mined =
            MineInProcess(spec, num_workers);
        ASSERT_TRUE(mined.ok()) << mined.status().ToString();
        ExpectSameMiningResult(reference, *mined);
      }
      {
        SCOPED_TRACE(testing::Message()
                     << "workers=" << num_workers << " transport=tcp");
        const StatusOr<mining::AprioriResult> mined = MineTcp(spec, num_workers);
        ASSERT_TRUE(mined.ok()) << mined.status().ToString();
        ExpectSameMiningResult(reference, *mined);
      }
    }
  }

  static data::CategoricalTable* table_;
};

data::CategoricalTable* CoordinatorTest::table_ = nullptr;

TEST_F(CoordinatorTest, DetGdGridBitIdentical) {
  MechanismSpec spec;
  spec.kind = MechanismSpec::Kind::kDetGd;
  ExpectGridBitIdentical(spec);
}

TEST_F(CoordinatorTest, MaskGridBitIdentical) {
  MechanismSpec spec;
  spec.kind = MechanismSpec::Kind::kMask;
  ExpectGridBitIdentical(spec);
}

// The remaining mechanisms ride the same seam; two in-process workers prove
// each one's distributed reconstruction bit-matches the pipeline.
TEST_F(CoordinatorTest, EveryMechanismBitIdenticalAtTwoWorkers) {
  for (const MechanismSpec::Kind kind :
       {MechanismSpec::Kind::kRanGd, MechanismSpec::Kind::kCutPaste,
        MechanismSpec::Kind::kIndGd}) {
    MechanismSpec spec;
    spec.kind = kind;
    spec.alpha = 0.005;  // RAN-GD only: must lie in [0, gamma*x] ~ 0.0094
    SCOPED_TRACE(MechanismSpecName(spec));
    const mining::AprioriResult reference = PipelineReference(spec);
    const StatusOr<mining::AprioriResult> mined = MineInProcess(spec, 2);
    ASSERT_TRUE(mined.ok()) << mined.status().ToString();
    ExpectSameMiningResult(reference, *mined);
  }
}

TEST_F(CoordinatorTest, MoreWorkersThanChunksLeavesExtrasEmpty) {
  // 50000 rows = 7 chunk quanta; 9 workers leave two with empty ranges,
  // which must count zeros and not disturb the totals.
  MechanismSpec spec;
  const mining::AprioriResult reference = PipelineReference(spec);
  const StatusOr<mining::AprioriResult> mined = MineInProcess(spec, 9);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ExpectSameMiningResult(reference, *mined);
}

TEST_F(CoordinatorTest, TrafficIsExactlyCountVectors) {
  // The coordinator's inbound traffic must be fully explained by the
  // protocol's count vectors: per worker, one HelloAck plus one
  // CountResponse of 8 bytes per candidate per pass — nothing else, and in
  // particular never a row. Computed from the actual pass sizes, so this
  // asserts proportionality exactly.
  MechanismSpec spec;
  constexpr size_t kWorkers = 2;
  DistStats stats;
  const StatusOr<mining::AprioriResult> mined =
      MineInProcess(spec, kWorkers, &stats);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();

  uint64_t expected_received = 0;
  {
    HelloAck ack;
    expected_received += kWorkers * EncodeHelloAck(ack).WireSize();
  }
  for (const size_t candidates : mined->candidates_per_pass) {
    CountResponse response;
    response.counts.assign(candidates, 0);
    expected_received += kWorkers * EncodeCountResponse(response).WireSize();
  }
  EXPECT_EQ(stats.bytes_received, expected_received);

  // Scale check: the table is 50000 x 6 = 300000 cells, yet the whole mine
  // moved only count vectors.
  EXPECT_LT(stats.bytes_received,
            table_->num_rows() * table_->num_attributes() / 10);
  EXPECT_EQ(stats.num_workers, kWorkers);
  EXPECT_EQ(stats.total_rows, table_->num_rows());
  EXPECT_EQ(stats.responses_received, stats.requests_sent);
}

TEST_F(CoordinatorTest, SchemaFingerprintMismatchFailsHandshake) {
  // Worker holds CENSUS data; the coordinator asks for a HEALTH job. The
  // handshake must fail with the worker's fingerprint complaint, shipped
  // back as a remote Status.
  InProcessWorker worker(MakeWorkerOptions(*table_));
  std::vector<std::unique_ptr<Transport>> transports;
  transports.push_back(worker.TakeCoordinatorEndpoint());
  const StatusOr<std::unique_ptr<Coordinator>> coordinator =
      Coordinator::Connect(std::move(transports), data::health::Schema(),
                           MechanismSpec{}, table_->num_rows(), Options());
  ASSERT_FALSE(coordinator.ok());
  EXPECT_EQ(coordinator.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(coordinator.status().message().find("fingerprint"),
            std::string::npos);
}

TEST_F(CoordinatorTest, ProtocolV3HelloGetsAnErrorFrame) {
  // Protocol v4 retired the boolean pattern messages; a v3 coordinator's
  // Hello is answered with an Error frame naming the version mismatch,
  // never with a HelloAck.
  InProcessWorker worker(MakeWorkerOptions(*table_));
  std::unique_ptr<Transport> transport = worker.TakeCoordinatorEndpoint();
  HelloRequest hello;
  hello.protocol_version = 3;
  hello.schema_fingerprint = data::SchemaFingerprint(table_->schema());
  hello.perturb_seed = kSeed;
  hello.range_end = table_->num_rows();
  hello.spec.kind = MechanismSpec::Kind::kMask;
  ASSERT_TRUE(transport->Send(EncodeHello(hello)).ok());
  const StatusOr<Message> reply = transport->Receive();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, MessageType::kError);
  const Status refused = DecodeError(*reply);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.message().find("protocol version mismatch"),
            std::string::npos)
      << refused.ToString();
  EXPECT_EQ(worker.Join().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CoordinatorTest, RowCountMismatchFailsConnect) {
  // The coordinator believes there are more rows than the workers hold: a
  // silent undercount would skew every support, so Connect must refuse.
  InProcessWorker worker(MakeWorkerOptions(*table_));
  std::vector<std::unique_ptr<Transport>> transports;
  transports.push_back(worker.TakeCoordinatorEndpoint());
  const StatusOr<std::unique_ptr<Coordinator>> coordinator =
      Coordinator::Connect(std::move(transports), table_->schema(),
                           MechanismSpec{}, table_->num_rows() + 8192,
                           Options());
  ASSERT_FALSE(coordinator.ok());
  EXPECT_EQ(coordinator.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CoordinatorTest, EstimatorSlotsIntoApriori) {
  // The DistributedSupportEstimator is a plain mining::SupportEstimator:
  // drive MineFrequentItemsets with it directly (the seam the pipeline
  // uses) rather than through Coordinator::Mine.
  MechanismSpec spec;
  InProcessWorker worker(MakeWorkerOptions(*table_));
  std::vector<std::unique_ptr<Transport>> transports;
  transports.push_back(worker.TakeCoordinatorEndpoint());
  auto coordinator = *Coordinator::Connect(std::move(transports),
                                           table_->schema(), spec,
                                           table_->num_rows(), Options());
  auto estimator = *coordinator->MakeEstimator();
  const StatusOr<mining::AprioriResult> mined = mining::MineFrequentItemsets(
      table_->schema(), *estimator, MiningOptions());
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ExpectSameMiningResult(PipelineReference(spec), *mined);
}

}  // namespace
}  // namespace dist
}  // namespace frapp
