// Service-grade contract of the serve layer (broker + server):
//
//   - Every mine a broker answers is BIT-IDENTICAL to a from-scratch
//     pipeline::PrivacyPipeline run of the same spec, across all five
//     mechanisms.
//   - A repeated query is a cache hit: nothing executes, mine_runs stays
//     put, the result object is replayed bit-for-bit.
//   - N identical concurrent queries coalesce into ONE mine (stats-asserted
//     with the waiters provably parked before the run is released).
//   - A sub-supmin drill-down re-perturbs NOTHING, for every mechanism:
//     delta_chunks == 0, tail_rows == 0, answered from the count store's
//     materialized counts.
//   - Top-k and rule queries derive from the same cached mine.
//   - Graceful shutdown delivers the response of an in-flight query before
//     the connection dies.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "frapp/data/census.h"
#include "frapp/data/schema.h"
#include "frapp/data/sharded_table.h"
#include "frapp/mining/rules.h"
#include "frapp/pipeline/privacy_pipeline.h"
#include "frapp/serve/broker.h"
#include "frapp/serve/client.h"
#include "frapp/serve/query_wire.h"
#include "frapp/serve/server.h"

namespace frapp {
namespace serve {
namespace {

// Chunk-aligned on purpose (2 x kShardAlignmentRows): a store-backed
// re-mine of unchanged data then has no partial tail, so the zero
// re-perturbation claims (delta_chunks == 0 AND tail_rows == 0) are exact.
constexpr size_t kRows = 2 * data::kShardAlignmentRows;
constexpr uint64_t kGenSeed = 5;
constexpr uint64_t kPerturbSeed = 7;

void ExpectSameMining(const mining::AprioriResult& got,
                      const mining::AprioriResult& want) {
  ASSERT_EQ(got.candidates_per_pass, want.candidates_per_pass);
  ASSERT_EQ(got.by_length.size(), want.by_length.size());
  for (size_t k = 0; k < want.by_length.size(); ++k) {
    ASSERT_EQ(got.by_length[k].size(), want.by_length[k].size())
        << "length " << k + 1;
    for (size_t i = 0; i < want.by_length[k].size(); ++i) {
      ASSERT_TRUE(got.by_length[k][i].itemset == want.by_length[k][i].itemset)
          << "length " << k + 1 << " rank " << i;
      ASSERT_EQ(got.by_length[k][i].support, want.by_length[k][i].support)
          << "length " << k + 1 << " rank " << i;
    }
  }
}

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatusOr<data::CategoricalTable> t =
        data::census::MakeDataset(kRows, kGenSeed);
    ASSERT_TRUE(t.ok());
    table_ = new data::CategoricalTable(*std::move(t));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }

  static BrokerOptions MakeOptions() {
    BrokerOptions options(table_->schema());
    options.source_factory =
        []() -> StatusOr<std::unique_ptr<pipeline::TableSource>> {
      std::unique_ptr<pipeline::TableSource> src =
          std::make_unique<pipeline::InMemoryTableSource>(*table_, 0);
      return src;
    };
    options.source_id = "test:census";
    options.num_threads = 1;
    return options;
  }

  static QueryRequest MakeRequest(QueryKind kind = QueryKind::kMine) {
    QueryRequest request;
    request.kind = kind;
    request.schema_fingerprint = data::SchemaFingerprint(table_->schema());
    request.perturb_seed = kPerturbSeed;
    request.min_support = 0.02;
    return request;
  }

  /// From-scratch pipeline ground truth for `request`'s mine.
  static mining::AprioriResult Reference(const QueryRequest& request) {
    StatusOr<std::unique_ptr<core::Mechanism>> mech =
        dist::MakeMechanism(request.spec, table_->schema());
    EXPECT_TRUE(mech.ok());
    pipeline::PipelineOptions popts;
    popts.num_shards = 1;
    popts.num_threads = 1;
    popts.perturb_seed = request.perturb_seed;
    popts.mining.min_support = request.min_support;
    StatusOr<pipeline::PipelineResult> run =
        pipeline::PrivacyPipeline(popts).Run(**mech, *table_);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return run->mined;
  }

  static data::CategoricalTable* table_;
};

data::CategoricalTable* ServeTest::table_ = nullptr;

// ------------------------------------------------------------------ broker --

struct MechanismCase {
  const char* name;
  dist::MechanismSpec::Kind kind;
};

// Prints the case by name. The default printer dumps the struct's raw bytes,
// which hold a string address, so test names would change from build to build.
void PrintTo(const MechanismCase& c, std::ostream* os) { *os << c.name; }

class BrokerMechanismTest : public ServeTest,
                            public ::testing::WithParamInterface<MechanismCase> {
};

TEST_P(BrokerMechanismTest, MineMatchesPipelineBitwise) {
  QueryBroker broker(MakeOptions());
  QueryRequest request = MakeRequest();
  request.spec.kind = GetParam().kind;

  const StatusOr<QueryResponse> response = broker.Execute(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->outcome, CacheOutcome::kMiss);
  ExpectSameMining(response->result, Reference(request));
  EXPECT_EQ(broker.stats().mine_runs, 1u);
}

TEST_P(BrokerMechanismTest, SubSupminDrillDownPerturbsNothing) {
  QueryBroker broker(MakeOptions());
  QueryRequest request = MakeRequest();
  request.spec.kind = GetParam().kind;
  request.min_support = 0.02;
  ASSERT_TRUE(broker.Execute(request).ok());

  // Below the first mine's supmin: a different result key (kMiss), but the
  // same counting problem — answered from the store's materialized counts
  // and perturbed substrate with ZERO re-perturbation.
  request.min_support = 0.01;
  const StatusOr<QueryResponse> drill = broker.Execute(request);
  ASSERT_TRUE(drill.ok()) << drill.status().ToString();
  EXPECT_EQ(drill->outcome, CacheOutcome::kMiss);
  EXPECT_EQ(drill->delta_chunks, 0u);
  EXPECT_EQ(drill->tail_rows, 0u);
  EXPECT_GT(drill->store_hits, 0u);
  ExpectSameMining(drill->result, Reference(request));
  EXPECT_EQ(broker.stats().mine_runs, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, BrokerMechanismTest,
    ::testing::Values(
        MechanismCase{"det_gd", dist::MechanismSpec::Kind::kDetGd},
        MechanismCase{"ran_gd", dist::MechanismSpec::Kind::kRanGd},
        MechanismCase{"mask", dist::MechanismSpec::Kind::kMask},
        MechanismCase{"cut_paste", dist::MechanismSpec::Kind::kCutPaste},
        MechanismCase{"ind_gd", dist::MechanismSpec::Kind::kIndGd}),
    [](const ::testing::TestParamInfo<MechanismCase>& info) {
      return info.param.name;
    });

TEST_F(ServeTest, BrokerRepeatedQueryIsCacheHitWithIdenticalResult) {
  QueryBroker broker(MakeOptions());
  const QueryRequest request = MakeRequest();

  const StatusOr<QueryResponse> first = broker.Execute(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->outcome, CacheOutcome::kMiss);

  const StatusOr<QueryResponse> second = broker.Execute(request);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->outcome, CacheOutcome::kHit);
  // A hit executed nothing: the per-query run stats are zero by contract.
  EXPECT_EQ(second->store_hits, 0u);
  EXPECT_EQ(second->delta_chunks, 0u);
  ExpectSameMining(second->result, first->result);

  const BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.mine_runs, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST_F(ServeTest, BrokerCoalescesConcurrentIdenticalQueriesIntoOneMine) {
  constexpr size_t kClients = 8;

  // The factory gates the one real mine: it parks until the test has SEEN
  // all the other clients attach (stats().coalesced), proving they were
  // concurrent with — not after — the run they share.
  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
    std::atomic<int> factory_calls{0};
  };
  auto gate = std::make_shared<Gate>();

  BrokerOptions options = MakeOptions();
  options.source_factory =
      [gate]() -> StatusOr<std::unique_ptr<pipeline::TableSource>> {
    gate->factory_calls.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate->mutex);
    gate->cv.wait(lock, [&] { return gate->open; });
    std::unique_ptr<pipeline::TableSource> src =
        std::make_unique<pipeline::InMemoryTableSource>(*table_, 0);
    return src;
  };
  QueryBroker broker(options);
  const QueryRequest request = MakeRequest();

  std::vector<StatusOr<QueryResponse>> responses(
      kClients, Status::Internal("not run"));
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back(
        [&, i] { responses[i] = broker.Execute(request); });
  }

  // Wait until all peers are parked on the in-flight entry (counted BEFORE
  // they block) and exactly one run reached the gated factory.
  for (int spin = 0; broker.stats().coalesced < kClients - 1; ++spin) {
    ASSERT_LT(spin, 10000) << "coalesced peers never parked";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(gate->mutex);
    gate->open = true;
  }
  gate->cv.notify_all();
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(gate->factory_calls.load(), 1);
  size_t misses = 0, coalesced = 0;
  const QueryResponse* miss = nullptr;
  for (const StatusOr<QueryResponse>& response : responses) {
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response->outcome == CacheOutcome::kMiss) {
      ++misses;
      miss = &*response;
    } else {
      ASSERT_EQ(response->outcome, CacheOutcome::kCoalesced);
      ++coalesced;
    }
  }
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(coalesced, kClients - 1);
  ASSERT_NE(miss, nullptr);
  for (const StatusOr<QueryResponse>& response : responses) {
    ExpectSameMining(response->result, miss->result);
  }

  const BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.queries, kClients);
  EXPECT_EQ(stats.mine_runs, 1u);
  EXPECT_EQ(stats.coalesced, kClients - 1);
  ExpectSameMining(miss->result, Reference(request));
}

TEST_F(ServeTest, BrokerTopKDerivesFromCachedMine) {
  QueryBroker broker(MakeOptions());
  const QueryRequest mine = MakeRequest();
  const StatusOr<QueryResponse> mined = broker.Execute(mine);
  ASSERT_TRUE(mined.ok());

  QueryRequest topk = MakeRequest(QueryKind::kTopK);
  topk.top_k = 5;
  const StatusOr<QueryResponse> response = broker.Execute(topk);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // Same key as the mine: served from its cached result, no new run.
  EXPECT_EQ(response->outcome, CacheOutcome::kHit);
  EXPECT_EQ(broker.stats().mine_runs, 1u);

  // Re-derive the expectation from the mined result: support desc, itemset
  // asc on ties, truncated to k.
  std::vector<mining::FrequentItemset> all;
  for (const auto& level : mined->result.by_length) {
    all.insert(all.end(), level.begin(), level.end());
  }
  std::sort(all.begin(), all.end(),
            [](const mining::FrequentItemset& a,
               const mining::FrequentItemset& b) {
              if (a.support != b.support) return a.support > b.support;
              return a.itemset < b.itemset;
            });
  ASSERT_GE(all.size(), 5u);
  ASSERT_EQ(response->top.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(response->top[i].itemset == all[i].itemset) << "rank " << i;
    EXPECT_EQ(response->top[i].support, all[i].support) << "rank " << i;
  }
}

TEST_F(ServeTest, BrokerRulesMatchDirectGeneration) {
  QueryBroker broker(MakeOptions());
  const StatusOr<QueryResponse> mined = broker.Execute(MakeRequest());
  ASSERT_TRUE(mined.ok());

  QueryRequest rules = MakeRequest(QueryKind::kRules);
  rules.min_confidence = 0.5;
  const StatusOr<QueryResponse> response = broker.Execute(rules);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->outcome, CacheOutcome::kHit);
  EXPECT_EQ(broker.stats().mine_runs, 1u);

  mining::RuleOptions rule_options;
  rule_options.min_confidence = 0.5;
  StatusOr<std::vector<mining::AssociationRule>> want =
      mining::GenerateAssociationRules(mined->result, rule_options);
  ASSERT_TRUE(want.ok());
  ASSERT_FALSE(want->empty()) << "vacuous: census at supmin 0.02 must rule";
  ASSERT_EQ(response->rules.size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_TRUE(response->rules[i].antecedent == (*want)[i].antecedent);
    EXPECT_TRUE(response->rules[i].consequent == (*want)[i].consequent);
    EXPECT_EQ(response->rules[i].support, (*want)[i].support);
    EXPECT_EQ(response->rules[i].confidence, (*want)[i].confidence);
  }
}

TEST_F(ServeTest, BrokerBoundedCacheEvictsLeastRecentlyUsed) {
  BrokerOptions options = MakeOptions();
  options.cache_entries = 1;
  QueryBroker broker(options);

  QueryRequest request = MakeRequest();
  request.min_support = 0.02;
  ASSERT_TRUE(broker.Execute(request).ok());
  request.min_support = 0.03;  // evicts the 0.02 entry
  ASSERT_TRUE(broker.Execute(request).ok());

  request.min_support = 0.02;
  const StatusOr<QueryResponse> again = broker.Execute(request);
  ASSERT_TRUE(again.ok());
  // Evicted, so no cache hit — but the re-mine rides the count store:
  // nothing re-perturbed even though the result had to be rebuilt.
  EXPECT_EQ(again->outcome, CacheOutcome::kMiss);
  EXPECT_EQ(again->delta_chunks, 0u);
  EXPECT_EQ(again->tail_rows, 0u);

  const BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_GE(stats.cache_evictions, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST_F(ServeTest, BrokerRejectsMismatchesAndBadArguments) {
  QueryBroker broker(MakeOptions());

  QueryRequest wrong_version = MakeRequest();
  wrong_version.protocol_version = dist::kProtocolVersion + 1;
  StatusOr<QueryResponse> response = broker.Execute(wrong_version);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);

  QueryRequest wrong_fingerprint = MakeRequest();
  wrong_fingerprint.schema_fingerprint ^= 0xdeadbeef;
  response = broker.Execute(wrong_fingerprint);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);

  QueryRequest zero_supmin = MakeRequest();
  zero_supmin.min_support = 0.0;
  EXPECT_FALSE(broker.Execute(zero_supmin).ok());

  QueryRequest huge_supmin = MakeRequest();
  huge_supmin.min_support = 1.5;
  EXPECT_FALSE(broker.Execute(huge_supmin).ok());

  QueryRequest negative_confidence = MakeRequest(QueryKind::kRules);
  negative_confidence.min_confidence = -0.1;
  EXPECT_FALSE(broker.Execute(negative_confidence).ok());

  const BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.rejected, 5u);
  EXPECT_EQ(stats.queries, 0u);  // rejections are never admitted
  EXPECT_EQ(stats.mine_runs, 0u);
}

TEST_F(ServeTest, BrokerStatsQueryNeverMines) {
  QueryBroker broker(MakeOptions());
  const StatusOr<QueryResponse> response =
      broker.Execute(MakeRequest(QueryKind::kStats));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->server.queries, 1u);
  EXPECT_EQ(response->server.mine_runs, 0u);
  EXPECT_EQ(broker.stats().mine_runs, 0u);
}

// ------------------------------------------------------------------ server --

TEST_F(ServeTest, ServerAnswersQueriesOverTransport) {
  QueryBroker broker(MakeOptions());
  QueryServer server(&broker);
  auto [client_side, server_side] = dist::CreateInProcessTransportPair();
  server.AttachSession(std::move(server_side));
  QueryClient client(std::move(client_side));

  ASSERT_TRUE(client.Ping().ok());

  const StatusOr<QueryResponse> response = client.Query(MakeRequest());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->outcome, CacheOutcome::kMiss);
  ExpectSameMining(response->result, Reference(MakeRequest()));
  EXPECT_EQ(response->server.mine_runs, 1u);

  // A broker rejection crosses the wire as an Error frame and comes back
  // as the same Status the broker returned.
  QueryRequest bad = MakeRequest();
  bad.schema_fingerprint ^= 1;
  const StatusOr<QueryResponse> rejected = client.Query(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(broker.stats().rejected, 1u);

  client.Close();
  server.Shutdown();
  EXPECT_EQ(server.sessions(), 1u);
}

TEST_F(ServeTest, ServerGracefulShutdownDeliversInFlightResponse) {
  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    bool entered = false;
    bool open = false;
  };
  auto gate = std::make_shared<Gate>();

  BrokerOptions options = MakeOptions();
  options.source_factory =
      [gate]() -> StatusOr<std::unique_ptr<pipeline::TableSource>> {
    {
      std::unique_lock<std::mutex> lock(gate->mutex);
      gate->entered = true;
      gate->cv.notify_all();
      gate->cv.wait(lock, [&] { return gate->open; });
    }
    std::unique_ptr<pipeline::TableSource> src =
        std::make_unique<pipeline::InMemoryTableSource>(*table_, 0);
    return src;
  };
  QueryBroker broker(options);
  QueryServer server(&broker);
  auto [client_side, server_side] = dist::CreateInProcessTransportPair();
  server.AttachSession(std::move(server_side));
  QueryClient client(std::move(client_side));

  StatusOr<QueryResponse> response = Status::Internal("not run");
  std::thread querier([&] { response = client.Query(MakeRequest()); });

  // The query is provably in flight (its mine is parked in the factory)...
  {
    std::unique_lock<std::mutex> lock(gate->mutex);
    gate->cv.wait(lock, [&] { return gate->entered; });
  }
  // ...when shutdown begins. Release the mine only after Shutdown has
  // started waiting on the session's busy lock.
  std::thread stopper([&] { server.Shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(gate->mutex);
    gate->open = true;
  }
  gate->cv.notify_all();
  stopper.join();
  querier.join();

  // The in-flight query's response arrived intact despite the shutdown.
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ExpectSameMining(response->result, Reference(MakeRequest()));

  // After shutdown the server admits nothing new.
  auto [c2, s2] = dist::CreateInProcessTransportPair();
  server.AttachSession(std::move(s2));
  QueryClient late(std::move(c2));
  EXPECT_FALSE(late.Query(MakeRequest()).ok());
}

}  // namespace
}  // namespace serve
}  // namespace frapp
