// serve_zipf: three closed-loop QueryClient connections over TCP loopback to
// an in-process QueryServer/QueryBroker with a 64-entry result cache.
// Queries are Zipf over 5 mechanisms x 24 supmin values x {mine, topk,
// rules} (zipf.h): the 120 distinct mined results exceed the cache, so the
// LRU evicts and misses fall through to store-backed re-mines. The table is
// chunk-aligned (6 chunks of CENSUS), so those re-mines perturb nothing;
// IND-GD misses take the pipeline branch. Identical concurrent keys
// coalesce. The store's and serve's read path.
//
// The served data is perturbed under one fixed seed, as a deployed
// service's data is, and --seed drives the clients' query draws. A
// perturbation seed per --seed would move every run's lattices, and with
// them the cost of its misses and the size of its answers, together (see
// kPerturbSeeds); the key space is too small to cycle through seeds.
//
// The process runs on two CPUs (PinToCpus). A hit is two cross-thread
// hand-offs over loopback, and waking a thread on an idle vCPU costs what
// the host's load makes it cost. In eight interleaved pairs of 10 s runs,
// op p50 spread 0.09 and throughput 0.08 (quartile distance over median)
// on two CPUs; on all four, 0.27 and 0.13. On one CPU, hits queue behind
// misses and op p50 rose fivefold.

#include <algorithm>
#include <cstring>
#include <optional>
#include <thread>

#include "frapp/common/clock.h"
#include "frapp/data/census.h"
#include "frapp/data/shard_io.h"
#include "frapp/data/sharded_table.h"
#include "frapp/pipeline/privacy_pipeline.h"
#include "frapp/serve/broker.h"
#include "frapp/serve/client.h"
#include "frapp/serve/server.h"
#include "stats.h"
#include "workloads_common.h"
#include "zipf.h"

namespace perfbench {

namespace {

using frapp::Status;
using frapp::StatusOr;
using frapp::mining::AprioriResult;

constexpr size_t kRows = 6 * frapp::data::kShardAlignmentRows;
constexpr size_t kClients = 3;
constexpr double kZipfExponent = 1.0;
constexpr uint64_t kTopK = 10;
constexpr double kMinConfidence = 0.6;
constexpr uint64_t kPerturbSeed = 7;

/// The answers a query key may receive, derived from one fresh pipeline
/// mine exactly as the broker derives them from its cached result.
struct Reference {
  AprioriResult mined;
  std::vector<frapp::mining::FrequentItemset> top;
  std::vector<frapp::mining::AssociationRule> rules;
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameRules(const std::vector<frapp::mining::AssociationRule>& a,
               const std::vector<frapp::mining::AssociationRule>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].antecedent == b[i].antecedent) ||
        !(a[i].consequent == b[i].consequent) ||
        !SameBits(a[i].support, b[i].support) ||
        !SameBits(a[i].confidence, b[i].confidence)) {
      return false;
    }
  }
  return true;
}

/// Per-client tallies, merged after the loop.
struct ClientTally {
  uint64_t answers = 0;
  uint64_t hits = 0;
  uint64_t coalesced = 0;
  uint64_t store_backed = 0;
  uint64_t cold = 0;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
};

class ServeZipf : public Workload {
 public:
  explicit ServeZipf(const RunOptions& options)
      : seed_(options.seed),
        perturb_seed_(kPerturbSeed),
        tallies_(kClients) {
    PinToCpus(2, 2);  // see the file comment; every thread inherits it
    for (size_t c = 0; c < kClients; ++c) {
      generators_.emplace_back(kServeKeys, kZipfExponent, kServeOrderSeed,
                               DeriveSeed(options.seed, 3 + c));
    }
  }

  ~ServeZipf() override { Teardown(); }

  size_t clients() const override { return kClients; }

  Status Setup() override {
    FRAPP_ASSIGN_OR_RETURN(frapp::data::CategoricalTable table,
                           frapp::data::census::MakeDataset(kRows));
    table_.emplace(std::move(table));
    fingerprint_ = frapp::data::SchemaFingerprint(table_->schema());

    frapp::serve::BrokerOptions options(table_->schema());
    const frapp::data::CategoricalTable* rows = &*table_;
    options.source_factory =
        [rows]() -> StatusOr<std::unique_ptr<frapp::pipeline::TableSource>> {
      return std::unique_ptr<frapp::pipeline::TableSource>(
          std::make_unique<frapp::pipeline::InMemoryTableSource>(*rows, 0));
    };
    options.source_id = "perfbench:serve_zipf";
    options.num_threads = 1;
    options.cache_entries = kServeCacheEntries;
    broker_.emplace(std::move(options));
    server_.emplace(&*broker_);
    FRAPP_ASSIGN_OR_RETURN(frapp::dist::TcpListener listener,
                           frapp::dist::TcpListener::Bind("127.0.0.1", 0));
    listener_.emplace(std::move(listener));
    serve_thread_ = std::thread([this] { (void)server_->ServeLoop(*listener_); });
    for (size_t c = 0; c < kClients; ++c) {
      FRAPP_ASSIGN_OR_RETURN(
          std::unique_ptr<frapp::dist::Transport> transport,
          frapp::dist::TcpConnect("127.0.0.1", listener_->port()));
      clients_.push_back(
          std::make_unique<frapp::serve::QueryClient>(std::move(transport)));
    }
    // Warm: one mine per mechanism creates its count store.
    for (size_t m = 0; m < kServeMechanisms; ++m) {
      ServeQuery query;
      query.mechanism = m;
      FRAPP_RETURN_IF_ERROR(clients_[0]->Query(Request(query)).status());
    }
    return Status::OK();
  }

  void Teardown() override {
    if (broker_.has_value()) {
      const frapp::serve::BrokerStats stats = broker_->stats();
      queries_ += stats.queries;
      mine_runs_ += stats.mine_runs;
      evictions_ += stats.cache_evictions;
    }
    clients_.clear();
    if (listener_.has_value()) listener_->Close();
    if (serve_thread_.joinable()) serve_thread_.join();
    server_.reset();
    listener_.reset();
    broker_.reset();
    table_.reset();
  }

  StatusOr<Accuracy> Prepare() override {
    references_.resize(kServeResults);
    for (size_t s = 0; s < kServeSupmins; ++s) {
      for (size_t m = 0; m < kServeMechanisms; ++m) {
        ServeQuery query;
        query.mechanism = m;
        query.supmin = s;
        FRAPP_ASSIGN_OR_RETURN(references_[query.result()], MakeReference(query));
      }
    }
    // Accuracy of every mechanism at the paper's supmin (index 0).
    frapp::mining::AprioriOptions mining;
    mining.min_support = ServeSupmin(0);
    FRAPP_ASSIGN_OR_RETURN(AprioriResult truth,
                           frapp::mining::MineExact(*table_, mining));
    AccuracyMean accuracy;
    for (size_t m = 0; m < kServeMechanisms; ++m) {
      for (size_t i = 0; i < kAccuracySeeds / 4; ++i) {
        FRAPP_ASSIGN_OR_RETURN(
            AprioriResult mined,
            PipelineMine(m, 0, DeriveSeed(seed_, 100 + i)));
        accuracy.Add(truth, mined);
      }
    }
    return accuracy.Mean();
  }

  OpResult RunOp(size_t client, LayerSample* sample) override {
    const ServeQuery query = DecodeServeKey(generators_[client].Next());
    const frapp::serve::QueryRequest request = Request(query);
    const uint64_t start = frapp::common::NowNanos();
    StatusOr<frapp::serve::QueryResponse> response =
        clients_[client]->Query(request);
    OpResult op;
    op.latency_ms = MillisSince(start);
    if (!response.ok()) return op;

    const Reference& reference = references_[query.result()];
    switch (request.kind) {
      case frapp::serve::QueryKind::kMine:
        op.ok = SameMined(response->result, reference.mined);
        break;
      case frapp::serve::QueryKind::kTopK:
        op.ok = SameItemsets(response->top, reference.top);
        break;
      case frapp::serve::QueryKind::kRules:
        op.ok = SameRules(response->rules, reference.rules);
        break;
      case frapp::serve::QueryKind::kStats:
        break;
    }

    ClientTally& tally = tallies_[client];
    ++tally.answers;
    switch (response->outcome) {
      case frapp::serve::CacheOutcome::kHit:
        ++tally.hits;
        tally.hit_ms.push_back(op.latency_ms);
        break;
      case frapp::serve::CacheOutcome::kCoalesced:
        ++tally.coalesced;
        tally.miss_ms.push_back(op.latency_ms);
        break;
      case frapp::serve::CacheOutcome::kMiss:
        if (response->delta_chunks == 0 && response->tail_rows == 0) {
          ++tally.store_backed;
        } else {
          ++tally.cold;
        }
        tally.miss_ms.push_back(op.latency_ms);
        break;
    }
    if (sample != nullptr) {
      const double server_ms =
          static_cast<double>(response->elapsed_micros) / 1e3;
      (*sample)["serve.server_ms"] = server_ms;
      (*sample)["wire.rtt_ms"] = op.latency_ms - server_ms;
    }
    return op;
  }

  std::vector<std::string> AdditiveLayers() const override {
    return {"serve.server_ms", "wire.rtt_ms"};
  }

  void AddRunLayers(LayerSample* layers) const override {
    ClientTally all;
    for (const ClientTally& t : tallies_) {
      all.answers += t.answers;
      all.hits += t.hits;
      all.coalesced += t.coalesced;
      all.store_backed += t.store_backed;
      all.cold += t.cold;
      all.hit_ms.insert(all.hit_ms.end(), t.hit_ms.begin(), t.hit_ms.end());
      all.miss_ms.insert(all.miss_ms.end(), t.miss_ms.begin(), t.miss_ms.end());
    }
    const double answers = static_cast<double>(std::max<uint64_t>(all.answers, 1));
    const double queries = static_cast<double>(std::max<uint64_t>(queries_, 1));
    LayerSample& l = *layers;
    l["serve.cache_hit_ratio"] = static_cast<double>(all.hits) / answers;
    l["serve.coalesced_ratio"] = static_cast<double>(all.coalesced) / answers;
    l["serve.store_hit_ratio"] = static_cast<double>(all.store_backed) / answers;
    l["serve.cold_ratio"] = static_cast<double>(all.cold) / answers;
    l["serve.mine_runs"] = static_cast<double>(mine_runs_) / queries;
    l["serve.evictions"] = static_cast<double>(evictions_) / queries;
    l["serve.hit_p50_ms"] = Median(all.hit_ms);
    l["serve.miss_p50_ms"] = Median(all.miss_ms);
  }

 private:
  frapp::dist::MechanismSpec Spec(size_t mechanism) const {
    frapp::dist::MechanismSpec spec;
    spec.kind = static_cast<frapp::dist::MechanismSpec::Kind>(mechanism);
    if (spec.kind == frapp::dist::MechanismSpec::Kind::kRanGd) {
      // The paper's RAN-GD spread: alpha = gamma * x / 2.
      spec.alpha = 0.5 * spec.gamma /
                   (spec.gamma +
                    static_cast<double>(table_->schema().DomainSize()) - 1.0);
    }
    return spec;
  }

  frapp::serve::QueryRequest Request(const ServeQuery& query) const {
    frapp::serve::QueryRequest request;
    request.kind = static_cast<frapp::serve::QueryKind>(query.kind);
    request.schema_fingerprint = fingerprint_;
    request.spec = Spec(query.mechanism);
    request.perturb_seed = perturb_seed_;
    request.min_support = ServeSupmin(query.supmin);
    request.min_confidence = kMinConfidence;
    request.top_k = kTopK;
    return request;
  }

  StatusOr<AprioriResult> PipelineMine(size_t mechanism, size_t supmin,
                                       uint64_t perturb_seed) const {
    FRAPP_ASSIGN_OR_RETURN(
        std::unique_ptr<frapp::core::Mechanism> mech,
        frapp::dist::MakeMechanism(Spec(mechanism), table_->schema()));
    frapp::pipeline::PipelineOptions options;
    options.perturb_seed = perturb_seed;
    options.mining.min_support = ServeSupmin(supmin);
    FRAPP_ASSIGN_OR_RETURN(
        frapp::pipeline::PipelineResult result,
        frapp::pipeline::PrivacyPipeline(options).Run(*mech, *table_));
    return std::move(result.mined);
  }

  StatusOr<Reference> MakeReference(const ServeQuery& query) const {
    Reference reference;
    FRAPP_ASSIGN_OR_RETURN(
        reference.mined,
        PipelineMine(query.mechanism, query.supmin, perturb_seed_));
    for (const auto& level : reference.mined.by_length) {
      reference.top.insert(reference.top.end(), level.begin(), level.end());
    }
    std::sort(reference.top.begin(), reference.top.end(),
              [](const frapp::mining::FrequentItemset& a,
                 const frapp::mining::FrequentItemset& b) {
                if (a.support != b.support) return a.support > b.support;
                return a.itemset < b.itemset;
              });
    if (reference.top.size() > kTopK) reference.top.resize(kTopK);
    frapp::mining::RuleOptions rule_options;
    rule_options.min_confidence = kMinConfidence;
    FRAPP_ASSIGN_OR_RETURN(
        reference.rules,
        frapp::mining::GenerateAssociationRules(reference.mined, rule_options));
    return reference;
  }

  const uint64_t seed_;
  const uint64_t perturb_seed_;
  std::vector<ZipfGenerator> generators_;
  std::vector<ClientTally> tallies_;
  std::vector<Reference> references_;
  uint64_t queries_ = 0;
  uint64_t mine_runs_ = 0;
  uint64_t evictions_ = 0;

  std::optional<frapp::data::CategoricalTable> table_;
  uint64_t fingerprint_ = 0;
  std::optional<frapp::serve::QueryBroker> broker_;
  std::optional<frapp::serve::QueryServer> server_;
  std::optional<frapp::dist::TcpListener> listener_;
  std::thread serve_thread_;
  std::vector<std::unique_ptr<frapp::serve::QueryClient>> clients_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeZipf(const RunOptions& options) {
  return std::make_unique<ServeZipf>(options);
}

}  // namespace perfbench
