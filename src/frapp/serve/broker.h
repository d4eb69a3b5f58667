// Query admission, de-duplication, and execution: the single brain behind
// every `frapp serve` session.
//
// The broker owns three layers of reuse, cheapest first:
//
//   1. Result cache (serve/result_cache.h). A query whose exact key
//      (source, schema fingerprint, canonical spec, seed, supmin) was mined
//      before is answered without executing anything: CacheOutcome::kHit.
//   2. In-flight coalescing. Concurrent identical queries collapse into ONE
//      mine: the first requester executes, the rest block on the in-flight
//      entry and fan out its shared result — CacheOutcome::kCoalesced. N
//      identical concurrent mine queries cost exactly one pipeline run, and
//      every waiter receives the bit-identical result object.
//   3. Count store (store/incremental_mine.h). Each distinct perturbed
//      counting problem (source, schema, spec, seed — supmin excluded)
//      keeps one in-memory CountStore: the first mine materializes count
//      vectors and the perturbed substrate, and every later mine against
//      the same problem — a drifted supmin, a sub-supmin drill-down —
//      reuses them. With no data growth such a run perturbs NOTHING
//      (delta_chunks == 0, tail_rows == 0 when the table is chunk-aligned):
//      candidates below the retained superset are recounted from the stored
//      substrate planes. Every mechanism mines this way: IND-GD's
//      subset-domain cells are ordinary itemset counts to the store.
//
// Every path yields results bit-identical to a fresh
// pipeline::PrivacyPipeline::Run over the same spec — cache hits because
// they replay the stored result object, mine runs by the AppendAndMine
// contract. Top-k and rule queries derive from the same
// cached mined result (the supmin in their key is the mine they derive
// from), so they ride the identical reuse ladder.
//
// Thread contract: Execute is fully thread-safe and is called concurrently
// by every live session thread. Per-store mutexes serialize mines against
// the same counting problem (CountStore mutation is single-threaded by
// design); distinct problems mine in parallel.

#ifndef FRAPP_SERVE_BROKER_H_
#define FRAPP_SERVE_BROKER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "frapp/common/statusor.h"
#include "frapp/data/schema.h"
#include "frapp/serve/query_wire.h"
#include "frapp/serve/result_cache.h"
#include "frapp/store/incremental_mine.h"

namespace frapp {
namespace serve {

struct BrokerOptions {
  explicit BrokerOptions(data::CategoricalSchema schema_in)
      : schema(std::move(schema_in)) {}

  data::CategoricalSchema schema;

  /// Opens a fresh view of the served table; called once per actual mine
  /// run (never for cache hits or coalesced queries).
  store::SourceFactory source_factory;

  /// Stable identity of the served table (file path or generator
  /// descriptor) — part of every cache key and store identity.
  std::string source_id;

  /// Worker threads per mine run (0 = hardware concurrency). Never affects
  /// results.
  size_t num_threads = 1;

  /// Retained-superset slack of the backing count stores
  /// (store/incremental_mine.h); decides how far supmin can drop before
  /// sub-supmin queries cost substrate recounts (still zero
  /// re-perturbation).
  double superset_margin = 0.25;

  /// Result-cache bound (entries; 0 = unbounded).
  size_t cache_entries = 64;
};

/// Server-wide counters. Gauges (`cache_entries`) are point-in-time; the
/// rest are monotonic.
struct BrokerStats {
  uint64_t queries = 0;
  uint64_t mine_runs = 0;
  uint64_t cache_hits = 0;
  uint64_t coalesced = 0;
  uint64_t store_hits = 0;
  uint64_t store_misses = 0;
  uint64_t cache_entries = 0;
  uint64_t cache_evictions = 0;
  uint64_t rejected = 0;
};

class QueryBroker {
 public:
  explicit QueryBroker(BrokerOptions options);

  /// Admits and answers one query. Version/fingerprint/argument rejections
  /// return a Status (shipped to the client as an Error frame) and count in
  /// stats().rejected. kStats never mines.
  StatusOr<QueryResponse> Execute(const QueryRequest& request);

  BrokerStats stats() const;

  /// The served schema's fingerprint (what requests must present).
  uint64_t schema_fingerprint() const { return schema_fingerprint_; }

  const data::CategoricalSchema& schema() const { return options_.schema; }

 private:
  /// One mine being executed; waiters block on `cv` and share `result`.
  struct Inflight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    Status status = Status::OK();
    std::shared_ptr<const CachedResult> result;
  };

  /// One counting problem's store plus the mutex serializing its runs.
  struct StoreSlot {
    std::mutex mutex;
    std::optional<store::CountStore> store;
  };

  StatusOr<QueryResponse> Admit(const QueryRequest& request);
  StatusOr<std::shared_ptr<const CachedResult>> MineOrAttach(
      const QueryRequest& request, CacheOutcome* outcome);
  StatusOr<CachedResult> RunMine(const QueryRequest& request);
  ServerStatsWire Snapshot() const;

  const BrokerOptions options_;
  const uint64_t schema_fingerprint_;
  ResultCache cache_;

  mutable std::mutex stats_mutex_;
  BrokerStats stats_;

  std::mutex inflight_mutex_;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;

  std::mutex stores_mutex_;
  std::unordered_map<std::string, std::shared_ptr<StoreSlot>> stores_;
};

}  // namespace serve
}  // namespace frapp

#endif  // FRAPP_SERVE_BROKER_H_
