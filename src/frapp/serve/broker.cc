#include "frapp/serve/broker.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "frapp/data/schema.h"

namespace frapp {
namespace serve {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits;
}

ResultKey KeyOf(const QueryRequest& request, const std::string& source_id) {
  ResultKey key;
  key.source_id = source_id;
  key.schema_fingerprint = request.schema_fingerprint;
  key.spec_key = dist::CanonicalSpecKey(request.spec);
  key.perturb_seed = request.perturb_seed;
  key.supmin_bits = DoubleBits(request.min_support);
  return key;
}

/// The counting-problem key: everything in the result key EXCEPT supmin.
/// All supmin values of one problem share one count store (the retention
/// threshold is fixed at store creation and inherited by later runs).
std::string StoreKeyOf(const QueryRequest& request,
                       const std::string& source_id) {
  ResultKey key = KeyOf(request, source_id);
  key.supmin_bits = 0;
  return key.Canonical();
}

}  // namespace

QueryBroker::QueryBroker(BrokerOptions options)
    : options_(std::move(options)),
      schema_fingerprint_(data::SchemaFingerprint(options_.schema)),
      cache_(options_.cache_entries) {}

StatusOr<QueryResponse> QueryBroker::Execute(const QueryRequest& request) {
  const auto started = std::chrono::steady_clock::now();
  StatusOr<QueryResponse> response = Admit(request);
  if (!response.ok()) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.rejected;
    return response;
  }
  response->elapsed_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  response->server = Snapshot();
  return response;
}

StatusOr<QueryResponse> QueryBroker::Admit(const QueryRequest& request) {
  if (request.protocol_version != dist::kProtocolVersion) {
    return Status::InvalidArgument(
        "query protocol version mismatch: client " +
        std::to_string(request.protocol_version) + ", server " +
        std::to_string(dist::kProtocolVersion));
  }
  if (request.schema_fingerprint != schema_fingerprint_) {
    return Status::FailedPrecondition(
        "schema fingerprint mismatch: query " +
        std::to_string(request.schema_fingerprint) + ", served table " +
        std::to_string(schema_fingerprint_) +
        " (a cached result for the wrong schema must be unreachable)");
  }
  if (request.kind != QueryKind::kStats) {
    if (!(request.min_support > 0.0) || request.min_support > 1.0) {
      return Status::InvalidArgument("query min_support must be in (0, 1]");
    }
    if (request.min_confidence < 0.0) {
      return Status::InvalidArgument("query min_confidence must be >= 0");
    }
  }

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries;
  }

  QueryResponse response;
  response.kind = request.kind;
  if (request.kind == QueryKind::kStats) {
    // Counters only; outcome/result fields stay at their defaults.
    return response;
  }

  CacheOutcome outcome = CacheOutcome::kMiss;
  FRAPP_ASSIGN_OR_RETURN(std::shared_ptr<const CachedResult> cached,
                         MineOrAttach(request, &outcome));
  response.outcome = outcome;
  if (outcome == CacheOutcome::kMiss) {
    // This query executed the mine; replay its run stats. Hits and
    // coalesced queries executed nothing, so theirs stay zero.
    response.store_hits = cached->store_hits;
    response.store_misses = cached->store_misses;
    response.delta_chunks = cached->delta_chunks;
    response.tail_rows = cached->tail_rows;
  }

  switch (request.kind) {
    case QueryKind::kMine:
      response.result = cached->mined;
      break;
    case QueryKind::kTopK: {
      std::vector<mining::FrequentItemset> all;
      for (const auto& level : cached->mined.by_length) {
        all.insert(all.end(), level.begin(), level.end());
      }
      // Deterministic: support desc, itemset asc on ties — byte-stable
      // across runs and identical to re-sorting the full mined result.
      std::sort(all.begin(), all.end(),
                [](const mining::FrequentItemset& a,
                   const mining::FrequentItemset& b) {
                  if (a.support != b.support) return a.support > b.support;
                  return a.itemset < b.itemset;
                });
      if (request.top_k > 0 && all.size() > request.top_k) {
        all.resize(static_cast<size_t>(request.top_k));
      }
      response.top = std::move(all);
      break;
    }
    case QueryKind::kRules: {
      mining::RuleOptions rule_options;
      rule_options.min_confidence = request.min_confidence;
      FRAPP_ASSIGN_OR_RETURN(
          response.rules,
          mining::GenerateAssociationRules(cached->mined, rule_options));
      break;
    }
    case QueryKind::kStats:
      break;  // handled above
  }
  return response;
}

StatusOr<std::shared_ptr<const CachedResult>> QueryBroker::MineOrAttach(
    const QueryRequest& request, CacheOutcome* outcome) {
  const std::string key = KeyOf(request, options_.source_id).Canonical();

  // Fast path: already mined.
  if (std::shared_ptr<const CachedResult> hit = cache_.Find(key)) {
    *outcome = CacheOutcome::kHit;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.cache_hits;
    return hit;
  }

  std::shared_ptr<Inflight> inflight;
  bool runner = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      inflight = it->second;
    } else {
      // Re-check the cache under the in-flight lock: a run that completed
      // between the miss above and here has already erased its in-flight
      // entry, and waiting for nobody would deadlock.
      if (std::shared_ptr<const CachedResult> hit = cache_.Find(key)) {
        *outcome = CacheOutcome::kHit;
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.cache_hits;
        return hit;
      }
      inflight = std::make_shared<Inflight>();
      inflight_.emplace(key, inflight);
      runner = true;
    }
  }

  if (!runner) {
    // Coalesce: count the attachment BEFORE blocking, so observers (the
    // coalescing tests) can wait until all peers are parked.
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.coalesced;
    }
    std::unique_lock<std::mutex> lock(inflight->mutex);
    inflight->cv.wait(lock, [&] { return inflight->done; });
    if (!inflight->status.ok()) return inflight->status;
    *outcome = CacheOutcome::kCoalesced;
    return inflight->result;
  }

  // This query runs the mine; everyone arriving meanwhile attaches above.
  StatusOr<CachedResult> mined = RunMine(request);
  std::shared_ptr<const CachedResult> shared;
  if (mined.ok()) {
    shared = std::make_shared<const CachedResult>(*std::move(mined));
    cache_.Insert(key, shared);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.mine_runs;
    stats_.store_hits += shared->store_hits;
    stats_.store_misses += shared->store_misses;
  }
  {
    std::lock_guard<std::mutex> lock(inflight->mutex);
    inflight->done = true;
    inflight->status = mined.ok() ? Status::OK() : mined.status();
    inflight->result = shared;
  }
  inflight->cv.notify_all();
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.erase(key);
  }
  if (!mined.ok()) return mined.status();
  *outcome = CacheOutcome::kMiss;
  return shared;
}

StatusOr<CachedResult> QueryBroker::RunMine(const QueryRequest& request) {
  if (options_.source_factory == nullptr) {
    return Status::FailedPrecondition("broker has no source factory");
  }
  store::IncrementalOptions inc;
  inc.mining.min_support = request.min_support;
  inc.perturb_seed = request.perturb_seed;
  inc.num_threads = options_.num_threads;
  inc.superset_margin = options_.superset_margin;
  inc.source_id = options_.source_id;

  // One slot per counting problem; its mutex serializes runs (CountStore
  // mutation is single-threaded by contract). Distinct problems — other
  // specs, seeds, sources — mine concurrently.
  std::shared_ptr<StoreSlot> slot;
  {
    std::lock_guard<std::mutex> lock(stores_mutex_);
    std::shared_ptr<StoreSlot>& entry =
        stores_[StoreKeyOf(request, options_.source_id)];
    if (entry == nullptr) entry = std::make_shared<StoreSlot>();
    slot = entry;
  }
  std::lock_guard<std::mutex> lock(slot->mutex);
  if (!slot->store.has_value()) {
    // First mine of this problem fixes the retention threshold from ITS
    // supmin; later runs inherit it (AppendAndMine contract).
    slot->store.emplace(
        store::MakeStoreIdentity(request.spec, options_.schema, inc));
  }
  FRAPP_ASSIGN_OR_RETURN(
      store::IncrementalResult result,
      store::AppendAndMine(*slot->store, request.spec, options_.source_factory,
                           inc));
  CachedResult cached;
  cached.mined = std::move(result.mined);
  cached.store_hits = result.stats.store_hits;
  cached.store_misses = result.stats.store_misses;
  cached.delta_chunks = result.stats.delta_chunks;
  cached.tail_rows = result.stats.tail_rows;
  return cached;
}

BrokerStats QueryBroker::stats() const {
  BrokerStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out = stats_;
  }
  const ResultCache::Stats cache = cache_.stats();
  out.cache_entries = cache.entries;
  out.cache_evictions = cache.evictions;
  return out;
}

ServerStatsWire QueryBroker::Snapshot() const {
  const BrokerStats s = stats();
  ServerStatsWire wire;
  wire.queries = s.queries;
  wire.mine_runs = s.mine_runs;
  wire.cache_hits = s.cache_hits;
  wire.coalesced = s.coalesced;
  wire.store_hits = s.store_hits;
  wire.store_misses = s.store_misses;
  wire.cache_entries = s.cache_entries;
  wire.cache_evictions = s.cache_evictions;
  wire.rejected = s.rejected;
  return wire;
}

}  // namespace serve
}  // namespace frapp
