// Per-range index cache: a worker process remembers the shard indexes it
// built, keyed on everything that determines them, so a worker that is
// re-hired after a coordinator crash (or asked to serve the same job twice)
// skips the expensive ingest -> perturb -> index pass entirely.
//
// Safe because the pass is DETERMINISTIC: the shard indexes are a pure
// function of (source, schema fingerprint, mechanism spec, master seed,
// chunk-aligned row range) — the global seeded-chunk RNG streams guarantee
// it. The key concatenates exactly those inputs (floats by bit pattern, via
// CanonicalSpecKey), so a hit can never serve stale or mismatched counts.
// Sources without a stable identity (in-memory test tables) use an empty
// source id, which disables caching for them.
//
// The cache lives for the worker PROCESS and is shared across its serve
// sessions; entries are immutable once inserted. Lookup copies shards out
// (index types are plain vectors), so sessions never alias cache state.
// Memory is bounded: every insert charges the entry's approximate heap
// footprint against a byte budget, and the least-recently-used entries are
// evicted when it overflows — a worker reused across many jobs/seeds stays
// flat instead of growing without bound. An eviction only costs the next
// re-ingest of that range; it can never change results.

#ifndef FRAPP_DIST_INDEX_CACHE_H_
#define FRAPP_DIST_INDEX_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "frapp/core/mechanism.h"

namespace frapp {
namespace dist {

/// One cached ingest result: the per-shard indexes of one (job, range).
using CachedRangeIndex = core::ShardIndexes;

/// Thread-safe process-lifetime LRU cache with a byte budget. Keys come
/// from MakeIndexCacheKey.
class IndexCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t entries = 0;
    uint64_t evictions = 0;
    uint64_t bytes = 0;
  };

  /// Default byte budget: generous for one job's worth of ranges, small
  /// next to a mining fleet's working set.
  static constexpr size_t kDefaultMaxBytes = 256ull << 20;

  /// `max_bytes` bounds the summed MemoryBytes of resident entries; 0
  /// means unbounded (callers that manage lifetime themselves, tests).
  /// One entry is always retained even when it alone exceeds the budget —
  /// evicting the entry a session is about to hit would make the cache
  /// pure overhead.
  explicit IndexCache(size_t max_bytes = kDefaultMaxBytes)
      : max_bytes_(max_bytes) {}

  /// Copies the entry for `key` into *out, refreshes its recency, and
  /// returns true; counts a miss and returns false if absent.
  bool Lookup(const std::string& key, CachedRangeIndex* out);

  /// Inserts (first write wins — determinism makes duplicates identical)
  /// and evicts least-recently-used entries until under budget.
  void Insert(const std::string& key, CachedRangeIndex entry);

  Stats stats() const;

 private:
  struct Entry {
    CachedRangeIndex index;
    size_t bytes = 0;
    std::list<std::string>::iterator lru;  // position in lru_
  };

  const size_t max_bytes_;
  mutable std::mutex mu_;
  std::list<std::string> lru_;  // front = most recently used
  std::unordered_map<std::string, Entry> entries_;
  size_t bytes_ = 0;
  Stats stats_;
};

/// The full determinism key of one ingest pass. `source_id` is a stable
/// name for the row stream (file path, or a generator descriptor); empty
/// means "no stable identity" and callers must skip the cache.
std::string MakeIndexCacheKey(const std::string& source_id,
                              uint64_t schema_fingerprint,
                              const std::string& spec_key, uint64_t seed,
                              uint64_t range_begin, uint64_t range_end);

}  // namespace dist
}  // namespace frapp

#endif  // FRAPP_DIST_INDEX_CACHE_H_
