#include "frapp/dist/index_cache.h"

#include <utility>

namespace frapp {
namespace dist {

bool IndexCache::Lookup(const std::string& key, CachedRangeIndex* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  *out = it->second.index;
  return true;
}

void IndexCache::Insert(const std::string& key, CachedRangeIndex entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(key) != 0) return;
  Entry stored;
  stored.bytes = entry.MemoryBytes();
  stored.index = std::move(entry);
  lru_.push_front(key);
  stored.lru = lru_.begin();
  bytes_ += stored.bytes;
  entries_.emplace(key, std::move(stored));
  // Evict oldest-first until under budget; the just-inserted entry sits at
  // the front and is the last candidate, so at least one entry survives
  // even when it alone overflows the budget.
  while (max_bytes_ != 0 && bytes_ > max_bytes_ && entries_.size() > 1) {
    const auto victim = entries_.find(lru_.back());
    bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

IndexCache::Stats IndexCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.entries = entries_.size();
  out.bytes = bytes_;
  return out;
}

std::string MakeIndexCacheKey(const std::string& source_id,
                              uint64_t schema_fingerprint,
                              const std::string& spec_key, uint64_t seed,
                              uint64_t range_begin, uint64_t range_end) {
  std::string key = source_id;
  key += "|fp=" + std::to_string(schema_fingerprint);
  key += "|" + spec_key;
  key += "|seed=" + std::to_string(seed);
  key += "|range=" + std::to_string(range_begin) + "-" +
         std::to_string(range_end);
  return key;
}

}  // namespace dist
}  // namespace frapp
