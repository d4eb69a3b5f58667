#include "frapp/store/incremental_mine.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "frapp/core/mechanism.h"
#include "frapp/data/shard_io.h"
#include "frapp/data/sharded_table.h"
#include "frapp/mining/count_source.h"
#include "frapp/mining/sharded_vertical_index.h"
#include "frapp/mining/vertical_index.h"
#include "frapp/pipeline/ingest_range.h"

namespace frapp {
namespace store {

namespace {

constexpr size_t kChunk = data::kShardAlignmentRows;

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Accumulated per-slice indexes of one perturbed row segment (expired,
/// delta, tail, or the fallback's stored range).
using Segment = core::ShardIndexes;

/// Reassembles the indexes of substrate chunks [chunk_begin, chunk_end)
/// into a countable segment — the zero-perturbation path that serves both
/// window expiry and superset-fallback recounts from the store itself.
Segment SegmentFromSubstrate(const CountStore& store, size_t chunk_begin,
                             size_t chunk_end,
                             const std::vector<size_t>& offsets) {
  Segment segment;
  for (size_t c = chunk_begin; c < chunk_end; ++c) {
    segment.shards.push_back(mining::VerticalIndex::FromRaw(
        kChunk, offsets, store.substrate()[c].words));
    segment.num_rows += kChunk;
  }
  return segment;
}

/// One segment's indexes, merged across its slices and ready to count.
struct CountableSegment {
  // Parallel counting only pays for itself on multi-chunk segments; a tail
  // or single-chunk delta counts faster on the calling thread than behind a
  // pool dispatch. Thread count never affects results, so the clamp is pure
  // scheduling.
  CountableSegment(Segment segment, size_t num_threads)
      : rows(segment.num_rows),
        threads(segment.num_rows < 2 * kChunk ? 1 : num_threads),
        index(mining::ShardedVerticalIndex::FromShards(
            std::move(segment.shards))) {}

  size_t rows;
  size_t threads;
  mining::ShardedVerticalIndex index;
};

/// The window's one count source: every Apriori pass asks it for its
/// itemsets' totals over rows [window_begin, total), in one batch. Each key
/// this run has not seen yet is merged exactly once:
///
///   base   = stored - expired (a store hit), or a recount of the stored
///            range from the substrate (a miss; zero when nothing is stored)
///   value  = base + delta     (what the run commits to the store)
///   answer = value + tail     (what the estimator gets)
///
/// The per-run memo of those entries serves every later query of the key
/// (the second lattice walk) and is the set of entries the run commits.
class WindowCountSource final : public mining::SupportCountSource {
 public:
  struct Parts {
    /// The store to merge against; null when the new window swallows it.
    const CountStore* store = nullptr;
    Segment expired;
    Segment delta;
    Segment tail;
    /// Rebuilds the stored range from the substrate for miss recounts; null
    /// when the window has no stored range.
    std::function<Segment()> stored_range;
  };

  WindowCountSource(Parts parts, size_t num_rows, size_t num_threads,
                    IncrementalStats& stats)
      : store_(parts.store),
        num_rows_(num_rows),
        num_threads_(num_threads),
        stats_(stats),
        expired_(std::move(parts.expired), num_threads),
        delta_(std::move(parts.delta), num_threads),
        tail_(std::move(parts.tail), num_threads),
        stored_range_(std::move(parts.stored_range)) {}

  size_t num_rows() const override { return num_rows_; }

  /// The one hit/miss/expiry/fallback merge.
  StatusOr<std::vector<uint64_t>> CountSupports(
      const std::vector<mining::Itemset>& itemsets) override {
    std::vector<MemoSlot*> batch(itemsets.size());
    std::vector<size_t> fresh;  // batch slots of keys first seen now
    for (size_t i = 0; i < itemsets.size(); ++i) {
      const auto [it, inserted] = memo_.try_emplace(KeyOfItemset(itemsets[i]));
      batch[i] = &*it;
      if (inserted) fresh.push_back(i);
    }

    std::vector<const int64_t*> stored(fresh.size(), nullptr);
    std::vector<size_t> hits;
    std::vector<size_t> misses;
    for (size_t j = 0; j < fresh.size(); ++j) {
      if (store_ != nullptr) stored[j] = store_->Find(batch[fresh[j]]->first);
      (stored[j] != nullptr ? hits : misses).push_back(fresh[j]);
    }
    stats_.store_hits += hits.size();
    stats_.store_misses += misses.size();

    // A miss starts from zero unless the window has a stored range, which
    // is recounted from the substrate: no perturbation, no source pass. It
    // is built on the first miss only.
    if (!misses.empty() && stored_range_ != nullptr) {
      if (!fallback_.has_value()) {
        fallback_.emplace(stored_range_(), num_threads_);
      }
      stats_.superset_fallbacks += misses.size();
    }
    const std::vector<size_t> delta = Count(&delta_, itemsets, fresh);
    const std::vector<size_t> tail = Count(&tail_, itemsets, fresh);
    const std::vector<size_t> expired = Count(&expired_, itemsets, hits);
    const std::vector<size_t> recounted =
        Count(fallback_ ? &*fallback_ : nullptr, itemsets, misses);

    // The count at position `at` of `counts`, or 0 when it stands for all
    // zeros (empty).
    const auto at = [](const std::vector<size_t>& counts, size_t i) {
      return counts.empty() ? int64_t{0} : static_cast<int64_t>(counts[i]);
    };
    size_t hit_at = 0;
    size_t miss_at = 0;
    for (size_t j = 0; j < fresh.size(); ++j) {
      Entry& entry = batch[fresh[j]]->second;
      entry.value = stored[j] != nullptr
                        ? *stored[j] - at(expired, hit_at++)
                        : at(recounted, miss_at++);
      entry.value += at(delta, j);
      entry.answer = entry.value + at(tail, j);
    }

    std::vector<uint64_t> totals(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      totals[i] = static_cast<uint64_t>(batch[i]->second.answer);
    }
    return totals;
  }

  /// Puts every entry counted this run (call once, after both walks).
  void CommitEntries(CountStore& store) {
    for (const auto& [key, entry] : memo_) store.Put(key, entry.value);
  }

 private:
  struct Entry {
    int64_t value = 0;
    int64_t answer = 0;
  };
  using MemoSlot = std::pair<const StoreKey, Entry>;

  /// The counts of itemsets[slots] on `segment`, in slot order. Empty,
  /// standing for all zeros, when there is nothing to count.
  static std::vector<size_t> Count(const CountableSegment* segment,
                                   const std::vector<mining::Itemset>& itemsets,
                                   const std::vector<size_t>& slots) {
    if (segment == nullptr || segment->rows == 0 || slots.empty()) return {};
    if (slots.size() == itemsets.size()) {  // the whole batch, in order
      return segment->index.CountSupports(itemsets, segment->threads);
    }
    std::vector<mining::Itemset> subset;
    subset.reserve(slots.size());
    for (size_t i : slots) subset.push_back(itemsets[i]);
    return segment->index.CountSupports(subset, segment->threads);
  }

  const CountStore* store_;
  size_t num_rows_;
  size_t num_threads_;
  IncrementalStats& stats_;
  CountableSegment expired_;
  CountableSegment delta_;
  CountableSegment tail_;
  std::function<Segment()> stored_range_;
  std::optional<CountableSegment> fallback_;
  std::unordered_map<StoreKey, Entry, StoreKeyHash> memo_;
};

}  // namespace

StoreIdentity MakeStoreIdentity(const dist::MechanismSpec& spec,
                                const data::CategoricalSchema& schema,
                                const IncrementalOptions& options) {
  StoreIdentity identity;
  identity.source_id = options.source_id;
  identity.schema_fingerprint = data::SchemaFingerprint(schema);
  identity.spec_key = dist::CanonicalSpecKey(spec);
  identity.perturb_seed = options.perturb_seed;
  identity.retention_bits = DoubleBits(options.mining.min_support *
                                       (1.0 - options.superset_margin));
  return identity;
}

StatusOr<CountStore> LoadOrCreateStore(const std::string& path,
                                       const StoreIdentity& identity,
                                       bool* created) {
  if (created != nullptr) *created = false;
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) {
      if (created != nullptr) *created = true;
      return CountStore(identity);
    }
  }
  FRAPP_ASSIGN_OR_RETURN(CountStore store, CountStore::LoadFromFile(path));
  StoreIdentity want = identity;
  want.retention_bits = store.identity().retention_bits;
  if (!(store.identity() == want)) {
    return Status::FailedPrecondition(
        "count store '" + path +
        "' was materialized for a different source, schema, mechanism, or "
        "seed; refusing to merge mismatched counts");
  }
  return store;
}

StatusOr<IncrementalResult> AppendAndMine(CountStore& store,
                                          const dist::MechanismSpec& spec,
                                          const SourceFactory& open_source,
                                          const IncrementalOptions& options) {
  const double supmin = options.mining.min_support;
  if (!(supmin > 0.0) || supmin > 1.0) {
    return Status::InvalidArgument("min_support must be in (0, 1]");
  }
  if (!(options.superset_margin >= 0.0) || options.superset_margin >= 1.0) {
    return Status::InvalidArgument("superset_margin must be in [0, 1)");
  }
  if (options.window_begin_row % kChunk != 0) {
    return Status::InvalidArgument(
        "window_begin_row must be a multiple of the chunk quantum (" +
        std::to_string(kChunk) + ")");
  }

  FRAPP_ASSIGN_OR_RETURN(std::unique_ptr<pipeline::TableSource> source,
                         open_source());
  if (source == nullptr) {
    return Status::InvalidArgument("source factory returned no source");
  }
  // By value, NOT by reference: the source is released right after ingest
  // to drop its table before the lattice walks, and a source that owns its
  // schema (generated in-memory tables, binary readers) takes the referent
  // with it — the walks would then size their candidate loops from freed
  // memory.
  const data::CategoricalSchema schema = source->schema();

  StoreIdentity want = MakeStoreIdentity(spec, schema, options);
  want.retention_bits = store.identity().retention_bits;
  if (!(store.identity() == want)) {
    return Status::FailedPrecondition(
        "count store identity does not match this source/mechanism/seed; "
        "refusing to merge mismatched counts");
  }
  const double retention = DoubleFromBits(store.identity().retention_bits);

  FRAPP_ASSIGN_OR_RETURN(std::unique_ptr<core::Mechanism> mech,
                         dist::MakeMechanism(spec, schema));

  const size_t new_win = options.window_begin_row;
  if (new_win < store.window_begin()) {
    return Status::FailedPrecondition(
        "window cannot move backwards: rows before " +
        std::to_string(store.window_begin()) + " have already expired");
  }
  // A window that swallows the whole stored range leaves nothing reusable:
  // ignore the store's entries and count the surviving window from scratch.
  const bool store_usable = store.high_water() > new_win;
  const size_t growth_begin =
      store_usable ? static_cast<size_t>(store.high_water()) : new_win;

  // Substrate plane arity of this schema; the item offsets rebuild chunk
  // indexes from raw planes.
  const std::vector<size_t> item_offsets =
      mining::VerticalIndex::ItemOffsets(schema);
  const uint64_t planes = schema.TotalCategories();

  // Everything a usable store serves without the source — expired chunks,
  // superset-fallback recounts — comes from its materialized substrate, so
  // a usable store without one (or with the wrong shape) is unusable.
  if (store_usable) {
    if (store.substrate_planes() != planes ||
        store.substrate().size() * kChunk !=
            store.high_water() - store.window_begin()) {
      return Status::FailedPrecondition(
          "count store lacks a substrate matching its window; it cannot "
          "serve expiry or fallback recounts");
    }
  }
  const size_t expired_chunk_count =
      store_usable ? (new_win - store.window_begin()) / kChunk : 0;

  IncrementalResult result;
  result.stats.store_created =
      store.high_water() == 0 && store.num_entries() == 0;

  // The growth is indexed ONE CHUNK PER INDEX: each whole-chunk index's raw
  // bitmap planes are a substrate chunk the store materializes. Only the
  // stream's last shard may end off the chunk grid (IngestRange enforces
  // it), so only the last index can be partial: that is the tail.
  const pipeline::IndexFn per_chunk = [&](const data::ShardView& shard,
                                          size_t num_threads,
                                          core::ShardIndexes& out) {
    const size_t end = shard.global_begin + shard.size();
    for (size_t c = shard.global_begin; c < end; c += kChunk) {
      FRAPP_RETURN_IF_ERROR(core::PerturbIntoIndex(
          *mech, shard.Slice(c, std::min(c + kChunk, end)),
          options.perturb_seed, num_threads, out));
    }
    return Status::OK();
  };
  FRAPP_ASSIGN_OR_RETURN(
      pipeline::IngestResult ingest,
      pipeline::IngestRange(*source, {growth_begin, pipeline::kOpenEnd},
                            options.num_threads, per_chunk));
  Segment& delta = ingest.indexes;
  Segment tail;
  tail.num_rows = delta.num_rows % kChunk;  // the growth begins aligned
  if (tail.num_rows > 0) {
    tail.shards.push_back(std::move(delta.shards.back()));
    delta.shards.pop_back();
    delta.num_rows -= tail.num_rows;
  }
  const size_t total = source->TotalRows().value_or(ingest.stats.end_row);
  source.reset();
  if (total < growth_begin) {
    return Status::FailedPrecondition(
        "source has " + std::to_string(total) +
        " rows, fewer than the store's high water " +
        std::to_string(growth_begin) + "; stores only support growth");
  }
  if (total < new_win) {
    return Status::FailedPrecondition("window begins past the source's end");
  }
  const size_t whole = total / kChunk * kChunk;  // >= new_win: both aligned
  const size_t new_hw = whole;

  result.stats.total_rows = total - new_win;
  result.stats.total_chunks = (total - new_win + kChunk - 1) / kChunk;
  result.stats.delta_chunks = (whole - growth_begin) / kChunk;
  result.stats.expired_chunks = expired_chunk_count;
  result.stats.tail_rows = total - whole;

  // The delta indexes ARE the new substrate chunks: capture their raw
  // planes before the counters consume them.
  std::vector<SubstrateChunk> delta_substrate;
  delta_substrate.reserve(delta.shards.size());
  for (const mining::VerticalIndex& index : delta.shards) {
    delta_substrate.push_back(SubstrateChunk{index.raw_bits()});
  }

  // Expiry and miss recounts read the store's own substrate; the stored
  // range is reassembled only if a candidate actually misses the store.
  WindowCountSource::Parts parts;
  parts.store = store_usable ? &store : nullptr;
  parts.expired =
      SegmentFromSubstrate(store, 0, expired_chunk_count, item_offsets);
  parts.delta = std::move(delta);
  parts.tail = std::move(tail);
  if (store_usable && growth_begin > new_win) {
    parts.stored_range = [&]() {
      return SegmentFromSubstrate(store, expired_chunk_count,
                                  store.substrate().size(), item_offsets);
    };
  }
  const auto counts = std::make_shared<WindowCountSource>(
      std::move(parts), total - new_win, options.num_threads, result.stats);
  FRAPP_ASSIGN_OR_RETURN(
      const std::unique_ptr<mining::SupportEstimator> estimator,
      mech->MakeCountSourceEstimator(counts));

  // Two runs of the one lattice walk over the same source. The walk at the
  // store's retention threshold decides what the next run finds stored; the
  // walk at supmin is the result. Candidate generation is monotone in its
  // input, so one walk's candidates contain the other's: when supmin >=
  // retention the second walk is served entirely from the memo, otherwise
  // it counts only the candidates the first walk never reached.
  mining::AprioriOptions retained = options.mining;
  retained.min_support = retention;
  FRAPP_RETURN_IF_ERROR(
      mining::MineFrequentItemsets(schema, *estimator, retained).status());
  FRAPP_ASSIGN_OR_RETURN(
      result.mined,
      mining::MineFrequentItemsets(schema, *estimator, options.mining));

  // Applied only after both walks succeed, so a failed run leaves the store
  // untouched.
  store.BeginRun();
  counts->CommitEntries(store);
  // Substrate bookkeeping mirrors the count algebra: expired chunks pop off
  // the front, delta chunks push on the back. A swallowed (unusable) store
  // drops every stale chunk it held.
  const size_t drop_leading =
      store_usable ? expired_chunk_count : store.substrate().size();
  store.UpdateSubstrate(planes, drop_leading, std::move(delta_substrate));
  store.Commit(new_win, new_hw);
  result.stats.stored_entries = store.num_entries();
  return result;
}

}  // namespace store
}  // namespace frapp
