#include "frapp/store/incremental_mine.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "frapp/core/mechanism.h"
#include "frapp/data/boolean_vertical_index.h"
#include "frapp/data/pattern_count_source.h"
#include "frapp/data/shard_io.h"
#include "frapp/data/sharded_boolean_vertical_index.h"
#include "frapp/data/sharded_table.h"
#include "frapp/mining/count_source.h"
#include "frapp/mining/sharded_vertical_index.h"
#include "frapp/mining/vertical_index.h"

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

struct IngestOutput {
  Segment delta;
  Segment tail;
  /// Global end row of the last shard seen (0 when nothing was pulled).
  size_t observed_end = 0;
};

/// One forward pass over the source from growth_begin, splitting
/// [growth_begin, end-of-stream) at the last whole-chunk boundary into
/// delta and tail. The DELTA is perturbed and indexed ONE CHUNK PER SLICE:
/// each resulting index covers exactly kChunk rows, so its raw bitmap
/// planes are the substrate chunks the store materializes. The split point
/// is only known once the stream ends, so shards are processed with
/// one-shard lookahead: a shard is perturbed when its successor arrives
/// (then it is provably not final and ends chunk-aligned, per the
/// TableSource contract), and the final shard is split at
/// W = floor(total / chunk) * chunk.
StatusOr<IngestOutput> IngestGrowth(pipeline::TableSource& source,
                                    core::Mechanism& mech, uint64_t seed,
                                    size_t num_threads, size_t growth_begin) {
  IngestOutput out;
  FRAPP_RETURN_IF_ERROR(source.SkipToRow(growth_begin));

  const auto delta_chunks = [&](const data::ShardView& view, size_t glo,
                                size_t gend) -> Status {
    for (size_t c = glo; c < gend; c += kChunk) {
      FRAPP_RETURN_IF_ERROR(core::PerturbIntoIndex(
          mech, view.Slice(c, c + kChunk), seed, num_threads, out.delta));
    }
    return Status::OK();
  };

  const auto process = [&](const pipeline::PulledShard& shard,
                           bool is_final) -> Status {
    const size_t b = shard.view.global_begin;
    const size_t e = b + shard.view.size();
    const size_t glo = std::max(b, growth_begin);
    if (glo >= e) return Status::OK();
    if (!is_final) {
      // Non-final shards end chunk-aligned.
      return delta_chunks(shard.view, glo, e);
    }
    const size_t whole = e / kChunk * kChunk;  // >= glo: both aligned
    if (glo < whole) {
      FRAPP_RETURN_IF_ERROR(delta_chunks(shard.view, glo, whole));
    }
    if (whole < e) {
      FRAPP_RETURN_IF_ERROR(core::PerturbIntoIndex(
          mech, shard.view.Slice(std::max(glo, whole), e), seed, num_threads,
          out.tail));
    }
    return Status::OK();
  };

  std::optional<pipeline::PulledShard> prev;
  while (true) {
    pipeline::PulledShard cur;
    FRAPP_ASSIGN_OR_RETURN(const bool more, source.NextShard(&cur));
    if (!more) break;
    if (cur.view.size() == 0) continue;
    if (prev.has_value()) FRAPP_RETURN_IF_ERROR(process(*prev, false));
    prev = std::move(cur);
  }
  if (prev.has_value()) {
    FRAPP_RETURN_IF_ERROR(process(*prev, true));
    out.observed_end = prev->view.global_begin + prev->view.size();
  }
  return out;
}

/// Reassembles the indexes of substrate chunks [chunk_begin, chunk_end)
/// into a countable segment — the zero-perturbation path that serves both
/// window expiry and superset-fallback recounts from the store itself.
Segment SegmentFromSubstrate(const CountStore& store, size_t chunk_begin,
                             size_t chunk_end, bool boolean_shards,
                             const std::vector<size_t>& offsets,
                             size_t num_bits) {
  Segment segment;
  for (size_t c = chunk_begin; c < chunk_end; ++c) {
    const SubstrateChunk& chunk = store.substrate()[c];
    if (boolean_shards) {
      segment.boolean.push_back(
          data::BooleanVerticalIndex::FromRaw(kChunk, num_bits, chunk.words));
    } else {
      segment.categorical.push_back(
          mining::VerticalIndex::FromRaw(kChunk, offsets, chunk.words));
    }
    segment.num_rows += kChunk;
  }
  return segment;
}

/// Count oracle over one built segment. Empty segments answer all-zero
/// vectors without ever building an index.
class SegmentCounter {
 public:
  SegmentCounter() = default;
  // Parallel counting only pays for itself on multi-chunk segments; a tail
  // or single-chunk delta counts faster on the calling thread than behind a
  // pool dispatch. Thread count never affects results, so the clamp is pure
  // scheduling.
  SegmentCounter(Segment segment, bool boolean_shards, size_t num_threads)
      : rows_(segment.num_rows),
        num_threads_(segment.num_rows < 2 * kChunk ? 1 : num_threads) {
    if (rows_ == 0) return;
    if (boolean_shards) {
      bool_.emplace(data::ShardedBooleanVerticalIndex::FromShards(
          std::move(segment.boolean)));
    } else {
      cat_.emplace(
          mining::ShardedVerticalIndex::FromShards(
              std::move(segment.categorical)));
    }
  }

  size_t rows() const { return rows_; }

  /// Support-kind counting: one flat count per candidate, no per-candidate
  /// vectors — the hot path of the incremental walk.
  StatusOr<std::vector<int64_t>> CountFlat(
      const std::vector<mining::Itemset>& itemsets) const {
    if (!cat_.has_value()) {
      if (rows_ != 0) return Status::Internal("support count on boolean segment");
      return std::vector<int64_t>(itemsets.size(), 0);
    }
    const std::vector<size_t> counts =
        cat_->CountSupports(itemsets, num_threads_);
    std::vector<int64_t> out(counts.size());
    for (size_t i = 0; i < counts.size(); ++i) {
      out[i] = static_cast<int64_t>(counts[i]);
    }
    return out;
  }

  /// Boolean-kind counting: counts[i] is the 2^k PRE-Mobius superset vector
  /// of positions[i] (parallel to `itemsets`).
  StatusOr<std::vector<std::vector<int64_t>>> Count(
      const std::vector<mining::Itemset>& itemsets,
      const std::vector<std::vector<size_t>>& positions) const {
    std::vector<std::vector<int64_t>> out(itemsets.size());
    for (size_t i = 0; i < itemsets.size(); ++i) {
      const size_t k = positions[i].size();
      if (k > data::BooleanVerticalIndex::kMaxPatternLength) {
        return Status::InvalidArgument("pattern length above the 2^k cap");
      }
      out[i] = bool_.has_value()
                   ? bool_->SupersetCounts(positions[i], num_threads_)
                   : std::vector<int64_t>(size_t{1} << k, 0);
    }
    return out;
  }

 private:
  std::optional<mining::ShardedVerticalIndex> cat_;
  std::optional<data::ShardedBooleanVerticalIndex> bool_;
  size_t rows_ = 0;
  size_t num_threads_ = 1;
};

/// SupportCountSource answering the walker's ONE batched query per pass.
/// The gamma estimators (DET-GD, RAN-GD) pass the candidate vector through
/// to CountSupports by reference, so the source recognizes the pass batch
/// by pointer identity and serves the precomputed merged totals with zero
/// per-candidate key hashing. An estimator that probes anything else (e.g.
/// IND-GD's full subset-domain histograms) is asking for counts no store
/// materializes — a loud error, never a silent zero.
class BatchSupportCountSource : public mining::SupportCountSource {
 public:
  explicit BatchSupportCountSource(size_t num_rows) : num_rows_(num_rows) {}

  void SetBatch(const std::vector<mining::Itemset>* batch,
                std::vector<uint64_t> totals) {
    batch_ = batch;
    totals_ = std::move(totals);
  }

  size_t num_rows() const override { return num_rows_; }

  StatusOr<std::vector<uint64_t>> CountSupports(
      const std::vector<mining::Itemset>& itemsets) override {
    if (&itemsets != batch_) {
      return Status::Internal(
          "estimator queried outside the incremental pass batch");
    }
    return totals_;
  }

 private:
  size_t num_rows_;
  const std::vector<mining::Itemset>* batch_ = nullptr;
  std::vector<uint64_t> totals_;
};

/// PatternCountSource answering from per-pass merged PRE-Mobius superset
/// totals, applying the Mobius transform per query — exactly how the local
/// index and the dist coordinator derive exact-pattern counts, so the
/// integers reaching the boolean estimators are identical.
class MapPatternCountSource : public data::PatternCountSource {
 public:
  MapPatternCountSource(size_t num_rows, size_t num_bits)
      : num_rows_(num_rows), num_bits_(num_bits) {}

  void Clear() { superset_counts_.clear(); }
  void Set(const StoreKey& key, std::vector<int64_t> counts) {
    superset_counts_[key] = std::move(counts);
  }

  size_t num_rows() const override { return num_rows_; }
  size_t num_bits() const override { return num_bits_; }

  StatusOr<std::vector<int64_t>> PatternCounts(
      const std::vector<size_t>& positions) override {
    const auto it = superset_counts_.find(KeyOfPositions(positions));
    if (it == superset_counts_.end()) {
      return Status::Internal(
          "incremental walker queried an unmaterialized candidate");
    }
    std::vector<int64_t> counts = it->second;
    data::BooleanVerticalIndex::MobiusExactCounts(counts);
    return counts;
  }

 private:
  size_t num_rows_;
  size_t num_bits_;
  std::unordered_map<StoreKey, std::vector<int64_t>, StoreKeyHash>
      superset_counts_;
};

void AddInto(std::vector<int64_t>& acc, const std::vector<int64_t>& v) {
  for (size_t i = 0; i < acc.size(); ++i) acc[i] += v[i];
}

void SubFrom(std::vector<int64_t>& acc, const std::vector<int64_t>& v) {
  for (size_t i = 0; i < acc.size(); ++i) acc[i] -= v[i];
}

}  // namespace

StoreIdentity MakeStoreIdentity(const dist::MechanismSpec& spec,
                                const data::CategoricalSchema& schema,
                                const IncrementalOptions& options) {
  const bool boolean = spec.kind == dist::MechanismSpec::Kind::kMask ||
                       spec.kind == dist::MechanismSpec::Kind::kCutPaste;
  StoreIdentity identity;
  identity.source_id = options.source_id;
  identity.schema_fingerprint = data::SchemaFingerprint(schema);
  identity.spec_key = dist::CanonicalSpecKey(spec);
  identity.perturb_seed = options.perturb_seed;
  identity.retention_bits = DoubleBits(options.mining.min_support *
                                       (1.0 - options.superset_margin));
  identity.kind = boolean ? CountKind::kBooleanSuperset : CountKind::kSupport;
  identity.num_bits = boolean ? data::BooleanLayout(schema).num_bits() : 0;
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
  // (line ~450) to drop its table before the walk, and a source that owns
  // its schema (generated in-memory tables, binary readers) takes the
  // referent with it — the walk would then size its candidate loops from
  // freed memory.
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
  const bool boolean =
      mech->shard_kind() == core::Mechanism::ShardKind::kBoolean;

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

  // Substrate plane arity of this schema/kind; the item offsets rebuild
  // categorical chunk indexes from raw planes.
  const std::vector<size_t> item_offsets =
      mining::VerticalIndex::ItemOffsets(schema);
  const uint64_t planes =
      boolean ? want.num_bits : schema.TotalCategories();

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

  FRAPP_ASSIGN_OR_RETURN(
      IngestOutput ingest,
      IngestGrowth(*source, *mech, options.perturb_seed, options.num_threads,
                   growth_begin));
  const size_t total = source->TotalRows().value_or(
      std::max(ingest.observed_end, growth_begin));
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
  delta_substrate.reserve(ingest.delta.categorical.size() +
                          ingest.delta.boolean.size());
  for (const mining::VerticalIndex& index : ingest.delta.categorical) {
    delta_substrate.push_back(SubstrateChunk{index.raw_bits()});
  }
  for (const data::BooleanVerticalIndex& index : ingest.delta.boolean) {
    delta_substrate.push_back(SubstrateChunk{index.raw_bits()});
  }

  const SegmentCounter expired_counter(
      SegmentFromSubstrate(store, 0, expired_chunk_count, boolean,
                           item_offsets, planes),
      boolean, options.num_threads);
  const SegmentCounter delta_counter(std::move(ingest.delta), boolean,
                                     options.num_threads);
  const SegmentCounter tail_counter(std::move(ingest.tail), boolean,
                                    options.num_threads);
  // The stored-range recount for superset fallbacks, reassembled from the
  // live substrate chunks only if a candidate actually misses the store.
  // No perturbation, no source pass: the store already holds the perturbed
  // bits.
  std::optional<SegmentCounter> fallback_counter;
  const auto ensure_fallback = [&]() -> Status {
    if (fallback_counter.has_value()) return Status::OK();
    fallback_counter.emplace(
        SegmentFromSubstrate(store, expired_chunk_count,
                             store.substrate().size(), boolean, item_offsets,
                             planes),
        boolean, options.num_threads);
    return Status::OK();
  };

  // The estimator consumes merged totals through a per-pass source: the
  // support kind hands the batch straight through (pointer identity, no
  // keying), the boolean kind keys pre-Mobius superset vectors by pattern.
  const size_t window_rows = total - new_win;
  std::optional<data::BooleanLayout> layout;
  std::shared_ptr<BatchSupportCountSource> support_source;
  std::shared_ptr<MapPatternCountSource> pattern_map;
  std::unique_ptr<mining::SupportEstimator> estimator;
  if (boolean) {
    layout.emplace(schema);
    pattern_map =
        std::make_shared<MapPatternCountSource>(window_rows, layout->num_bits());
    FRAPP_ASSIGN_OR_RETURN(estimator,
                           mech->MakeBooleanCountSourceEstimator(pattern_map));
  } else {
    support_source = std::make_shared<BatchSupportCountSource>(window_rows);
    FRAPP_ASSIGN_OR_RETURN(estimator,
                           mech->MakeCountSourceEstimator(support_source));
  }

  // ------------------------------------------------------------ the walk --
  //
  // Two interleaved Apriori walks over shared counts. The STRICT walk
  // mirrors mining::MineFrequentItemsets at supmin step for step (same
  // candidate generation code, same filter, same sort, same exit rules) and
  // produces the result. The RETAINED walk runs at the store's retention
  // threshold and decides what stays materialized for the next run. Each
  // pass evaluates the union of both candidate lists, so the strict walk is
  // never starved even when supmin has drifted below retention.
  const size_t max_length =
      options.mining.max_length == 0
          ? schema.num_attributes()
          : std::min(options.mining.max_length, schema.num_attributes());

  std::vector<mining::Itemset> strict_candidates;
  for (size_t j = 0; j < schema.num_attributes(); ++j) {
    for (size_t c = 0; c < schema.Cardinality(j); ++c) {
      strict_candidates.push_back(mining::Itemset::FromSortedUnchecked(
          {mining::Item{static_cast<uint16_t>(j), static_cast<uint16_t>(c)}}));
    }
  }
  std::vector<mining::Itemset> retained_candidates = strict_candidates;
  bool strict_open = true;

  // Merged vectors destined for the store, applied only after the whole
  // walk succeeds so a failed run leaves the store untouched. The support
  // kind stores one scalar per candidate; keeping it flat avoids a heap
  // vector per candidate per pass on the hot path.
  std::vector<std::pair<StoreKey, std::vector<int64_t>>> pending;
  std::vector<std::pair<StoreKey, int64_t>> pending_support;

  for (size_t k = 1; k <= max_length; ++k) {
    std::vector<mining::Itemset> unioned;
    // Dedup map doubling as the strict walk's index into `unioned` (and
    // into the pass's support vector).
    std::unordered_map<mining::Itemset, size_t, mining::Itemset::Hash> slot;
    slot.reserve((retained_candidates.size() + strict_candidates.size()) * 2);
    for (const mining::Itemset& s : retained_candidates) {
      if (slot.emplace(s, unioned.size()).second) unioned.push_back(s);
    }
    if (strict_open) {
      for (const mining::Itemset& c : strict_candidates) {
        if (slot.emplace(c, unioned.size()).second) unioned.push_back(c);
      }
    }
    if (unioned.empty()) break;
    const size_t n = unioned.size();

    std::vector<StoreKey> keys(n);
    std::vector<const std::vector<int64_t>*> stored(n, nullptr);
    std::vector<size_t> hits;
    std::vector<size_t> misses;

    if (!boolean) {
      // ---- support kind: flat counts end to end, no per-candidate heap
      // vectors.
      for (size_t i = 0; i < n; ++i) keys[i] = KeyOfItemset(unioned[i]);
      FRAPP_ASSIGN_OR_RETURN(const std::vector<int64_t> delta_flat,
                             delta_counter.CountFlat(unioned));
      FRAPP_ASSIGN_OR_RETURN(const std::vector<int64_t> tail_flat,
                             tail_counter.CountFlat(unioned));
      for (size_t i = 0; i < n; ++i) {
        stored[i] = store_usable ? store.Find(keys[i]) : nullptr;
        if (stored[i] != nullptr && stored[i]->size() != 1) {
          return Status::Internal("stored count vector has the wrong arity");
        }
        (stored[i] != nullptr ? hits : misses).push_back(i);
      }
      std::vector<int64_t> expired_flat;
      if (!hits.empty() && expired_counter.rows() > 0) {
        std::vector<mining::Itemset> sub_items;
        sub_items.reserve(hits.size());
        for (size_t i : hits) sub_items.push_back(unioned[i]);
        FRAPP_ASSIGN_OR_RETURN(expired_flat,
                               expired_counter.CountFlat(sub_items));
      }
      std::vector<int64_t> fallback_flat;
      if (!misses.empty() && store_usable && growth_begin > new_win) {
        FRAPP_RETURN_IF_ERROR(ensure_fallback());
        std::vector<mining::Itemset> sub_items;
        sub_items.reserve(misses.size());
        for (size_t i : misses) sub_items.push_back(unioned[i]);
        FRAPP_ASSIGN_OR_RETURN(fallback_flat,
                               fallback_counter->CountFlat(sub_items));
        result.stats.superset_fallbacks += misses.size();
      }
      std::vector<uint64_t> totals(n);
      size_t hi = 0;
      size_t mi = 0;
      for (size_t i = 0; i < n; ++i) {
        int64_t base;
        if (stored[i] != nullptr) {
          base = (*stored[i])[0];
          if (!expired_flat.empty()) base -= expired_flat[hi];
          ++hi;
        } else {
          base = fallback_flat.empty() ? 0 : fallback_flat[mi];
          ++mi;
        }
        base += delta_flat[i];
        pending_support.emplace_back(keys[i], base);
        totals[i] = static_cast<uint64_t>(base + tail_flat[i]);
      }
      support_source->SetBatch(&unioned, std::move(totals));
    } else {
      // ---- boolean kind: 2^k pre-Mobius superset vectors per candidate.
      std::vector<std::vector<size_t>> positions(n);
      for (size_t i = 0; i < n; ++i) {
        const std::vector<mining::Item>& items = unioned[i].items();
        positions[i].reserve(items.size());
        for (const mining::Item& item : items) {
          positions[i].push_back(
              layout->BitPosition(item.attribute, item.category));
        }
        keys[i] = KeyOfPositions(positions[i]);
      }

      FRAPP_ASSIGN_OR_RETURN(std::vector<std::vector<int64_t>> delta_counts,
                             delta_counter.Count(unioned, positions));
      FRAPP_ASSIGN_OR_RETURN(std::vector<std::vector<int64_t>> tail_counts,
                             tail_counter.Count(unioned, positions));

      for (size_t i = 0; i < n; ++i) {
        stored[i] = store_usable ? store.Find(keys[i]) : nullptr;
        if (stored[i] != nullptr &&
            stored[i]->size() != delta_counts[i].size()) {
          return Status::Internal("stored count vector has the wrong arity");
        }
        (stored[i] != nullptr ? hits : misses).push_back(i);
      }

      std::vector<std::vector<int64_t>> expired_counts;
      if (!hits.empty() && expired_counter.rows() > 0) {
        std::vector<mining::Itemset> sub_items;
        std::vector<std::vector<size_t>> sub_positions;
        for (size_t i : hits) {
          sub_items.push_back(unioned[i]);
          sub_positions.push_back(positions[i]);
        }
        FRAPP_ASSIGN_OR_RETURN(expired_counts,
                               expired_counter.Count(sub_items, sub_positions));
      }
      std::vector<std::vector<int64_t>> fallback_counts;
      if (!misses.empty() && store_usable && growth_begin > new_win) {
        FRAPP_RETURN_IF_ERROR(ensure_fallback());
        std::vector<mining::Itemset> sub_items;
        std::vector<std::vector<size_t>> sub_positions;
        for (size_t i : misses) {
          sub_items.push_back(unioned[i]);
          sub_positions.push_back(positions[i]);
        }
        FRAPP_ASSIGN_OR_RETURN(fallback_counts, fallback_counter->Count(
                                                    sub_items, sub_positions));
        result.stats.superset_fallbacks += misses.size();
      }

      pattern_map->Clear();
      size_t hi = 0;
      size_t mi = 0;
      for (size_t i = 0; i < n; ++i) {
        std::vector<int64_t> merged;
        if (stored[i] != nullptr) {
          merged = *stored[i];
          if (!expired_counts.empty()) SubFrom(merged, expired_counts[hi]);
          ++hi;
        } else {
          merged = fallback_counts.empty()
                       ? std::vector<int64_t>(delta_counts[i].size(), 0)
                       : fallback_counts[mi];
          ++mi;
        }
        AddInto(merged, delta_counts[i]);
        std::vector<int64_t> query = merged;
        AddInto(query, tail_counts[i]);
        pending.emplace_back(keys[i], std::move(merged));
        pattern_map->Set(keys[i], std::move(query));
      }
    }
    result.stats.store_hits += hits.size();
    result.stats.store_misses += misses.size();

    FRAPP_ASSIGN_OR_RETURN(const std::vector<double> supports,
                           estimator->EstimateSupports(unioned));

    // Strict walk: the exact MineFrequentItemsets pass, on the same support
    // doubles the from-scratch estimator would produce.
    if (strict_open && !strict_candidates.empty()) {
      result.mined.candidates_per_pass.push_back(strict_candidates.size());
      std::vector<mining::FrequentItemset> frequent;
      for (const mining::Itemset& c : strict_candidates) {
        const double s = supports[slot.at(c)];
        if (s >= supmin) frequent.push_back(mining::FrequentItemset{c, s});
      }
      std::sort(frequent.begin(), frequent.end(),
                [](const mining::FrequentItemset& a,
                   const mining::FrequentItemset& b) {
                  return a.itemset < b.itemset;
                });
      result.mined.by_length.push_back(std::move(frequent));
      const std::vector<mining::FrequentItemset>& level =
          result.mined.by_length.back();
      if (level.empty() || k == max_length) {
        strict_open = false;
        strict_candidates.clear();
      } else {
        strict_candidates = mining::GenerateCandidates(level);
      }
    } else {
      strict_open = false;
      strict_candidates.clear();
    }

    // Retained walk: same machinery at the retention threshold, deciding
    // the next pass's materialized superset. Estimated supports jitter as
    // rows are appended, so borderline candidates flicker across the bar
    // between runs and miss the store on reappearance — that is fine: a
    // miss is a cheap substrate recount, while every extra retained entry
    // is walk work on EVERY future run. A single threshold keeps the
    // superset (and the per-pass union) as small as the margin allows.
    std::vector<mining::FrequentItemset> retained;
    for (size_t i = 0; i < n; ++i) {
      if (supports[i] >= retention) {
        retained.push_back(mining::FrequentItemset{unioned[i], supports[i]});
      }
    }
    std::sort(retained.begin(), retained.end(),
              [](const mining::FrequentItemset& a,
                 const mining::FrequentItemset& b) {
                return a.itemset < b.itemset;
              });
    if (retained.empty() || k == max_length) {
      retained_candidates.clear();
    } else {
      retained_candidates = mining::GenerateCandidates(retained);
    }
  }

  store.BeginRun();
  for (auto& [key, counts] : pending) store.Put(key, std::move(counts));
  for (const auto& [key, count] : pending_support) store.Put(key, {count});
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
