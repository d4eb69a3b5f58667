// Incremental append-only mining: data growth as a pure delta.
//
// A from-scratch privacy-preserving mine costs perturb + index + count over
// EVERY row, every time. But under the seeded-chunk contract the perturbed
// database is a pure function of (chunk index, global seed), and support
// counts are linear over row partitions — so when a table has only GROWN
// since the last mine, all previously counted rows contribute exactly the
// counts they contributed before. AppendAndMine exploits that: it keeps
// per-itemset counts for rows [window_begin, high_water) materialized in a
// CountStore, perturbs and counts only the newly appended chunks (and the
// partial tail chunk, which is never stored), adds, and re-runs only the
// cheap lattice walk — the same
// mining::MineFrequentItemsets every engine ends in, fed by one window
// count source instead of a full index. The mined result is BIT-IDENTICAL
// to PrivacyPipeline::Run over the full window — the counts reaching the
// reconstruction estimators are the same integers, so every double
// downstream is the same double.
//
// WHAT is materialized: two complementary layers.
//
//  1. COUNTS of a candidate SUPERSET. Each run walks the lattice twice over
//     its window count source: first at a retention threshold fixed at store
//     creation (min_support times (1 - superset_margin)), then at supmin,
//     which gives the result. The source merges each key once per run and
//     commits every key either walk counted, so a later run whose supmin
//     drifts anywhere above retention finds every candidate it evaluates
//     already materialized. Keys are whatever itemsets the estimator asks
//     for: candidate itemsets, the sub-itemsets MASK and C&P fold into
//     pattern counts, or IND-GD's subset-domain cells.
//  2. The perturbed SUBSTRATE itself — the per-chunk bitmap-index planes of
//     the perturbed rows [window_begin, high_water). Under the seeded-chunk
//     contract these bits are immutable once written, so append pushes new
//     chunk planes and expiry pops old ones.
//
// The substrate is what keeps store MISSES cheap. Estimated supports jitter
// as rows are appended (gamma-diagonal inversion over the joint domain
// amplifies count noise), so candidates flicker in and out of the retained
// superset between runs no matter where the thresholds sit. A candidate the
// store has no counts for is recounted by SIMD scans over the STORED
// planes — no re-perturbation, no second pass over the source — and the
// event is recorded in IncrementalStats::superset_fallbacks: degraded only
// by a bitmap scan, never a wrong or failed mine, and the source is read
// exactly once per run regardless.
//
// Windowed / decayed streams are the same algebra with a subtraction:
// raising window_begin_row expires whole chunks, whose counts are counted
// from the stored substrate and SUBTRACTED from the stored counts —
// bit-identical to a from-scratch mine of the surviving window, because
// integer subtraction recovers exactly the counts the expired rows
// contributed. The source never needs to cover expired rows
// again.
//
// AppendAndMine opens its TableSource through a factory rather than holding
// one open stream: incremental ingest wants to seek (binary sources skip
// straight to the delta), and a CLI can hand over a path instead of a live
// handle.

#ifndef FRAPP_STORE_INCREMENTAL_MINE_H_
#define FRAPP_STORE_INCREMENTAL_MINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "frapp/common/statusor.h"
#include "frapp/data/schema.h"
#include "frapp/dist/mechanism_spec.h"
#include "frapp/mining/apriori.h"
#include "frapp/pipeline/table_source.h"
#include "frapp/store/count_store.h"

namespace frapp {
namespace store {

/// Opens a fresh view of the table source. Called exactly once per
/// AppendAndMine run: the stored range (expiry, fallbacks) is served from
/// the store's materialized substrate, never from the source.
using SourceFactory =
    std::function<StatusOr<std::unique_ptr<pipeline::TableSource>>()>;

struct IncrementalOptions {
  /// Mining parameters (supmin, max length). min_support may drift between
  /// runs against the same store; only drifting below the store's retention
  /// threshold costs fallback recounts.
  mining::AprioriOptions mining;

  /// Global perturbation seed (identity component; must match the store).
  uint64_t perturb_seed = 7;

  /// Worker threads for perturbation and counting (0 = hardware
  /// concurrency). Never affects results.
  size_t num_threads = 1;

  /// Epsilon slack of the retained candidate superset: retention threshold
  /// = min_support * (1 - superset_margin), fixed into the store identity
  /// at creation. A larger margin lets supmin drop further between runs
  /// without any store misses, at the cost of more materialized entries.
  /// Misses are cheap either way (recounted from the stored substrate, not
  /// the source), so the default only needs to absorb moderate drift. Must
  /// be in [0, 1).
  double superset_margin = 0.25;

  /// First row of the surviving window (chunk-aligned). Raising it between
  /// runs expires the chunks below it by subtraction; it can never move
  /// backwards past data the store no longer covers.
  uint64_t window_begin_row = 0;

  /// Identifies the table source (file path, dataset spec); stored in the
  /// identity so a store can never be replayed against different data.
  std::string source_id;
};

struct IncrementalStats {
  /// Rows and whole chunks in the mined window [window_begin, total).
  size_t total_rows = 0;
  size_t total_chunks = 0;

  /// Newly appended whole chunks actually perturbed + counted this run.
  size_t delta_chunks = 0;

  /// Chunks expired out of the window and counted once for subtraction.
  size_t expired_chunks = 0;

  /// Rows of the partial tail chunk (counted fresh every run, never
  /// stored).
  size_t tail_rows = 0;

  /// Itemsets served by merging a stored count (the incremental win).
  size_t store_hits = 0;

  /// Itemsets counted without a stored count.
  size_t store_misses = 0;

  /// Store misses recounted from the materialized substrate (candidate
  /// fell outside the retained superset). Always equals store_misses when
  /// stored chunks exist; the recount never touches the source.
  size_t superset_fallbacks = 0;

  /// Entries materialized after commit.
  size_t stored_entries = 0;

  /// True when the store started this run empty (first mine).
  bool store_created = false;
};

struct IncrementalResult {
  mining::AprioriResult mined;
  IncrementalStats stats;
};

/// The store identity describing (spec, schema, options) at CREATION time.
/// Later runs inherit the store's own retention threshold instead of
/// recomputing it from their (possibly drifted) min_support.
StoreIdentity MakeStoreIdentity(const dist::MechanismSpec& spec,
                                const data::CategoricalSchema& schema,
                                const IncrementalOptions& options);

/// Loads the store at `path` if the file exists (any identity mismatch with
/// `identity` — except the retention threshold, which the file owns — is an
/// error), otherwise returns a fresh empty store with `identity`. Sets
/// `*created` accordingly when non-null.
StatusOr<CountStore> LoadOrCreateStore(const std::string& path,
                                       const StoreIdentity& identity,
                                       bool* created = nullptr);

/// Mines the window [options.window_begin_row, total rows) of the source,
/// reusing every stored count and perturbing only the appended
/// chunks and the partial tail (expired chunks and fallback recounts are
/// served from the stored substrate). On success the store holds the new
/// window's superset counts and substrate (call SaveToFile to persist); on
/// error the store is untouched. Bit-identical to PrivacyPipeline::Run over
/// the same window for every mechanism, source kind, and thread count.
StatusOr<IncrementalResult> AppendAndMine(CountStore& store,
                                          const dist::MechanismSpec& spec,
                                          const SourceFactory& open_source,
                                          const IncrementalOptions& options);

}  // namespace store
}  // namespace frapp

#endif  // FRAPP_STORE_INCREMENTAL_MINE_H_
