// Materialized per-candidate count store: the persistence half of
// incremental append-only mining (frapp/store/incremental_mine.h).
//
// The seeded-chunk contract (core/seeded_chunking.h) makes perturbation a
// pure function of (chunk index, global seed), and support counts are
// LINEAR over row partitions: itemset counts add directly, for all five
// mechanisms (MASK and C&P fold their sub-itemset supports into pattern
// counts after any merge). So the counts of rows [window_begin, high_water)
// never need recounting: a store keeps them materialized per itemset, and
// growing the data by whole chunks only costs counting the NEW chunks.
//
// A store is only reusable when it describes EXACTLY the same perturbed
// counting problem, so its identity pins everything that could change a
// single count bit: the source id, the schema fingerprint, the mechanism's
// canonical spec key (exact float bit patterns — dist::CanonicalSpecKey),
// the perturbation seed, and the retention threshold's exact double bits
// (which decides WHICH candidates are retained, see incremental_mine.h).
// Loading a file whose identity differs from the requested one is an
// error, never a silent re-derivation from mismatched counts.
//
// On-disk format FRAPPCNT (style of data/shard_io.h, little-endian):
//
//   offset  size  field
//   0       8     magic "FRAPPCNT"
//   8       4     u32 format version (3)
//   12      8     u64 schema fingerprint (data::SchemaFingerprint)
//   20      8     u64 perturbation seed
//   28      8     u64 retention threshold, IEEE-754 double bit pattern
//   36      8     u64 window begin row (chunk-aligned)
//   44      8     u64 high-water row (chunk-aligned)
//   52      ...   u32 length + bytes: source id
//   ...     ...   u32 length + bytes: canonical mechanism spec key
//   ...     8     u64 entry count
//   ...     ...   entries, sorted by key: u32 key length, key words (u32
//                 each), one count (int64 bit pattern)
//   ...     8     u64 substrate planes per chunk (0 = no substrate)
//   ...     8     u64 substrate chunk count
//   ...     ...   substrate chunks in window order, each planes * 128
//                 u64 words: the raw bitmap planes of that chunk's
//                 vertical index (8192 rows per chunk)
//   end-8   8     u64 checksum of every preceding byte: FNV-1a over
//                 the little-endian u64 words of that image, then over
//                 its trailing (size % 8) bytes one at a time
//
// Version 2 changed only the checksum (version 1 hashed byte by byte).
// Version 3 dropped the count kind and the one-hot width from the header
// and stores one count per itemset key: MASK and C&P keys are itemsets too,
// where version 2 kept 2^k superset counts per boolean candidate. Files of
// any other version fail to load with a "format version" error: a store is
// derived data, so delete it and re-run to rebuild it. Substrate planes are
// copied as whole runs of words on little-endian hosts.
//
// The substrate is the perturbed database itself, materialized as per-chunk
// bitmap-index planes. It is what makes store MISSES cheap: a candidate
// outside the retained superset is recounted by SIMD scans over the stored
// planes — no re-perturbation, no second pass over the source — and window
// expiry counts the expired chunks from the same planes, so the source
// never needs to cover rows that have already expired. When the substrate
// is present it must tile the window exactly: chunk count * 8192 ==
// high_water - window_begin.
//
// The checksum is validated before anything else is trusted, so a truncated
// or bit-flipped file is rejected up front; writes go through a temp file
// plus rename, so a crashed save never leaves a half-written store behind.

#ifndef FRAPP_STORE_COUNT_STORE_H_
#define FRAPP_STORE_COUNT_STORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/mining/itemset.h"

namespace frapp {
namespace store {

/// Everything that must match bit-for-bit for stored counts to be reusable.
struct StoreIdentity {
  std::string source_id;
  uint64_t schema_fingerprint = 0;
  std::string spec_key;
  uint64_t perturb_seed = 0;
  /// Exact IEEE-754 bits of the superset retention threshold.
  uint64_t retention_bits = 0;

  friend bool operator==(const StoreIdentity&, const StoreIdentity&) = default;
};

/// Key of one stored itemset: one word per item, (attribute << 16) |
/// category, in itemset order.
using StoreKey = std::vector<uint32_t>;

/// StoreKey of an itemset.
StoreKey KeyOfItemset(const mining::Itemset& itemset);

/// FNV-1a over the key words; shared by the store and the per-pass count
/// maps of the incremental driver.
struct StoreKeyHash {
  size_t operator()(const StoreKey& key) const;
};

/// One chunk of the materialized perturbed substrate: the raw bitmap planes
/// of the chunk's vertical index (mining::VerticalIndex::raw_bits()),
/// covering exactly kSubstrateChunkRows rows — substrate_planes *
/// kSubstrateChunkWords words, plane-major.
struct SubstrateChunk {
  std::vector<uint64_t> words;
};

/// The materialized counts of rows [window_begin, high_water) for one
/// perturbed counting problem. Mutation follows a run protocol that keeps
/// the store self-cleaning: BeginRun, then Put every candidate the current
/// superset retains (fully merged values), then Commit — which advances the
/// window and DROPS entries the run did not touch, so candidates that fell
/// out of the superset do not accumulate forever.
class CountStore {
 public:
  /// Rows per substrate chunk — the seeded-chunk alignment
  /// (data::kShardAlignmentRows; static_assert'd equal in the .cc).
  static constexpr uint64_t kSubstrateChunkRows = 8192;
  /// Words per bitmap plane of one substrate chunk.
  static constexpr uint64_t kSubstrateChunkWords = kSubstrateChunkRows / 64;

  explicit CountStore(StoreIdentity identity)
      : identity_(std::move(identity)) {}

  const StoreIdentity& identity() const { return identity_; }

  /// First row covered by the stored counts (rows before it have expired
  /// out of the window). Chunk-aligned.
  uint64_t window_begin() const { return window_begin_; }

  /// One past the last stored row. Chunk-aligned; the partial tail beyond
  /// it is always counted fresh, never stored.
  uint64_t high_water() const { return high_water_; }

  size_t num_entries() const { return entries_.size(); }

  /// Stored count of `key`, or nullptr when the key is not materialized.
  const int64_t* Find(const StoreKey& key) const;

  /// Starts a mutation run: Puts from now on mark their entries as live for
  /// the next Commit.
  void BeginRun() { ++epoch_; }

  /// Stores the fully merged count of `key` for the run's target window and
  /// marks the entry live. Overwrites any previous value.
  void Put(const StoreKey& key, int64_t count);

  /// Ends the run: advances to [window_begin, high_water) and erases every
  /// entry the run did not Put. Returns how many entries were dropped.
  size_t Commit(uint64_t window_begin, uint64_t high_water);

  /// Bitmap planes per substrate chunk; 0 when no substrate is materialized.
  uint64_t substrate_planes() const { return substrate_planes_; }

  /// The materialized substrate chunks, window order (chunk of rows
  /// [window_begin, window_begin + kSubstrateChunkRows) first).
  const std::vector<SubstrateChunk>& substrate() const { return substrate_; }

  /// Replaces the substrate for the window being committed: drops the
  /// `drop_leading` expired chunks from the front and appends the delta
  /// chunks. Call alongside Commit, after the run has fully succeeded; every
  /// appended chunk must carry `planes * kSubstrateChunkWords` words.
  void UpdateSubstrate(uint64_t planes, size_t drop_leading,
                       std::vector<SubstrateChunk> appended);

  /// Serializes to `path` via a temp file + rename, so readers never see a
  /// partial store.
  Status SaveToFile(const std::string& path) const;

  /// Deserializes a store, validating magic, version, checksum, and every
  /// length field before trusting any of it.
  static StatusOr<CountStore> LoadFromFile(const std::string& path);

 private:
  struct Entry {
    int64_t count = 0;
    uint64_t epoch = 0;
  };

  StoreIdentity identity_;
  uint64_t window_begin_ = 0;
  uint64_t high_water_ = 0;
  uint64_t epoch_ = 0;
  std::unordered_map<StoreKey, Entry, StoreKeyHash> entries_;
  uint64_t substrate_planes_ = 0;
  std::vector<SubstrateChunk> substrate_;
};

}  // namespace store
}  // namespace frapp

#endif  // FRAPP_STORE_COUNT_STORE_H_
