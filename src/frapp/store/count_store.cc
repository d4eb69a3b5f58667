#include "frapp/store/count_store.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "frapp/common/check.h"
#include "frapp/data/sharded_table.h"

namespace frapp {
namespace store {

// The substrate chunking is the seeded-chunk alignment: one substrate chunk
// per perturbation chunk, so append pushes whole chunks and expiry pops them.
static_assert(CountStore::kSubstrateChunkRows == data::kShardAlignmentRows,
              "substrate chunks must match the perturbation chunk alignment");

namespace {

constexpr char kMagic[8] = {'F', 'R', 'A', 'P', 'P', 'C', 'N', 'T'};
constexpr uint32_t kFormatVersion = 3;
// Magic + version + five u64 fields, before the variable-length part.
constexpr size_t kFixedHeaderBytes = 8 + 4 + 5 * 8;
constexpr size_t kChecksumBytes = 8;

void AppendBytes(std::string& buf, const void* data, size_t n) {
  buf.append(static_cast<const char*>(data), n);
}

void AppendU32(std::string& buf, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  AppendBytes(buf, b, 4);
}

void AppendU64(std::string& buf, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  AppendBytes(buf, b, 8);
}

void AppendString(std::string& buf, const std::string& s) {
  AppendU32(buf, static_cast<uint32_t>(s.size()));
  AppendBytes(buf, s.data(), s.size());
}

/// Appends `n` 64-bit words (substrate planes), little endian: one copy of
/// the whole run on a little-endian host.
void AppendWords(std::string& buf, const void* words, size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    AppendBytes(buf, words, n * 8);
  } else {
    const char* bytes = static_cast<const char*>(words);
    for (size_t w = 0; w < n; ++w) {
      uint64_t v = 0;
      std::memcpy(&v, bytes + w * 8, 8);
      AppendU64(buf, v);
    }
  }
}

/// The little-endian u64 at `data`.
uint64_t LoadU64(const char* data) {
  uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, data, 8);
  } else {
    for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(data[i]);
  }
  return v;
}

/// FNV-1a over the little-endian u64 words of the image, then over its
/// trailing n % 8 bytes one at a time.
uint64_t Checksum(const char* data, size_t n) {
  constexpr uint64_t kPrime = 0x100000001b3ULL;
  uint64_t h = 0xcbf29ce484222325ULL;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    h ^= LoadU64(data + i);
    h *= kPrime;
  }
  for (; i < n; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= kPrime;
  }
  return h;
}

/// Bounds-checked forward reader over the loaded file image. Every Read*
/// fails cleanly instead of running off the end, so a file that passes the
/// checksum but carries an absurd length field still cannot crash the
/// loader.
struct Cursor {
  const char* data;
  size_t size;
  size_t pos = 0;
  const std::string& path;

  bool Need(size_t n) const { return size - pos >= n; }

  Status Truncated(const std::string& what) const {
    return Status::InvalidArgument("'" + path + "' ends inside its " + what);
  }

  StatusOr<uint32_t> ReadU32(const std::string& what) {
    if (!Need(4)) return Truncated(what);
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(data[pos + i]);
    pos += 4;
    return v;
  }

  StatusOr<uint64_t> ReadU64(const std::string& what) {
    if (!Need(8)) return Truncated(what);
    const uint64_t v = LoadU64(data + pos);
    pos += 8;
    return v;
  }

  StatusOr<std::string> ReadString(const std::string& what) {
    FRAPP_ASSIGN_OR_RETURN(const uint32_t n, ReadU32(what));
    if (!Need(n)) return Truncated(what);
    std::string s(data + pos, n);
    pos += n;
    return s;
  }

  /// Reads `n` little-endian 64-bit words into `out`. Callers bound `n` by
  /// the image size first, so n * 8 cannot wrap.
  Status ReadWords(const std::string& what, void* out, size_t n) {
    if (!Need(n * 8)) return Truncated(what);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, data + pos, n * 8);
    } else {
      for (size_t w = 0; w < n; ++w) {
        const uint64_t v = LoadU64(data + pos + w * 8);
        std::memcpy(static_cast<char*>(out) + w * 8, &v, 8);
      }
    }
    pos += n * 8;
    return Status::OK();
  }
};

}  // namespace

StoreKey KeyOfItemset(const mining::Itemset& itemset) {
  StoreKey key;
  key.reserve(itemset.items().size());
  for (const mining::Item& item : itemset.items()) {
    key.push_back((static_cast<uint32_t>(item.attribute) << 16) |
                  item.category);
  }
  return key;
}

size_t StoreKeyHash::operator()(const StoreKey& key) const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint32_t word : key) {
    for (int i = 0; i < 4; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return static_cast<size_t>(h);
}

const int64_t* CountStore::Find(const StoreKey& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second.count;
}

void CountStore::Put(const StoreKey& key, int64_t count) {
  Entry& entry = entries_[key];
  entry.count = count;
  entry.epoch = epoch_;
}

size_t CountStore::Commit(uint64_t window_begin, uint64_t high_water) {
  size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.epoch != epoch_) {
      it = entries_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  window_begin_ = window_begin;
  high_water_ = high_water;
  return dropped;
}

void CountStore::UpdateSubstrate(uint64_t planes, size_t drop_leading,
                                 std::vector<SubstrateChunk> appended) {
  FRAPP_CHECK_LE(drop_leading, substrate_.size());
  for (const SubstrateChunk& chunk : appended) {
    FRAPP_CHECK_EQ(chunk.words.size(), planes * kSubstrateChunkWords);
  }
  // A plane-count change only makes sense when the old chunks are all gone
  // (first materialization, or a window move that swallowed the store).
  if (planes != substrate_planes_) {
    FRAPP_CHECK_EQ(drop_leading, substrate_.size());
  }
  substrate_.erase(substrate_.begin(),
                   substrate_.begin() + static_cast<ptrdiff_t>(drop_leading));
  for (SubstrateChunk& chunk : appended) {
    substrate_.push_back(std::move(chunk));
  }
  substrate_planes_ = planes;
}

Status CountStore::SaveToFile(const std::string& path) const {
  std::string buf;
  AppendBytes(buf, kMagic, sizeof(kMagic));
  AppendU32(buf, kFormatVersion);
  AppendU64(buf, identity_.schema_fingerprint);
  AppendU64(buf, identity_.perturb_seed);
  AppendU64(buf, identity_.retention_bits);
  AppendU64(buf, window_begin_);
  AppendU64(buf, high_water_);
  AppendString(buf, identity_.source_id);
  AppendString(buf, identity_.spec_key);

  // Sorted keys make the byte image a pure function of the logical store,
  // so two runs that materialize the same counts write identical files.
  std::vector<const StoreKey*> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(),
            [](const StoreKey* a, const StoreKey* b) { return *a < *b; });

  AppendU64(buf, entries_.size());
  for (const StoreKey* key : keys) {
    AppendU32(buf, static_cast<uint32_t>(key->size()));
    for (uint32_t word : *key) AppendU32(buf, word);
    AppendU64(buf, static_cast<uint64_t>(entries_.at(*key).count));
  }

  // The substrate must tile the committed window exactly; a store that
  // violates that would poison every later incremental run, so refuse to
  // write it at all.
  if (!substrate_.empty() &&
      substrate_.size() * kSubstrateChunkRows != high_water_ - window_begin_) {
    return Status::Internal(
        "substrate does not tile the window: " +
        std::to_string(substrate_.size()) + " chunks for rows [" +
        std::to_string(window_begin_) + ", " + std::to_string(high_water_) +
        ")");
  }
  AppendU64(buf, substrate_planes_);
  AppendU64(buf, substrate_.size());
  for (const SubstrateChunk& chunk : substrate_) {
    if (chunk.words.size() != substrate_planes_ * kSubstrateChunkWords) {
      return Status::Internal("substrate chunk has wrong plane arity");
    }
    AppendWords(buf, chunk.words.data(), chunk.words.size());
  }
  AppendU64(buf, Checksum(buf.data(), buf.size()));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open '" + tmp + "' for writing");
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!out) return Status::IOError("write failure on '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return Status::OK();
}

StatusOr<CountStore> CountStore::LoadFromFile(const std::string& path) {
  std::string buf;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IOError("cannot open '" + path + "' for reading");
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    if (size < 0) return Status::IOError("cannot size '" + path + "'");
    in.seekg(0);
    buf.resize(static_cast<size_t>(size));
    in.read(buf.data(), size);
    if (in.gcount() != size) {
      return Status::IOError("read failure on '" + path + "'");
    }
  }
  if (buf.size() < kFixedHeaderBytes + kChecksumBytes) {
    return Status::InvalidArgument("'" + path +
                                   "' is too short to hold a count store");
  }
  if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a FRAPP count store file");
  }
  const size_t payload = buf.size() - kChecksumBytes;
  Cursor cursor{buf.data(), payload, sizeof(kMagic), path};
  FRAPP_ASSIGN_OR_RETURN(const uint32_t version, cursor.ReadU32("header"));
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        "'" + path + "' has format version " + std::to_string(version) +
        ", this reader understands " + std::to_string(kFormatVersion));
  }
  // Checksum next: nothing past the version field is trusted before the
  // whole image validates.
  if (Checksum(buf.data(), payload) != LoadU64(buf.data() + payload)) {
    return Status::InvalidArgument(
        "'" + path + "' fails its checksum (truncated or corrupted)");
  }

  StoreIdentity identity;
  FRAPP_ASSIGN_OR_RETURN(identity.schema_fingerprint, cursor.ReadU64("header"));
  FRAPP_ASSIGN_OR_RETURN(identity.perturb_seed, cursor.ReadU64("header"));
  FRAPP_ASSIGN_OR_RETURN(identity.retention_bits, cursor.ReadU64("header"));
  FRAPP_ASSIGN_OR_RETURN(const uint64_t window_begin, cursor.ReadU64("header"));
  FRAPP_ASSIGN_OR_RETURN(const uint64_t high_water, cursor.ReadU64("header"));
  FRAPP_ASSIGN_OR_RETURN(identity.source_id, cursor.ReadString("source id"));
  FRAPP_ASSIGN_OR_RETURN(identity.spec_key, cursor.ReadString("spec key"));
  if (window_begin > high_water) {
    return Status::InvalidArgument("'" + path +
                                   "' has window begin past its high water");
  }

  CountStore store(std::move(identity));
  store.window_begin_ = window_begin;
  store.high_water_ = high_water;
  FRAPP_ASSIGN_OR_RETURN(const uint64_t num_entries,
                         cursor.ReadU64("entry count"));
  store.entries_.reserve(static_cast<size_t>(num_entries));
  for (uint64_t e = 0; e < num_entries; ++e) {
    FRAPP_ASSIGN_OR_RETURN(const uint32_t key_len, cursor.ReadU32("entry key"));
    // One item per attribute, attributes in the u16 space.
    if (key_len == 0 || key_len > 0xffffu) {
      return Status::InvalidArgument("'" + path + "' entry " +
                                     std::to_string(e) +
                                     " has implausible key length " +
                                     std::to_string(key_len));
    }
    StoreKey key(key_len);
    for (uint32_t& word : key) {
      FRAPP_ASSIGN_OR_RETURN(word, cursor.ReadU32("entry key"));
    }
    Entry entry;
    FRAPP_ASSIGN_OR_RETURN(const uint64_t count,
                           cursor.ReadU64("entry counts"));
    entry.count = static_cast<int64_t>(count);
    if (!store.entries_.emplace(std::move(key), std::move(entry)).second) {
      return Status::InvalidArgument("'" + path + "' entry " +
                                     std::to_string(e) + " repeats a key");
    }
  }
  FRAPP_ASSIGN_OR_RETURN(const uint64_t planes,
                         cursor.ReadU64("substrate planes"));
  FRAPP_ASSIGN_OR_RETURN(const uint64_t num_chunks,
                         cursor.ReadU64("substrate chunk count"));
  if (num_chunks != 0 &&
      num_chunks * kSubstrateChunkRows != high_water - window_begin) {
    return Status::InvalidArgument(
        "'" + path + "' substrate (" + std::to_string(num_chunks) +
        " chunks) does not tile its window [" + std::to_string(window_begin) +
        ", " + std::to_string(high_water) + ")");
  }
  // Overflow-safe sizing: every stored word costs 8 bytes, so the plane and
  // chunk counts are bounded by the bytes actually left in the image.
  const uint64_t remaining_words = (payload - cursor.pos) / 8;
  const uint64_t chunk_words = planes * kSubstrateChunkWords;
  if (num_chunks != 0 &&
      (planes == 0 || planes > remaining_words ||
       chunk_words > remaining_words / num_chunks)) {
    return cursor.Truncated("substrate");
  }
  store.substrate_planes_ = planes;
  store.substrate_.resize(static_cast<size_t>(num_chunks));
  for (SubstrateChunk& chunk : store.substrate_) {
    chunk.words.resize(static_cast<size_t>(chunk_words));
    FRAPP_RETURN_IF_ERROR(
        cursor.ReadWords("substrate", chunk.words.data(), chunk.words.size()));
  }
  if (cursor.pos != payload) {
    return Status::InvalidArgument("'" + path +
                                   "' carries bytes past its last entry");
  }
  return store;
}

}  // namespace store
}  // namespace frapp
