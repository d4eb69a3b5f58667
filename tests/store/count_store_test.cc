// CountStore invariants:
//
//  1. ROUNDTRIP: identity, window, and every entry survive save + load
//     bit-for-bit, and the byte image is deterministic (sorted keys).
//  2. REJECTION: truncation, magic/version damage (older format versions
//     included), bit flips anywhere in the payload, and duplicate keys are
//     all detected before any counts are trusted; an identity mismatch
//     refuses to merge even a pristine file.
//  3. RUN PROTOCOL: Commit drops exactly the entries the run did not Put,
//     so candidates that fall out of the superset self-clean.

#include "frapp/store/count_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "frapp/store/incremental_mine.h"

namespace frapp {
namespace store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

StoreIdentity TestIdentity() {
  StoreIdentity identity;
  identity.source_id = "unit-test-source";
  identity.schema_fingerprint = 0x1234abcd5678ef00ULL;
  identity.spec_key = "det-gd|gamma=404c000000000000";
  identity.perturb_seed = 7;
  identity.retention_bits = 0x3f8eb851eb851eb8ULL;
  return identity;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CountStoreTest, RoundTripsIdentityWindowAndEntries) {
  CountStore store(TestIdentity());
  store.BeginRun();
  store.Put({0x00010002u}, {411});
  store.Put({0x00010002u, 0x00030000u}, {97});
  store.Put({0x00050001u}, {12345678901LL});
  store.Commit(8192, 40960);

  const std::string path = TempPath("roundtrip.frappcnt");
  ASSERT_TRUE(store.SaveToFile(path).ok());

  StatusOr<CountStore> loaded = CountStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->identity() == store.identity());
  EXPECT_EQ(loaded->window_begin(), 8192u);
  EXPECT_EQ(loaded->high_water(), 40960u);
  ASSERT_EQ(loaded->num_entries(), 3u);
  const int64_t* pair = loaded->Find({0x00010002u, 0x00030000u});
  ASSERT_NE(pair, nullptr);
  EXPECT_EQ(*pair, 97);
  const int64_t* big = loaded->Find({0x00050001u});
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(*big, 12345678901LL);
  EXPECT_EQ(loaded->Find({0x00990000u}), nullptr);

  // Deterministic byte image: saving the loaded store reproduces the file.
  const std::string again = TempPath("roundtrip2.frappcnt");
  ASSERT_TRUE(loaded->SaveToFile(again).ok());
  EXPECT_EQ(ReadAll(path), ReadAll(again));
}

TEST(CountStoreTest, RoundTripsSubstrateChunks) {
  CountStore store(TestIdentity());
  store.BeginRun();
  store.Put({0x00010002u}, {411});
  // Two chunks of 3 planes each, distinct recognizable words.
  const uint64_t words_per_chunk = 3 * CountStore::kSubstrateChunkWords;
  std::vector<SubstrateChunk> chunks(2);
  for (size_t c = 0; c < 2; ++c) {
    chunks[c].words.resize(words_per_chunk);
    for (size_t w = 0; w < words_per_chunk; ++w) {
      chunks[c].words[w] = (uint64_t{c} << 32) | w;
    }
  }
  store.UpdateSubstrate(3, 0, chunks);
  store.Commit(8192, 8192 + 2 * CountStore::kSubstrateChunkRows);

  const std::string path = TempPath("substrate.frappcnt");
  ASSERT_TRUE(store.SaveToFile(path).ok());
  StatusOr<CountStore> loaded = CountStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->substrate_planes(), 3u);
  ASSERT_EQ(loaded->substrate().size(), 2u);
  EXPECT_EQ(loaded->substrate()[0].words, chunks[0].words);
  EXPECT_EQ(loaded->substrate()[1].words, chunks[1].words);

  // Expiry pops the front chunk, append pushes on the back.
  SubstrateChunk fresh;
  fresh.words.assign(words_per_chunk, 0xabcdefULL);
  loaded->UpdateSubstrate(3, 1, {fresh});
  ASSERT_EQ(loaded->substrate().size(), 2u);
  EXPECT_EQ(loaded->substrate()[0].words, chunks[1].words);
  EXPECT_EQ(loaded->substrate()[1].words, fresh.words);
}

TEST(CountStoreTest, RefusesSubstrateThatDoesNotTileTheWindow) {
  CountStore store(TestIdentity());
  store.BeginRun();
  store.Put({0x00010002u}, {411});
  SubstrateChunk chunk;
  chunk.words.assign(2 * CountStore::kSubstrateChunkWords, 7);
  store.UpdateSubstrate(2, 0, {chunk});
  // One chunk cannot tile a two-chunk window: the save must refuse rather
  // than write a store that would poison later incremental runs.
  store.Commit(0, 2 * CountStore::kSubstrateChunkRows);
  const std::string path = TempPath("badtile.frappcnt");
  EXPECT_FALSE(store.SaveToFile(path).ok());
}

TEST(CountStoreTest, RejectsDamagedFiles) {
  CountStore store(TestIdentity());
  store.BeginRun();
  store.Put({0x00010002u}, {411});
  store.Put({0x00040003u}, {17});
  store.Commit(0, 16384);
  const std::string path = TempPath("damaged.frappcnt");
  ASSERT_TRUE(store.SaveToFile(path).ok());
  const std::string good = ReadAll(path);

  // Truncation: drop the trailing checksum plus a payload byte.
  WriteAll(path, good.substr(0, good.size() - 9));
  EXPECT_FALSE(CountStore::LoadFromFile(path).ok());

  // Far-too-short file.
  WriteAll(path, good.substr(0, 10));
  EXPECT_FALSE(CountStore::LoadFromFile(path).ok());

  // Wrong magic.
  {
    std::string bad = good;
    bad[0] = 'X';
    WriteAll(path, bad);
    const StatusOr<CountStore> r = CountStore::LoadFromFile(path);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("not a FRAPP count store"),
              std::string::npos);
  }

  // Unknown version (checked before the checksum, so the message is
  // specific).
  {
    std::string bad = good;
    bad[8] = 9;
    WriteAll(path, bad);
    const StatusOr<CountStore> r = CountStore::LoadFromFile(path);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("format version"), std::string::npos);
  }

  // A single flipped bit anywhere in the payload fails the checksum.
  for (const size_t offset : {size_t{13}, size_t{40}, good.size() - 12}) {
    std::string bad = good;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x40);
    WriteAll(path, bad);
    const StatusOr<CountStore> r = CountStore::LoadFromFile(path);
    ASSERT_FALSE(r.ok()) << "offset " << offset;
    EXPECT_NE(r.status().ToString().find("checksum"), std::string::npos);
  }

  // Intact payload restored: loads again.
  WriteAll(path, good);
  EXPECT_TRUE(CountStore::LoadFromFile(path).ok());
}

TEST(CountStoreTest, Version2ChecksumsWordsAndTrailingBytes) {
  StoreIdentity identity = TestIdentity();
  // A payload that is not a whole number of words, so the checksum has
  // trailing bytes to hash one at a time.
  identity.source_id = "odd-length-source";
  CountStore store(identity);
  store.BeginRun();
  store.Put({0x00010002u}, {411});
  SubstrateChunk chunk;
  chunk.words.resize(2 * CountStore::kSubstrateChunkWords);
  for (size_t w = 0; w < chunk.words.size(); ++w) {
    chunk.words[w] = 0x9e3779b97f4a7c15ULL * (w + 1);
  }
  store.UpdateSubstrate(2, 0, {chunk});
  store.Commit(0, CountStore::kSubstrateChunkRows);
  const std::string path = TempPath("v2.frappcnt");
  ASSERT_TRUE(store.SaveToFile(path).ok());
  const std::string good = ReadAll(path);
  const size_t payload = good.size() - 8;
  ASSERT_NE(payload % 8, 0u);

  // Save -> load -> save reproduces the image byte for byte.
  {
    StatusOr<CountStore> loaded = CountStore::LoadFromFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->substrate()[0].words, chunk.words);
    const std::string again = TempPath("v2-again.frappcnt");
    ASSERT_TRUE(loaded->SaveToFile(again).ok());
    EXPECT_EQ(ReadAll(again), good);
  }

  // A file stamped version 1 is refused by version, before its checksum.
  {
    std::string v1 = good;
    v1[8] = 1;
    WriteAll(path, v1);
    const StatusOr<CountStore> r = CountStore::LoadFromFile(path);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("format version"), std::string::npos);
  }

  // A flipped bit in a substrate word (inside the last whole checksum
  // word), and one in a trailing byte past the last whole word.
  const size_t last_word_end = payload - payload % 8;
  for (const size_t offset : {last_word_end - 3, payload - 1}) {
    std::string bad = good;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x01);
    WriteAll(path, bad);
    const StatusOr<CountStore> r = CountStore::LoadFromFile(path);
    ASSERT_FALSE(r.ok()) << "offset " << offset;
    EXPECT_NE(r.status().ToString().find("checksum"), std::string::npos)
        << "offset " << offset;
  }

  WriteAll(path, good);
  EXPECT_TRUE(CountStore::LoadFromFile(path).ok());
}

// A well-formed version 2 image: the v2 header (count kind and one-hot width
// included), one boolean entry of 2^2 superset counts, no substrate, and a
// valid word-wise checksum.
std::string Version2Image() {
  std::string image = "FRAPPCNT";
  const auto u32 = [&image](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      image.push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  const auto u64 = [&image](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      image.push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  const auto str = [&](const std::string& text) {
    u32(static_cast<uint32_t>(text.size()));
    image += text;
  };
  u32(2);                      // format version
  u32(1);                      // count kind: boolean superset
  u64(0x1234abcd5678ef00ULL);  // schema fingerprint
  u64(7);                      // perturbation seed
  u64(0x3f8eb851eb851eb8ULL);  // retention threshold bits
  u64(19);                     // one-hot width
  u64(0);                      // window begin
  u64(16384);                  // high water
  str("unit-test-source");
  str("mask|gamma=404c000000000000");
  u64(1);  // entries
  u32(2);  // key length
  u32(3);
  u32(7);
  u32(4);  // counts length
  for (uint64_t count : {100, 40, 30, 5}) u64(count);
  u64(0);  // substrate planes
  u64(0);  // substrate chunks
  uint64_t h = 0xcbf29ce484222325ULL;
  size_t i = 0;
  for (; i + 8 <= image.size(); i += 8) {
    uint64_t word = 0;
    for (int b = 7; b >= 0; --b) {
      word = (word << 8) | static_cast<uint8_t>(image[i + b]);
    }
    h = (h ^ word) * 0x100000001b3ULL;
  }
  for (; i < image.size(); ++i) {
    h = (h ^ static_cast<uint8_t>(image[i])) * 0x100000001b3ULL;
  }
  u64(h);
  return image;
}

TEST(CountStoreTest, RefusesVersion2Images) {
  // Version 3 keeps one count per itemset key; a version 2 store (boolean
  // superset vectors, a header with kind and width) is derived data and is
  // refused by its version, never misread.
  const std::string path = TempPath("v2-image.frappcnt");
  WriteAll(path, Version2Image());
  const StatusOr<CountStore> r = CountStore::LoadFromFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().ToString().find("format version 2"), std::string::npos)
      << r.status().ToString();
  const StatusOr<CountStore> via_identity =
      LoadOrCreateStore(path, TestIdentity());
  ASSERT_FALSE(via_identity.ok());
  EXPECT_NE(via_identity.status().ToString().find("format version"),
            std::string::npos);
}

TEST(CountStoreTest, LoadOrCreateValidatesIdentity) {
  const std::string path = TempPath("identity.frappcnt");
  std::remove(path.c_str());

  bool created = false;
  StatusOr<CountStore> fresh = LoadOrCreateStore(path, TestIdentity(), &created);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(created);
  EXPECT_EQ(fresh->num_entries(), 0u);
  fresh->BeginRun();
  fresh->Put({0x00010002u}, {5});
  fresh->Commit(0, 8192);
  ASSERT_TRUE(fresh->SaveToFile(path).ok());

  // Same identity: loads the materialized entries.
  StatusOr<CountStore> same = LoadOrCreateStore(path, TestIdentity(), &created);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_FALSE(created);
  EXPECT_EQ(same->num_entries(), 1u);

  // A drifted retention threshold is OWNED by the file, not a mismatch.
  StoreIdentity drifted = TestIdentity();
  drifted.retention_bits ^= 0xffULL;
  EXPECT_TRUE(LoadOrCreateStore(path, drifted, &created).ok());

  // Any other identity change refuses the file.
  for (StoreIdentity bad : {TestIdentity(), TestIdentity(), TestIdentity()}) {
    static int field = 0;
    switch (field++) {
      case 0: bad.perturb_seed = 8; break;
      case 1: bad.spec_key = "mask|gamma=..."; break;
      default: bad.source_id = "other-table"; break;
    }
    const StatusOr<CountStore> r = LoadOrCreateStore(path, bad, &created);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(CountStoreTest, CommitDropsEntriesTheRunDidNotTouch) {
  CountStore store(TestIdentity());
  store.BeginRun();
  store.Put({1u}, {10});
  store.Put({2u}, {20});
  store.Put({3u}, {30});
  EXPECT_EQ(store.Commit(0, 8192), 0u);
  EXPECT_EQ(store.num_entries(), 3u);

  // Next run only touches {1} and {3}: {2} fell out of the superset.
  store.BeginRun();
  store.Put({1u}, {11});
  store.Put({3u}, {33});
  EXPECT_EQ(store.Commit(0, 16384), 1u);
  EXPECT_EQ(store.num_entries(), 2u);
  EXPECT_EQ(store.Find({2u}), nullptr);
  ASSERT_NE(store.Find({1u}), nullptr);
  EXPECT_EQ(*store.Find({1u}), 11);
  EXPECT_EQ(store.window_begin(), 0u);
  EXPECT_EQ(store.high_water(), 16384u);
}

}  // namespace
}  // namespace store
}  // namespace frapp
