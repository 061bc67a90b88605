// The v3 (delta+varint, page-aligned) store format and its two serving
// paths: SketchStore::read decoding into the label plane and
// MmapSketchStore decoding the queried records per query. The contract
// under test is byte-identical answers between the builder and the two,
// for every scheme, byte-identical files to the ones earlier releases
// wrote, plus typed rejection (or safe kInfDist answers) for every
// corruption the fuzz loops can produce. The varint decoder runs under
// ASan in CI, so the corruption loops double as out-of-bounds probes.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/oracle_registry.hpp"
#include "dynamics/incremental.hpp"
#include "graph/generators.hpp"
#include "serve/label_codec.hpp"
#include "serve/mmap_store.hpp"
#include "serve/sketch_store.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/tz_centralized.hpp"
#include "test_paths.hpp"

namespace dsketch {
namespace {

// ---------------------------------------------------------------------------
// label_codec primitives

TEST(Varint, RoundTripsBoundaryValues) {
  for (const std::uint64_t x :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
        std::uint64_t{1} << 32, static_cast<std::uint64_t>(-2),
        static_cast<std::uint64_t>(-1)}) {
    std::vector<std::uint8_t> bytes;
    put_varint(bytes, x);
    VarintReader r{bytes.data(), bytes.data() + bytes.size()};
    EXPECT_EQ(r.get(), x);
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.done());
  }
}

TEST(Varint, TruncationFailsCleanly) {
  std::vector<std::uint8_t> bytes;
  put_varint(bytes, std::uint64_t{1} << 40);
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    VarintReader r{bytes.data(), bytes.data() + keep};
    r.get();
    EXPECT_FALSE(r.ok) << "kept " << keep << " of " << bytes.size();
  }
}

TEST(Varint, OverflowPastSixtyFourBitsRejected) {
  // Ten continuation bytes encode up to 70 bits; bit 64 set must fail.
  std::vector<std::uint8_t> bytes(9, 0x80);
  bytes.push_back(0x02);  // would be bit 64
  VarintReader r{bytes.data(), bytes.data() + bytes.size()};
  r.get();
  EXPECT_FALSE(r.ok);
}

TEST(Varint, DoneRejectsTrailingBytes) {
  std::vector<std::uint8_t> bytes;
  put_varint(bytes, 7);
  bytes.push_back(0);
  VarintReader r{bytes.data(), bytes.data() + bytes.size()};
  EXPECT_EQ(r.get(), 7u);
  EXPECT_FALSE(r.done());
}

TEST(ZigZag, RoundTripsSignedDeltas) {
  for (const std::int64_t d : {std::int64_t{0}, std::int64_t{1},
                               std::int64_t{-1}, std::int64_t{1} << 40,
                               -(std::int64_t{1} << 40)}) {
    EXPECT_EQ(static_cast<std::int64_t>(
                  unzigzag64(zigzag64(static_cast<std::uint64_t>(d)))),
              d);
  }
}

// ---------------------------------------------------------------------------
// record coding: synthetic tz label with the wrinkles the coder must
// survive — invalid pivots, duplicate bunch nodes, non-monotone pivot
// distances (the post-repair shape zigzag deltas exist for).

SketchPayload synthetic_tz_payload() {
  TzLabelBuilder label(0, 3);
  label.set_pivot(0, DistKey{0, 7});
  // pivot 1 stays invalid
  label.set_pivot(2, DistKey{5, 2});  // distance *smaller* than p0's
  // bunch sorted by (node, level); node 9 duplicated across levels.
  label.add_bunch_entry({4, 0, 11});
  label.add_bunch_entry({9, 0, 3});
  label.add_bunch_entry({9, 2, 3});
  label.add_bunch_entry({12, 1, (Dist{1} << 33) + 5});
  SketchPayload payload;
  payload.tz.append(label.view());
  return payload;
}

std::vector<std::uint8_t> encoded(const SketchPayload& payload) {
  std::vector<std::uint8_t> bytes;
  encode_v3_record(payload, 0, 0, bytes);
  return bytes;
}

TEST(RecordCodec, TzRoundTripsBitExactly) {
  const SketchPayload payload = synthetic_tz_payload();
  const std::vector<std::uint8_t> bytes = encoded(payload);
  DecodedRecord rec;
  ASSERT_TRUE(decode_v3_record(Scheme::kThorupZwick, bytes.data(),
                               bytes.data() + bytes.size(), 0, 0, rec));
  EXPECT_TRUE(rec.label.view() == payload.tz.view(0));
  // The varint coding must actually compress vs the label plane's
  // 16-byte cells.
  EXPECT_LT(bytes.size(), (3 + 4) * sizeof(BunchEntry));
}

TEST(RecordCodec, DecodeRejectsEveryTruncation) {
  const std::vector<std::uint8_t> bytes = encoded(synthetic_tz_payload());
  DecodedRecord rec;
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    EXPECT_FALSE(decode_v3_record(Scheme::kThorupZwick, bytes.data(),
                                  bytes.data() + keep, 0, 0, rec))
        << "kept " << keep << " of " << bytes.size();
  }
}

TEST(RecordCodec, DecodeRejectsUnsortedBunch) {
  // A label view binary-searches its bunch; a record whose entries are
  // out of (node, level) order must not decode into one.
  std::vector<std::uint8_t> bytes;
  put_varint(bytes, 0);              // levels
  put_varint(bytes, 2);              // count
  put_varint(bytes, zigzag64(5));    // node 5
  put_varint(bytes, 0);
  put_varint(bytes, 1);
  put_varint(bytes, zigzag64(static_cast<std::uint64_t>(-2)));  // node 3
  put_varint(bytes, 0);
  put_varint(bytes, 1);
  DecodedRecord rec;
  EXPECT_FALSE(decode_v3_record(Scheme::kThorupZwick, bytes.data(),
                                bytes.data() + bytes.size(), 0, 0, rec));
}

TEST(RecordCodec, DecodeSurvivesRandomBytes) {
  // Arbitrary bytes must either decode to *some* structurally valid
  // record or fail — never crash or read out of bounds (ASan-checked).
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&] {
    state ^= state << 13; state ^= state >> 7; state ^= state << 17;
    return static_cast<std::uint8_t>(state);
  };
  DecodedRecord rec;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> bytes(trial % 37);
    for (auto& b : bytes) b = next();
    for (const Scheme scheme : {Scheme::kThorupZwick, Scheme::kSlack,
                                Scheme::kCdg}) {
      if (decode_v3_record(scheme, bytes.data(), bytes.data() + bytes.size(),
                           0, 3, rec) &&
          scheme != Scheme::kSlack) {
        (void)rec.label.view();  // a decoded label is always viewable
      }
    }
  }
}

// ---------------------------------------------------------------------------
// the file format end to end

BuildConfig config_for(Scheme scheme) {
  BuildConfig cfg;
  cfg.scheme = scheme;
  cfg.k = 2;
  cfg.epsilon = 0.25;
  return cfg;
}

class StoreV3Schemes : public ::testing::TestWithParam<Scheme> {
 protected:
  StoreV3Schemes()
      : graph_(erdos_renyi(80, 0.08, {1, 9}, 17)),
        built_(graph_, config_for(GetParam())),
        store_(SketchStore::from_oracle(built_)) {}

  Graph graph_;
  SketchStore built_;  ///< the build
  SketchStore store_;  ///< packed from it
};

TEST_P(StoreV3Schemes, V3RoundTripAnswersIdentically) {
  std::stringstream ss;
  store_.write(ss);
  const SketchStore back = SketchStore::read(ss);
  EXPECT_EQ(back.scheme(), store_.scheme());
  for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
    for (NodeId v = u; v < graph_.num_nodes(); v += 3) {
      EXPECT_EQ(back.query(u, v), store_.query(u, v));
    }
  }
}

TEST_P(StoreV3Schemes, V3DecodeEncodeIsByteIdentical) {
  // The coding is bijective on every label, so a store decoded into the
  // label plane re-emits the exact bytes — through read() and through
  // the registry's load of what save() wrote alike.
  std::stringstream v3a, v3b, v3c, saved;
  store_.write(v3a);
  SketchStore::read(v3a).write(v3b);
  EXPECT_EQ(v3a.str(), v3b.str());
  built_.save(saved);
  OracleRegistry::instance().load(saved).oracle->save(v3c);
  EXPECT_EQ(v3a.str(), v3c.str());
}

TEST_P(StoreV3Schemes, SizeWordsAgreeAcrossOracleHeapAndMmap) {
  // One sketch, one size: the paper's accounting everywhere.
  const TempPath path = unique_temp_path("store.bin");
  store_.save_file(path);
  const SketchStore heap = SketchStore::load_file(path);
  const auto mapped = MmapSketchStore::open(path);
  for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
    const std::size_t words = built_.size_words(u);
    EXPECT_EQ(store_.size_words(u), words) << "node " << u;
    EXPECT_EQ(heap.size_words(u), words) << "node " << u;
    EXPECT_EQ(mapped->size_words(u), words) << "node " << u;
  }
  EXPECT_DOUBLE_EQ(heap.mean_size_words(), built_.mean_size_words());
}

TEST_P(StoreV3Schemes, MmapAnswersMatchHeapByteForByte) {
  const TempPath path = unique_temp_path("store.bin");
  store_.save_file(path);
  const SketchStore heap = SketchStore::load_file(path);
  const auto mapped = MmapSketchStore::open(path, /*verify_checksum=*/true);
  EXPECT_EQ(mapped->scheme(), heap.scheme());
  EXPECT_EQ(mapped->num_nodes(), heap.num_nodes());
  EXPECT_EQ(mapped->num_segments(), heap.num_segments());
  EXPECT_EQ(mapped->k(), heap.k());
  for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
    EXPECT_EQ(mapped->size_words(u), heap.size_words(u)) << "node " << u;
    EXPECT_EQ(mapped->encoded_bytes_for(u), heap.encoded_record_bytes(u))
        << "node " << u;
    for (NodeId v = u; v < graph_.num_nodes(); v += 3) {
      EXPECT_EQ(mapped->query(u, v), heap.query(u, v))
          << "pair " << u << "," << v;
      EXPECT_EQ(heap.query(u, v), built_.query(u, v))
          << "pair " << u << "," << v;
    }
  }
}

/// This store's file with the magic of an older format version.
std::string legacy_file(const SketchStore& store, char version) {
  std::stringstream ss;
  store.write(ss);
  std::string bytes = ss.str();
  bytes[7] = version;  // "DSKSTOR1" / "DSKSTOR2"
  return bytes;
}

TEST_P(StoreV3Schemes, MmapRejectsLegacyFormats) {
  const TempPath path = unique_temp_path("legacy.bin");
  for (const char version : {'1', '2'}) {
    std::ofstream(path, std::ios::binary) << legacy_file(store_, version);
    try {
      MmapSketchStore::open(path);
      FAIL() << "v" << version << " file must not mmap-open";
    } catch (const StoreCorruptionError& e) {
      EXPECT_EQ(e.kind(), StoreError::kUnsupportedVersion);
    }
  }
}

TEST_P(StoreV3Schemes, HeapLoadersRejectLegacyFormats) {
  // Stores are rebuildable artifacts: v1/v2 files are refused with a
  // typed error by the strict loader and by recovery alike.
  const TempPath path = unique_temp_path("legacy.bin");
  for (const char version : {'1', '2'}) {
    std::ofstream(path, std::ios::binary) << legacy_file(store_, version);
    for (const bool recover : {false, true}) {
      try {
        if (recover) {
          SketchStore::recover_file(path);
        } else {
          SketchStore::load_file(path);
        }
        FAIL() << "v" << version << " file must not load";
      } catch (const StoreCorruptionError& e) {
        EXPECT_EQ(e.kind(), StoreError::kUnsupportedVersion);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, StoreV3Schemes,
                         ::testing::Values(Scheme::kThorupZwick,
                                           Scheme::kSlack, Scheme::kCdg,
                                           Scheme::kGraceful));

// ---------------------------------------------------------------------------
// corruption: the v3 byte-level map needed to aim at specific sections

class StoreV3Corruption : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = erdos_renyi(40, 0.1, {1, 5}, 3);
    BuildConfig cfg;
    cfg.scheme = Scheme::kThorupZwick;
    cfg.k = 2;
    store_ = SketchStore(graph_, cfg);
    n_ = store_.num_nodes();
    store_.save_file(path_);
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    // v3 segment framing for a meta-free tz store: u64 meta_count,
    // u64 blob_bytes, pad to the next 4096 file boundary, the offset
    // table (n+1 u64 byte offsets), pad, blob.
    ASSERT_EQ(u64_at(64), 0u) << "tz segment has no meta";
    blob_bytes_ = u64_at(72);
    offsets_pos_ = 4096;
    blob_pos_ = offsets_pos_ + 8 * (n_ + 1);
    blob_pos_ += (4096 - blob_pos_ % 4096) % 4096;
    ASSERT_EQ(offset_of(0), 0u);
    ASSERT_EQ(offset_of(n_), blob_bytes_);
  }

  std::uint64_t u64_at(std::size_t pos) const {
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) {
      x |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(bytes_[pos + i]))
           << (8 * i);
    }
    return x;
  }

  std::uint64_t offset_of(NodeId u) const {
    return u64_at(offsets_pos_ + 8 * u);
  }

  void write_file(const std::string& data) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  Graph graph_;
  SketchStore store_;
  const TempPath path_ = unique_temp_path("store.bin");
  std::string bytes_;
  NodeId n_ = 0;
  std::uint64_t blob_bytes_ = 0;
  std::size_t offsets_pos_ = 0;
  std::size_t blob_pos_ = 0;
};

TEST_F(StoreV3Corruption, HeapLoadFuzzTruncationAndBitFlipsAlwaysTyped) {
  // Same contract the v2 fuzz enforces: both checksums cover every byte,
  // so any flip or cut surfaces as a typed error on the strict path.
  for (std::size_t keep = 0; keep < bytes_.size(); keep += 101) {
    std::stringstream ss(bytes_.substr(0, keep));
    EXPECT_THROW(SketchStore::read(ss), StoreCorruptionError)
        << "truncated to " << keep;
  }
  for (std::size_t pos = 0; pos < bytes_.size(); pos += 17) {
    std::string mut = bytes_;
    mut[pos] = static_cast<char>(mut[pos] ^ 0x20);
    std::stringstream ss(mut);
    EXPECT_THROW(SketchStore::read(ss), StoreCorruptionError)
        << "flip at " << pos;
  }
}

TEST_F(StoreV3Corruption, MmapOpenRejectsTruncation) {
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{17}, std::size_t{63}, std::size_t{64},
        offsets_pos_ - 1, offsets_pos_ + 8 * (n_ / 2), blob_pos_ - 1,
        bytes_.size() - 1}) {
    write_file(bytes_.substr(0, keep));
    EXPECT_THROW(MmapSketchStore::open(path_), StoreCorruptionError)
        << "truncated to " << keep;
  }
}

TEST_F(StoreV3Corruption, MmapOpenRejectsBrokenOffsetTable) {
  // Swap two interior offsets: the table is no longer monotone, which
  // the eager framing walk must catch before any query runs.
  std::string mut = bytes_;
  for (int i = 0; i < 8; ++i) {
    std::swap(mut[offsets_pos_ + 8 * (n_ / 2) + i],
              mut[offsets_pos_ + 8 * (n_ / 2 + 1) + i]);
  }
  write_file(mut);
  try {
    MmapSketchStore::open(path_);
    FAIL() << "non-monotone offsets must not open";
  } catch (const StoreCorruptionError& e) {
    EXPECT_EQ(e.kind(), StoreError::kStructure);
  }
}

TEST_F(StoreV3Corruption, MmapOffsetAndBlobFlipsNeverReadOutOfBounds) {
  // Single-byte flips across the offset table and the blob. Each one
  // either fails the eager framing walk (typed throw) or opens and then
  // answers every probe without crashing — corrupt records answer
  // kInfDist, and ASan guards the decoder against any stray read.
  for (std::size_t pos = offsets_pos_; pos < bytes_.size(); pos += 131) {
    std::string mut = bytes_;
    mut[pos] = static_cast<char>(mut[pos] ^ 0x11);
    write_file(mut);
    try {
      const auto mapped = MmapSketchStore::open(path_);
      for (NodeId u = 0; u < n_; u += 7) {
        for (NodeId v = 0; v < n_; v += 5) {
          (void)mapped->query(u, v);
        }
      }
    } catch (const StoreCorruptionError&) {
      // Typed rejection is equally acceptable.
    }
  }
}

TEST_F(StoreV3Corruption, RecoverQuarantinesTheDamagedRecord) {
  // Stomp one node's encoded record with continuation-bit garbage: the
  // strict load fails the checksum, recovery quarantines exactly that
  // node and keeps everyone else answering bit-identically.
  const NodeId victim = 5;
  const std::size_t begin = blob_pos_ + offset_of(victim);
  const std::size_t end = blob_pos_ + offset_of(victim + 1);
  ASSERT_LT(begin, end);
  std::string mut = bytes_;
  for (std::size_t i = begin; i < end; ++i) {
    mut[i] = static_cast<char>(0xff);
  }
  write_file(mut);

  EXPECT_THROW(SketchStore::load_file(path_), StoreCorruptionError);
  const SketchStore::Recovery rec = SketchStore::recover_file(path_);
  EXPECT_FALSE(rec.checksum_ok);
  ASSERT_EQ(rec.quarantined, std::vector<NodeId>{victim});
  for (NodeId u = 0; u < n_; ++u) {
    for (NodeId v = u; v < n_; v += 3) {
      if (u == victim || v == victim) continue;
      EXPECT_EQ(rec.store.query(u, v), store_.query(u, v));
    }
  }
  EXPECT_EQ(rec.store.query(victim, victim), 0u);
  for (NodeId v = 0; v < n_; ++v) {
    if (v != victim) EXPECT_EQ(rec.store.query(victim, v), kInfDist);
  }
}

TEST_F(StoreV3Corruption, RecoverQuarantinesTheTruncatedTail) {
  // Cut inside the second-to-last record: the nodes past the cut are
  // lost, the intact prefix serves.
  const std::size_t cut = blob_pos_ + offset_of(n_ - 2) + 1;
  write_file(bytes_.substr(0, cut));

  EXPECT_THROW(SketchStore::load_file(path_), StoreCorruptionError);
  const SketchStore::Recovery rec = SketchStore::recover_file(path_);
  EXPECT_FALSE(rec.checksum_ok);
  ASSERT_EQ(rec.quarantined, (std::vector<NodeId>{n_ - 2, n_ - 1}));
  for (NodeId u = 0; u + 2 < n_; u += 2) {
    for (NodeId v = u; v + 2 < n_; v += 3) {
      EXPECT_EQ(rec.store.query(u, v), store_.query(u, v));
    }
  }
}

TEST_F(StoreV3Corruption, DecodeRecordMatchesHeapWordModel) {
  // Decoding a record off the file bytes must give back the builder's
  // label, and every representation must bill it the same words.
  const auto mapped = MmapSketchStore::open(path_);
  const LabelArena& labels = store_.payload().tz;
  const auto* blob = reinterpret_cast<const std::uint8_t*>(bytes_.data()) +
                     blob_pos_;
  DecodedRecord rec;
  for (NodeId u = 0; u < n_; ++u) {
    ASSERT_TRUE(decode_v3_record(Scheme::kThorupZwick, blob + offset_of(u),
                                 blob + offset_of(u + 1), u, 0, rec))
        << "node " << u;
    EXPECT_TRUE(rec.label.view() == labels.view(u)) << "node " << u;
    EXPECT_EQ(rec.label.size_words(), store_.size_words(u)) << "node " << u;
    EXPECT_EQ(mapped->size_words(u), store_.size_words(u)) << "node " << u;
  }
}

// ---------------------------------------------------------------------------
// pinned bytes: FNV-1a 64 of the whole v3 file for a fixed seeded build
// of each scheme. A change here changes the on-disk format and every
// store size the benchmarks report.

std::uint64_t file_fnv(const SketchStore& store) {
  std::stringstream ss;
  store.write(ss);
  const std::string bytes = ss.str();
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

TEST(StorePinnedBytes, V3FilesMatchTheRecordedEncoding) {
  const Graph g = erdos_renyi(80, 0.08, {1, 9}, 17);
  const std::pair<Scheme, std::uint64_t> pinned[] = {
      {Scheme::kThorupZwick, 0xec847401fa4a1b11ULL},
      {Scheme::kSlack, 0xc152a523b9c2a19fULL},
      {Scheme::kCdg, 0xe2165b8ed815d21fULL},
      {Scheme::kGraceful, 0x488f2cfaf1b921d0ULL},
  };
  for (const auto& [scheme, fnv] : pinned) {
    EXPECT_EQ(file_fnv(SketchStore(g, config_for(scheme))), fnv)
        << scheme_name(scheme);
  }
  // A bare label set (no recorded epsilon) packs through the same codec.
  const std::uint32_t k = 3;
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, 42);
  const TzLabelOracle labels(build_tz_centralized(g, h), k);
  EXPECT_EQ(file_fnv(SketchStore::from_oracle(labels)), 0x5c17b3da38343a10ULL);
}

}  // namespace
}  // namespace dsketch
