#include "serve/sketch_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <thread>

#include "dynamics/incremental.hpp"
#include "graph/generators.hpp"
#include "serve/query_service.hpp"
#include "sketch/path_extraction.hpp"
#include "sketch/tz_centralized.hpp"
#include "test_paths.hpp"
#include "util/rng.hpp"

namespace dsketch {
namespace {

BuildConfig config_for(Scheme scheme) {
  BuildConfig cfg;
  cfg.scheme = scheme;
  cfg.k = 2;
  cfg.epsilon = 0.25;
  return cfg;
}

class SketchStoreSchemes : public ::testing::TestWithParam<Scheme> {
 protected:
  SketchStoreSchemes()
      : graph_(erdos_renyi(80, 0.08, {1, 9}, 17)),
        built_(graph_, config_for(GetParam())) {}

  Graph graph_;
  SketchStore built_;
};

TEST_P(SketchStoreSchemes, PackedQueriesMatchEngineBitIdentically) {
  const SketchStore store = SketchStore::from_oracle(built_);
  EXPECT_EQ(store.num_nodes(), graph_.num_nodes());
  EXPECT_EQ(store.build_cost(), nullptr);  // a packed copy, not a build
  for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
    for (NodeId v = u; v < graph_.num_nodes(); v += 3) {
      EXPECT_EQ(store.query(u, v), built_.query(u, v))
          << "pair " << u << "," << v;
    }
  }
}

TEST_P(SketchStoreSchemes, BinaryRoundTripPreservesEverything) {
  const SketchStore& store = built_;
  std::stringstream ss;
  store.write(ss);
  const SketchStore back = SketchStore::read(ss);
  EXPECT_EQ(back.scheme(), store.scheme());
  EXPECT_EQ(back.num_nodes(), store.num_nodes());
  EXPECT_EQ(back.k(), store.k());
  EXPECT_DOUBLE_EQ(back.epsilon(), store.epsilon());
  for (NodeId u = 0; u < graph_.num_nodes(); u += 2) {
    for (NodeId v = u + 1; v < graph_.num_nodes(); v += 5) {
      EXPECT_EQ(back.query(u, v), built_.query(u, v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, SketchStoreSchemes,
                         ::testing::Values(Scheme::kThorupZwick,
                                           Scheme::kSlack, Scheme::kCdg,
                                           Scheme::kGraceful));

std::uint64_t u64_at(const std::string& bytes, std::size_t pos) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) {
    x |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[pos + i]))
         << (8 * i);
  }
  return x;
}

/// File position of the next 4096-byte boundary at or after `pos`.
std::size_t page_align(std::size_t pos) { return (pos + 4095) / 4096 * 4096; }

/// Where each segment's offset table and blob start in a store file.
struct V3Map {
  std::vector<std::size_t> offsets_pos;
  std::vector<std::size_t> blob_pos;

  V3Map(const std::string& bytes, NodeId n, std::size_t segments) {
    std::size_t pos = 64;
    for (std::size_t s = 0; s < segments; ++s) {
      pos += 8 + 8 * u64_at(bytes, pos);  // meta_count, meta[]
      const std::uint64_t blob_bytes = u64_at(bytes, pos);
      pos = page_align(pos + 8);
      offsets_pos.push_back(pos);
      pos = page_align(pos + 8 * (std::size_t{n} + 1));
      blob_pos.push_back(pos);
      pos = page_align(pos + blob_bytes);
    }
  }

  /// File position of node u's record in segment s.
  std::size_t record(const std::string& bytes, std::size_t s,
                     NodeId u) const {
    return blob_pos[s] + u64_at(bytes, offsets_pos[s] + 8 * u);
  }
};

/// Recomputes both checksums after a deliberate edit, the way a crafted
/// file would: the payload's (stored at byte 48) and then the header's.
void forge_checksums(std::string& bytes) {
  const auto fnv = [&](std::size_t begin, std::size_t end) {
    std::uint64_t hash = 14695981039346656037ULL;
    for (std::size_t i = begin; i < end; ++i) {
      hash ^= static_cast<std::uint8_t>(bytes[i]);
      hash *= 1099511628211ULL;
    }
    return hash;
  };
  const auto patch_u64 = [&](std::size_t pos, std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      bytes[pos + i] = static_cast<char>((x >> (8 * i)) & 0xff);
    }
  };
  patch_u64(48, fnv(64, bytes.size()));
  patch_u64(56, fnv(8, 56));
}

void write_bytes(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

class SketchStoreCorruption : public ::testing::Test {
 protected:
  std::string valid_bytes() {
    const Graph g = erdos_renyi(40, 0.1, {1, 5}, 3);
    BuildConfig cfg;
    cfg.scheme = Scheme::kThorupZwick;
    cfg.k = 2;
    std::stringstream ss;
    SketchStore(g, cfg).write(ss);
    return ss.str();
  }
};

TEST_F(SketchStoreCorruption, RejectsBadMagic) {
  std::string bytes = valid_bytes();
  bytes[0] = 'X';
  std::stringstream ss(bytes);
  EXPECT_THROW(SketchStore::read(ss), std::runtime_error);
}

TEST_F(SketchStoreCorruption, RejectsUnsupportedVersion) {
  std::string bytes = valid_bytes();
  bytes[8] = 99;  // version lives right after the 8-byte magic
  std::stringstream ss(bytes);
  EXPECT_THROW(SketchStore::read(ss), std::runtime_error);
}

TEST_F(SketchStoreCorruption, RejectsPayloadBitFlip) {
  std::string bytes = valid_bytes();
  bytes[bytes.size() - 1] ^= 0x40;  // checksum no longer matches
  std::stringstream ss(bytes);
  EXPECT_THROW(SketchStore::read(ss), std::runtime_error);
}

TEST_F(SketchStoreCorruption, RejectsTruncation) {
  const std::string bytes = valid_bytes();
  for (const std::size_t keep : {std::size_t{4}, std::size_t{40},
                                 bytes.size() / 2, bytes.size() - 1}) {
    std::stringstream ss(bytes.substr(0, keep));
    EXPECT_THROW(SketchStore::read(ss), std::runtime_error) << keep << " bytes";
  }
}

TEST_F(SketchStoreCorruption, RejectsEmptyStream) {
  std::stringstream ss;
  EXPECT_THROW(SketchStore::read(ss), std::runtime_error);
}

TEST_F(SketchStoreCorruption, RejectsChecksumValidStructuralCorruption) {
  // The checksum only detects accidental corruption; a crafted file can
  // recompute it. Give the first TZ record an id width no record can
  // have and re-forge both checksums: the record check must still reject
  // the file, with a structural diagnosis.
  std::string bytes = valid_bytes();
  const auto n = static_cast<NodeId>(u64_at(bytes, 16) & 0xffffffffu);
  const V3Map map(bytes, n, 1);
  // Record 0 starts u8 levels, u8 id width.
  const std::size_t width_pos = map.record(bytes, 0, 0) + 1;
  ASSERT_LE(static_cast<std::uint8_t>(bytes[width_pos]), 32);
  bytes[width_pos] = static_cast<char>(0x7f);  // id width 127
  forge_checksums(bytes);
  std::stringstream ss(bytes);
  try {
    SketchStore::read(ss);
    FAIL() << "a record overrunning its slice must not load";
  } catch (const StoreCorruptionError& e) {
    EXPECT_EQ(e.kind(), StoreError::kStructure);
  }
}

TEST_F(SketchStoreCorruption, FuzzTruncationAndBitFlipsAlwaysTyped) {
  // Regression fuzz: every truncation point and every sampled single-bit
  // flip must surface as a typed StoreCorruptionError — never a crash, an
  // out-of-bounds read, or a silently wrong store. Both checksums (header
  // and payload) together cover every byte of the file, so no flip can
  // escape detection.
  const std::string bytes = valid_bytes();
  for (std::size_t keep = 0; keep < bytes.size(); keep += 7) {
    std::stringstream ss(bytes.substr(0, keep));
    EXPECT_THROW(SketchStore::read(ss), StoreCorruptionError)
        << "truncated to " << keep << " bytes";
  }
  for (std::size_t pos = 0; pos < bytes.size(); pos += 3) {
    for (const int bit : {0, 6}) {
      std::string mut = bytes;
      mut[pos] = static_cast<char>(mut[pos] ^ (1 << bit));
      std::stringstream ss(mut);
      EXPECT_THROW(SketchStore::read(ss), StoreCorruptionError)
          << "bit " << bit << " flipped at byte " << pos;
    }
  }
}

class SketchStoreRecovery : public ::testing::Test {
 protected:
  // A TZ store on disk plus the byte-level map needed to aim corruption at
  // a specific node record.
  void SetUp() override {
    graph_ = erdos_renyi(40, 0.1, {1, 5}, 3);
    BuildConfig cfg;
    cfg.scheme = Scheme::kThorupZwick;
    cfg.k = 2;
    store_ = SketchStore(graph_, cfg);
    store_.save_file(path_);
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    n_ = store_.num_nodes();
    map_ = std::make_unique<V3Map>(bytes_, n_, 1);
  }

  std::size_t record(NodeId u) const { return map_->record(bytes_, 0, u); }

  Graph graph_;
  SketchStore store_;
  const TempPath path_ = unique_temp_path("recovery.bin");
  std::string bytes_;
  NodeId n_ = 0;
  std::unique_ptr<V3Map> map_;
};

TEST_F(SketchStoreRecovery, IntactFileRecoversWithChecksumOk) {
  const SketchStore::Recovery rec = SketchStore::recover_file(path_);
  EXPECT_TRUE(rec.checksum_ok);
  EXPECT_TRUE(rec.quarantined.empty());
  for (NodeId u = 0; u < n_; u += 3) {
    for (NodeId v = u; v < n_; v += 5) {
      EXPECT_EQ(rec.store.query(u, v), store_.query(u, v));
    }
  }
}

TEST_F(SketchStoreRecovery, QuarantinesBrokenRecordAndServesTheRest) {
  // Blow up node 5's record structure (levels count inflated far past the
  // record's actual extent). The strict load must reject the file; the
  // recovery path must quarantine exactly node 5 and keep everyone else
  // answering bit-identically.
  const NodeId victim = 5;
  std::string mut = bytes_;
  ASSERT_LT(static_cast<std::uint8_t>(mut[record(victim)]), 0x80);
  mut[record(victim)] = static_cast<char>(0x7f);  // levels = 127
  write_bytes(path_, mut);

  EXPECT_THROW(SketchStore::load_file(path_), StoreCorruptionError);
  const SketchStore::Recovery rec = SketchStore::recover_file(path_);
  EXPECT_FALSE(rec.checksum_ok);
  ASSERT_EQ(rec.quarantined, std::vector<NodeId>{victim});
  for (NodeId u = 0; u < n_; ++u) {
    for (NodeId v = u; v < n_; v += 3) {
      if (u == victim || v == victim) continue;
      EXPECT_EQ(rec.store.query(u, v), store_.query(u, v))
          << "pair " << u << "," << v;
    }
  }
  // The quarantined node answers the safe "don't know", never a wrong
  // finite distance.
  EXPECT_EQ(rec.store.query(victim, victim), 0u);
  for (NodeId v = 0; v < n_; ++v) {
    if (v != victim) EXPECT_EQ(rec.store.query(victim, v), kInfDist);
  }
}

TEST_F(SketchStoreRecovery, TruncatedArenaQuarantinesTheLostTail) {
  // Chop the file inside the second-to-last record: the nodes whose
  // records fall past the cut are quarantined, the intact prefix serves.
  const std::size_t cut = record(n_ - 2) + 1;
  write_bytes(path_, bytes_.substr(0, cut));

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

TEST_F(SketchStoreRecovery, HeaderDamageIsUnrecoverable) {
  std::string mut = bytes_;
  mut[2] = 'X';  // inside the magic
  write_bytes(path_, mut);
  EXPECT_THROW(SketchStore::recover_file(path_), StoreCorruptionError);
}

// Per-record quarantine in every scheme: a damaged record answers the
// safe "don't know" (kInfDist), the rest of the store keeps serving.
class StoreRecoverySchemes : public ::testing::TestWithParam<Scheme> {
 protected:
  void SetUp() override {
    graph_ = erdos_renyi(60, 0.1, {1, 7}, 29);
    BuildConfig cfg;
    cfg.scheme = GetParam();
    cfg.k = 2;
    cfg.epsilon = 0.25;
    store_ = SketchStore(graph_, cfg);
    n_ = store_.num_nodes();
    store_.save_file(path_);
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    map_ = std::make_unique<V3Map>(bytes_, n_, store_.num_segments());
  }

  Graph graph_;
  SketchStore store_;
  NodeId n_ = 0;
  const TempPath path_ = unique_temp_path("store.bin");
  std::string bytes_;
  std::unique_ptr<V3Map> map_;
};

TEST_P(StoreRecoverySchemes, DamagedRecordAnswersInfAndTheRestServe) {
  // Stomp the victim's record in every segment with all-ones garbage
  // (graceful keeps one record per level).
  const NodeId victim = 7;
  std::string mut = bytes_;
  for (std::size_t s = 0; s < store_.num_segments(); ++s) {
    const std::size_t begin = map_->record(bytes_, s, victim);
    const std::size_t end = map_->record(bytes_, s, victim + 1);
    ASSERT_LT(begin, end);
    for (std::size_t i = begin; i < end; ++i) mut[i] = static_cast<char>(0xff);
  }
  write_bytes(path_, mut);

  EXPECT_THROW(SketchStore::load_file(path_), StoreCorruptionError);
  const SketchStore::Recovery rec = SketchStore::recover_file(path_);
  EXPECT_FALSE(rec.checksum_ok);
  ASSERT_EQ(rec.quarantined, std::vector<NodeId>{victim});
  for (NodeId u = 0; u < n_; ++u) {
    for (NodeId v = 0; v < n_; v += 3) {
      if (u == victim || v == victim) {
        EXPECT_EQ(rec.store.query(u, v), u == v ? 0 : kInfDist)
            << "pair " << u << "," << v;
      } else {
        EXPECT_EQ(rec.store.query(u, v), store_.query(u, v))
            << "pair " << u << "," << v;
      }
    }
  }
}

TEST_P(StoreRecoverySchemes, TruncatedTailQuarantinesTheLostRecords) {
  // Cut inside the last segment's second-to-last record. Single-segment
  // schemes lose those two nodes entirely (kInfDist); graceful still
  // answers them from its intact levels, never below the full answer.
  const std::size_t last = store_.num_segments() - 1;
  const std::size_t cut = map_->record(bytes_, last, n_ - 2) + 1;
  ASSERT_LT(cut, map_->record(bytes_, last, n_ - 1));
  write_bytes(path_, bytes_.substr(0, cut));

  EXPECT_THROW(SketchStore::load_file(path_), StoreCorruptionError);
  const SketchStore::Recovery rec = SketchStore::recover_file(path_);
  EXPECT_FALSE(rec.checksum_ok);
  ASSERT_EQ(rec.quarantined, (std::vector<NodeId>{n_ - 2, n_ - 1}));
  for (NodeId u = 0; u < n_; ++u) {
    for (NodeId v = 0; v < n_; v += 3) {
      const bool lost = u != v && (u + 2 >= n_ || v + 2 >= n_);
      if (!lost) {
        EXPECT_EQ(rec.store.query(u, v), store_.query(u, v));
      } else if (GetParam() == Scheme::kGraceful) {
        EXPECT_GE(rec.store.query(u, v), store_.query(u, v));
      } else {
        EXPECT_EQ(rec.store.query(u, v), kInfDist);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, StoreRecoverySchemes,
                         ::testing::Values(Scheme::kThorupZwick,
                                           Scheme::kSlack, Scheme::kCdg,
                                           Scheme::kGraceful));

// The prefetching batch path answers exactly like the per-pair path for
// every scheme and every way a store comes to be, at batch sizes on both
// sides of its prefetch distances (8 and 16 pairs ahead).
TEST(SketchStore, QueryBatchEqualsQuery) {
  const Graph g = erdos_renyi(60, 0.1, {1, 7}, 29);
  const NodeId n = g.num_nodes();
  const NodeId victim = 7;
  Rng rng(5);
  std::vector<QueryPair> pairs;
  for (int i = 0; i < 1000; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.below(n)),
                       static_cast<NodeId>(rng.below(n)));
  }
  pairs[3] = {victim, 11};
  pairs[12] = {12, victim};
  for (const Scheme scheme : {Scheme::kThorupZwick, Scheme::kSlack,
                              Scheme::kCdg, Scheme::kGraceful}) {
    const SketchStore built(g, config_for(scheme));
    const TempPath path = unique_temp_path("batch.bin");
    built.save_file(path);
    const SketchStore loaded = SketchStore::load_file(path);
    const std::unique_ptr<SketchStore> mapped = SketchStore::open(path);
    // Recovered: the victim's record stomped in every segment.
    std::string bytes;
    {
      std::ifstream in(path.str(), std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    const V3Map map(bytes, n, built.num_segments());
    std::string broken = bytes;
    for (std::size_t s = 0; s < built.num_segments(); ++s) {
      for (std::size_t i = map.record(bytes, s, victim);
           i < map.record(bytes, s, victim + 1); ++i) {
        broken[i] = static_cast<char>(0xff);
      }
    }
    write_bytes(path, broken);
    const SketchStore::Recovery recovered = SketchStore::recover_file(path);
    ASSERT_EQ(recovered.quarantined, std::vector<NodeId>{victim});
    ASSERT_EQ(recovered.store.query(victim, 11), kInfDist);

    const SketchStore* const stores[] = {&built, &loaded, mapped.get(),
                                         &recovered.store};
    for (const SketchStore* store : stores) {
      for (const std::size_t size : {0, 1, 7, 8, 9, 16, 17, 1000}) {
        const std::span<const QueryPair> batch =
            std::span(pairs).first(size);
        std::vector<Dist> out(size, 12345);
        store->query_batch(batch, out);
        for (std::size_t i = 0; i < size; ++i) {
          EXPECT_EQ(out[i], store->query(batch[i].first, batch[i].second))
              << scheme_name(scheme) << " batch of " << size << " pair "
              << i;
        }
      }
    }
  }
}

TEST(SketchStoreRecoveryGraceful, TailTruncationKeepsEarlierLevels) {
  // Graceful stores hold one segment per epsilon level; each level alone
  // is a complete (coarser) oracle. Cutting the file inside the last
  // segment must still recover a serving store whose answers are valid
  // overestimates of the original's.
  const Graph g = erdos_renyi(40, 0.1, {1, 5}, 7);
  BuildConfig cfg;
  cfg.scheme = Scheme::kGraceful;
  cfg.k = 2;
  cfg.epsilon = 0.25;
  const SketchStore store(g, cfg);
  ASSERT_GE(store.num_segments(), 2u);
  const TempPath path = unique_temp_path("graceful.bin");
  store.save_file(path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 10));
  out.close();

  const SketchStore::Recovery rec = SketchStore::recover_file(path);
  EXPECT_FALSE(rec.checksum_ok);
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (NodeId v = u; v < g.num_nodes(); v += 4) {
      EXPECT_GE(rec.store.query(u, v), store.query(u, v));
    }
  }
}

TEST(SketchStoreAtomicSave, OverwriteLeavesNoTempAndOldOrNewStore) {
  // save_file over an existing store must go through the temp+rename
  // dance: afterwards the temp file is gone and the target parses clean.
  const Graph g = ring(20, {1, 3}, 11);
  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = 2;
  const SketchStore store(g, cfg);
  const TempPath path = unique_temp_path("atomic.bin");
  store.save_file(path);
  store.save_file(path);  // overwrite in place
  std::ifstream tmp(path.str() + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temp file left behind";
  const SketchStore back = SketchStore::load_file(path);
  EXPECT_EQ(back.num_nodes(), store.num_nodes());
}

TEST(SketchStoreFiles, SaveAndLoadFile) {
  const Graph g = ring(30, {1, 4}, 5);
  BuildConfig cfg;
  cfg.scheme = Scheme::kSlack;
  cfg.epsilon = 0.3;
  const SketchStore store(g, cfg);
  const TempPath path = unique_temp_path("store.bin");
  store.save_file(path);
  const SketchStore back = SketchStore::load_file(path);
  for (NodeId u = 0; u < g.num_nodes(); u += 2) {
    for (NodeId v = u; v < g.num_nodes(); v += 3) {
      EXPECT_EQ(back.query(u, v), store.query(u, v));
    }
  }
  EXPECT_THROW(SketchStore::load_file(path.str() + ".missing"), std::runtime_error);
}

TEST(SketchStoreProvenance, RecordedEpsilonSurvivesConversion) {
  // Every store records an epsilon — the build's, or 0 for one packed
  // from a bare TZ label set — and a file round trip, a re-pack and a
  // mapping all keep it.
  const Graph g = ring(24, {1, 3}, 6);
  const std::uint32_t k = 2;
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, 7);
  const SketchStore labels = SketchStore::from_oracle(
      TzLabelOracle(build_tz_centralized(g, h), k));
  BuildConfig cfg;
  cfg.scheme = Scheme::kSlack;
  cfg.epsilon = 0.25;
  const SketchStore built(g, cfg);

  for (const SketchStore* store : {&labels, &built}) {
    const double epsilon = store == &built ? 0.25 : 0.0;
    const TempPath path = unique_temp_path("provenance.store");
    store->save_file(path);
    const SketchStore back = SketchStore::load_file(path);
    const SketchStore repacked = SketchStore::from_oracle(back);
    const auto mapped = SketchStore::open(path);
    EXPECT_DOUBLE_EQ(back.epsilon(), epsilon);
    EXPECT_DOUBLE_EQ(repacked.epsilon(), epsilon);
    EXPECT_DOUBLE_EQ(mapped->epsilon(), epsilon);
  }
}

TEST(SketchStorePacking, TzLabelOraclePacksAndAnswersIdentically) {
  // A bare TZ label set (the distributed build's output, or a dynamic
  // sketch snapshot) must pack into the store and answer bit-identically.
  const Graph g = erdos_renyi(70, 0.08, {1, 9}, 41);
  const std::uint32_t k = 3;
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, 42);
  const LabelArena labels = build_tz_centralized(g, h);
  const TzLabelOracle oracle(labels, k);
  const SketchStore store = SketchStore::from_oracle(oracle);
  EXPECT_EQ(store.scheme(), "tz");
  EXPECT_EQ(store.k(), k);
  EXPECT_EQ(store.num_nodes(), g.num_nodes());
  // A label set has no build epsilon; the store records 0.
  EXPECT_EQ(store.epsilon(), 0.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(store.size_words(u), oracle.size_words(u)) << "node " << u;
    for (NodeId v = u; v < g.num_nodes(); v += 3) {
      EXPECT_EQ(store.query(u, v), oracle.query(u, v))
          << "pair " << u << "," << v;
    }
  }
}

TEST(SketchStorePacking, TzLabelStoreSurvivesBinaryRoundTrip) {
  const Graph g = grid2d(6, 6, {1, 5}, 43);
  const std::uint32_t k = 2;
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, 44);
  const TzLabelOracle oracle(build_tz_centralized(g, h), k);
  const SketchStore store = SketchStore::from_oracle(oracle);
  std::stringstream ss;
  store.write(ss);
  const SketchStore back = SketchStore::read(ss);
  EXPECT_EQ(back.scheme(), "tz");
  EXPECT_EQ(back.k(), k);
  EXPECT_EQ(back.epsilon(), 0.0);
  for (NodeId u = 0; u < g.num_nodes(); u += 2) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 3) {
      EXPECT_EQ(back.query(u, v), oracle.query(u, v));
    }
  }
}

TEST(SketchStorePacking, CopiesShareTheirSourcesRecordBytes) {
  // A slab never changes, so a copy of anything holding one reads the
  // very bytes of its source instead of a copy of them.
  const Graph g = erdos_renyi(60, 0.1, {1, 9}, 45);
  const TzLabelOracle oracle(
      build_tz_centralized(g, Hierarchy::sample(g.num_nodes(), 2, 46)), 2);
  const std::uint8_t* labels = oracle.labels().slab().record(0);
  EXPECT_EQ(SketchStore::from_oracle(oracle).payload().tz.slab().record(0),
            labels);
  const LabelArena copy = oracle.labels();
  EXPECT_EQ(copy.slab().record(0), labels);

  const SketchStore built(g, config_for(Scheme::kThorupZwick));
  EXPECT_EQ(SketchStore::from_oracle(built).payload().segment(0).record(0),
            built.payload().segment(0).record(0));

  const TzDynamicSketch sketch(g, 2, 7);
  const auto snapshot = std::dynamic_pointer_cast<const TzLabelOracle>(
      sketch.snapshot());
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->labels().slab().record(0),
            sketch.labels().slab().record(0));
}

TEST(SketchStoreMapped, FourLanesServeAMappingAcrossHotSwaps) {
  // A 4-lane service serves a mapped store while another thread swaps it
  // with a heap-loaded store of the same file and with fresh mappings.
  // Every batch must equal the Lemma 3.2 query over the built labels, and
  // a mapping must stay valid for as long as anything pins it.
  const Graph g = erdos_renyi(300, 0.03, {1, 9}, 13);
  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = 3;
  const SketchStore built(g, cfg);
  const TempPath path = unique_temp_path("mapped.store");
  built.save_file(path);

  Rng rng(17);
  std::vector<QueryPair> pairs(512);
  for (auto& [u, v] : pairs) {
    u = static_cast<NodeId>(rng.below(g.num_nodes()));
    v = static_cast<NodeId>(rng.below(g.num_nodes()));
  }
  const LabelArena& labels = built.payload().tz;
  std::vector<Dist> expect(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    expect[i] =
        tz_query(labels.view(pairs[i].first), labels.view(pairs[i].second));
  }

  const std::shared_ptr<const DistanceOracle> heap =
      std::make_shared<const SketchStore>(SketchStore::load_file(path));
  std::shared_ptr<const DistanceOracle> first = SketchStore::open(path);
  const std::weak_ptr<const DistanceOracle> first_alive = first;
  QueryServiceConfig qcfg;
  qcfg.shards = 8;
  qcfg.threads = 4;
  qcfg.cache_capacity = 64;
  QueryService service(std::move(first), qcfg);

  // A snapshot pins the first mapping; the service lets go of it at the
  // first swap below.
  OracleSnapshot pinned = service.snapshot();
  std::atomic<bool> done{false};
  std::thread swapper([&] {
    // At least two swaps, so the slot's current and previous snapshots
    // both move past the first mapping.
    for (int i = 0; i < 2 || !done.load(); ++i) {
      if (i % 2 == 0) {
        service.swap(heap);
      } else {
        service.swap(SketchStore::open(path));
      }
    }
  });
  std::vector<Dist> answers(pairs.size());
  for (int batch = 0; batch < 60; ++batch) {
    service.query_batch(pairs, answers);
    ASSERT_EQ(answers, expect) << "batch " << batch;
  }
  done.store(true);
  swapper.join();

  // The pinned mapping still answers, through the store and through a
  // copy of its label arena; both share the mapped bytes.
  ASSERT_FALSE(first_alive.expired());
  const auto& mapped = dynamic_cast<const SketchStore&>(*pinned.oracle);
  LabelArena copy = mapped.payload().tz;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(pinned.oracle->query(pairs[i].first, pairs[i].second),
              expect[i]);
  }
  pinned = OracleSnapshot{};
  EXPECT_TRUE(first_alive.expired());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(tz_query(copy.view(pairs[i].first), copy.view(pairs[i].second)),
              expect[i]);
  }
  // Forwarding reads the same borrowed labels.
  EXPECT_EQ(next_hop(g, copy, 0, 0), next_hop(g, labels, 0, 0));
}

}  // namespace
}  // namespace dsketch
