// The v5 store format — the label plane's packed records behind
// page-aligned offset tables — and its two ways of serving a file: one
// heap buffer (SketchStore::read) and one mapping (SketchStore::open),
// both answering through the same query kernel over the same bytes. The
// contract under test is byte-identical answers between the builder and
// the two, for every scheme, files that reload and re-save byte for byte,
// plus typed rejection (or safe kInfDist answers) for every corruption
// the fuzz loops can produce. The record readers run under ASan in CI,
// so the corruption loops double as out-of-bounds probes.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/oracle_registry.hpp"
#include "dynamics/incremental.hpp"
#include "graph/generators.hpp"
#include "serve/sketch_store.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/tz_centralized.hpp"
#include "test_paths.hpp"
#include "test_records.hpp"

namespace dsketch {
namespace {

// ---------------------------------------------------------------------------
// the packed record: a synthetic tz label with the wrinkles the packer
// must survive — invalid pivots, non-monotone pivot distances (the
// post-repair shape), a distance past 32 bits.

TzLabelBuilder synthetic_label() {
  TzLabelBuilder label(0, 3);
  label.set_pivot(0, DistKey{0, 7});
  // pivot 1 stays invalid
  label.set_pivot(2, DistKey{5, 2});  // distance *smaller* than p0's
  label.add_bunch_entry({4, 11});
  label.add_bunch_entry({9, 3});
  label.add_bunch_entry({12, (Dist{1} << 33) + 5});
  return label;
}

/// `label`'s packed record, followed by the 8 readable tail bytes.
std::vector<std::uint8_t> packed(const TzLabelBuilder& label) {
  const std::span<const std::uint8_t> rec = label.view().bytes();
  std::vector<std::uint8_t> bytes(rec.begin(), rec.end());
  bytes.resize(bytes.size() + 8, 0);
  return bytes;
}

void expect_same_cells(const LabelView& v, const TzLabelBuilder& b) {
  ASSERT_EQ(v.levels, b.levels());
  ASSERT_EQ(v.count, b.bunch().size());
  for (std::uint32_t i = 0; i < v.levels; ++i) {
    EXPECT_TRUE(v.pivot(i) == b.pivot(i)) << "pivot " << i;
  }
  for (std::uint32_t i = 0; i < v.count; ++i) {
    EXPECT_TRUE(v.entry(i) == b.bunch()[i]) << "entry " << i;
  }
}

TEST(RecordCodec, TzRoundTripsBitExactly) {
  const TzLabelBuilder label = synthetic_label();
  // Fields up to 64 bits wide round-trip too.
  TzLabelBuilder wide(3, 2);
  wide.set_pivot(0, DistKey{kInfDist - 1, 3});
  wide.set_pivot(1, DistKey{kInfDist, 0xfffffffe});
  wide.add_bunch_entry({0, Dist{1} << 63});
  wide.add_bunch_entry({0xfffffffe, kInfDist - 1});
  const LabelArena arena = arena_of({label.view(), wide.view()});
  const LabelView v = arena.view(0);
  expect_same_cells(v, label);
  EXPECT_EQ(v.pivot(1).id, kInvalidNode);
  EXPECT_EQ(v.pivot(1).dist, kInfDist);
  EXPECT_EQ(v.bunch_dist(12), (Dist{1} << 33) + 5);
  EXPECT_TRUE(LabelView::valid(v.bytes().data(), v.bytes().size()));
  // The packing must actually compress vs the builder's 16-byte cells.
  EXPECT_LT(v.bytes().size(), (3 + 3) * sizeof(BunchEntry));
  // A bunch holds each node once: the label with node 9 repeated is
  // refused before it can be packed.
  TzLabelBuilder repeated = synthetic_label();
  repeated.add_bunch_entry({9, 3});
  EXPECT_DEATH(repeated.sort_bunch(), "DS_CHECK");

  expect_same_cells(arena.view(1), wide);
  EXPECT_EQ(arena.view(1).bunch_dist(0xfffffffe), kInfDist - 1);
  EXPECT_EQ(arena.view(1).bunch_dist(0), Dist{1} << 63);
  EXPECT_EQ(arena.view(1).bunch_dist(5), kInfDist);

  // Slack rows: a 64-bit-wide row keeps its largest finite distance.
  RecordSlabWriter rows;
  const Dist row[] = {kInfDist - 1, kInfDist, 0};
  SlackSketchSet::append_row(rows, row);
  const SlackSketchSet slack({1, 2, 3}, std::move(rows).finish());
  EXPECT_EQ(slack.row(0).at(0), kInfDist - 1);
  EXPECT_EQ(slack.row(0).at(1), kInfDist);
  EXPECT_EQ(slack.row(0).at(2), 0u);
}

TEST(RecordCodec, DecodeRejectsEveryTruncation) {
  // A record cut anywhere fails the checked load and reads as the empty
  // label in the kernel: kInfDist, never a partial label.
  const std::vector<std::uint8_t> bytes = packed(synthetic_label());
  const std::size_t size = bytes.size() - 8;
  for (std::size_t keep = 0; keep < size; ++keep) {
    EXPECT_FALSE(LabelView::valid(bytes.data(), keep)) << "kept " << keep;
    const LabelView v(0, bytes.data(), keep);
    EXPECT_EQ(v.levels, 0u) << "kept " << keep;
    EXPECT_EQ(v.count, 0u) << "kept " << keep;
  }
  EXPECT_TRUE(LabelView::valid(bytes.data(), size));
  EXPECT_FALSE(LabelView::valid(bytes.data(), size - 1));
}

TEST(RecordCodec, DecodeRejectsUnsortedBunch) {
  // A label view binary-searches its bunch; a record whose entries are
  // out of id order must not pass the checked load.
  TzLabelBuilder label(0, 0);
  label.add_bunch_entry({3, 1});
  label.add_bunch_entry({5, 1});
  std::vector<std::uint8_t> bytes = packed(label);
  const std::size_t size = bytes.size() - 8;
  ASSERT_TRUE(LabelView::valid(bytes.data(), size));
  // The id column starts right after the header (no pivots): entries
  // store id - 3 at 2 bits each. Swap them to (5, 3).
  write_bits(bytes.data() + kTzHeaderBytes, 0, 2, 2);
  write_bits(bytes.data() + kTzHeaderBytes, 2, 2, 0);
  EXPECT_EQ(LabelView(0, bytes.data(), size).entry(0).node, 5u);
  EXPECT_FALSE(LabelView::valid(bytes.data(), size));
}

TEST(RecordCodec, DecodeRejectsRepeatedId) {
  // Bunch ids are strictly increasing: a record that repeats one fails
  // the record check, and a file holding it fails the checked load.
  TzLabelBuilder label(0, 0);
  label.add_bunch_entry({3, 1});
  label.add_bunch_entry({5, 1});
  std::vector<std::uint8_t> bytes = packed(label);
  const std::size_t size = bytes.size() - 8;
  ASSERT_TRUE(LabelView::valid(bytes.data(), size));
  // Entries store id - 3 at 2 bits each: make the second id 3 as well.
  write_bits(bytes.data() + kTzHeaderBytes, 2, 2, 0);
  const LabelView repeated(0, bytes.data(), size);
  EXPECT_EQ(repeated.entry(1).node, 3u);
  EXPECT_FALSE(LabelView::valid(bytes.data(), size));

  std::stringstream ss;
  SketchStore::from_oracle(TzLabelOracle(arena_of({repeated}), 0)).write(ss);
  try {
    SketchStore::read(ss);
    FAIL() << "a record with a repeated bunch id must not load";
  } catch (const StoreCorruptionError& e) {
    EXPECT_EQ(e.kind(), StoreError::kStructure);
  }
}

TEST(RecordCodec, DecodeSurvivesRandomBytes) {
  // Arbitrary bytes read through the kernel's per-record checks either
  // as some label or as the empty one — never a crash or an out-of-
  // bounds read (ASan-checked). The checked load may accept or refuse.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&] {
    state ^= state << 13; state ^= state >> 7; state ^= state << 17;
    return static_cast<std::uint8_t>(state);
  };
  const std::vector<std::uint8_t> anchor = packed(synthetic_label());
  const LabelView other(1, anchor.data(), anchor.size() - 8);
  for (int trial = 0; trial < 2000; ++trial) {
    // Exactly size bytes plus the 8-byte tail a slab guarantees.
    std::vector<std::uint8_t> bytes(trial % 53 + 8);
    for (auto& b : bytes) b = next();
    if (trial % 3 == 0 && bytes.size() > kTzHeaderBytes) {
      bytes[0] %= 4;  // small level, width and count fields reach deeper
      bytes[1] %= 8;  // code
      bytes[2] %= 20;
      bytes[3] %= 8;
      bytes[4] = bytes[5] = bytes[6] = 0;
    }
    const std::size_t size = bytes.size() - 8;
    (void)LabelView::valid(bytes.data(), size);
    const LabelView v(0, bytes.data(), size);
    (void)tz_query(v, other);
    (void)tz_query(other, v);
    (void)tz_query_exhaustive(v, other);
    for (NodeId w = 0; w < 16; ++w) (void)v.bunch_dist(w);
    const SlackRow row(bytes.data(), size, 3);
    (void)slack_query(row, row);
    (void)SlackRow::valid(bytes.data(), size, 3);
    const CdgRecord cdg(bytes.data(), size);
    (void)cdg_query(cdg, cdg);
    (void)CdgRecord::valid(bytes.data(), size);
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
  // A loaded store serves the file's own records, so saving it re-emits
  // the exact bytes — through read(), through the registry's load of what
  // save() wrote, and from a mapping alike.
  std::stringstream a, b, c, saved;
  store_.write(a);
  SketchStore::read(a).write(b);
  EXPECT_EQ(a.str(), b.str());
  built_.save(saved);
  OracleRegistry::instance().load(saved).oracle->save(c);
  EXPECT_EQ(a.str(), c.str());

  const TempPath path = unique_temp_path("store.bin");
  const TempPath again = unique_temp_path("again.bin");
  store_.save_file(path);
  SketchStore::load_file(path).save_file(again);
  const auto slurp = [](const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(slurp(again), a.str());
  SketchStore::open(path)->save_file(again);
  EXPECT_EQ(slurp(again), a.str());
  EXPECT_EQ(a.str().size(), 64 + store_.encoded_bytes());
}

TEST_P(StoreV3Schemes, SizeWordsAgreeAcrossOracleHeapAndMmap) {
  // One sketch, one size: the paper's accounting everywhere.
  const TempPath path = unique_temp_path("store.bin");
  store_.save_file(path);
  const SketchStore heap = SketchStore::load_file(path);
  const auto mapped = SketchStore::open(path);
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
  const auto mapped = SketchStore::open(path, /*verify_checksum=*/true);
  EXPECT_EQ(mapped->scheme(), heap.scheme());
  EXPECT_EQ(mapped->num_nodes(), heap.num_nodes());
  EXPECT_EQ(mapped->num_segments(), heap.num_segments());
  EXPECT_EQ(mapped->k(), heap.k());
  for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
    EXPECT_EQ(mapped->size_words(u), heap.size_words(u)) << "node " << u;
    EXPECT_EQ(mapped->encoded_record_bytes(u), heap.encoded_record_bytes(u))
        << "node " << u;
    for (NodeId v = u; v < graph_.num_nodes(); v += 3) {
      EXPECT_EQ(mapped->query(u, v), heap.query(u, v))
          << "pair " << u << "," << v;
      EXPECT_EQ(heap.query(u, v), built_.query(u, v))
          << "pair " << u << "," << v;
    }
  }
}

/// This store's file under the header of an older format version: its
/// magic ("DSKSTOR1" .. "DSKSTOR4") and version word, with the header
/// checksum an old writer would have stored.
std::string legacy_file(const SketchStore& store, char version) {
  std::stringstream ss;
  store.write(ss);
  std::string bytes = ss.str();
  bytes[7] = version;
  bytes[8] = static_cast<char>(version - '0');
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t i = 8; i < 56; ++i) {
    hash ^= static_cast<std::uint8_t>(bytes[i]);
    hash *= 1099511628211ULL;
  }
  for (int i = 0; i < 8; ++i) {
    bytes[56 + i] = static_cast<char>((hash >> (8 * i)) & 0xff);
  }
  return bytes;
}

TEST_P(StoreV3Schemes, MmapRejectsLegacyFormats) {
  const TempPath path = unique_temp_path("legacy.bin");
  for (const char version : {'1', '2', '3', '4'}) {
    std::ofstream(path, std::ios::binary) << legacy_file(store_, version);
    try {
      SketchStore::open(path);
      FAIL() << "v" << version << " file must not mmap-open";
    } catch (const StoreCorruptionError& e) {
      EXPECT_EQ(e.kind(), StoreError::kUnsupportedVersion);
    }
  }
}

TEST_P(StoreV3Schemes, HeapLoadersRejectLegacyFormats) {
  // Stores are rebuildable artifacts: v1-v4 files are refused with a
  // typed error by the stream and file loaders and by recovery alike. A
  // v4 record carries a level column the v5 reader would misread.
  const TempPath path = unique_temp_path("legacy.bin");
  for (const char version : {'1', '2', '3', '4'}) {
    const std::string bytes = legacy_file(store_, version);
    std::ofstream(path, std::ios::binary) << bytes;
    for (const int loader : {0, 1, 2}) {
      try {
        if (loader == 0) {
          std::stringstream in(bytes);
          SketchStore::read(in);
        } else if (loader == 1) {
          SketchStore::load_file(path);
        } else {
          SketchStore::recover_file(path);
        }
        FAIL() << "v" << version << " file must not load (loader "
               << loader << ")";
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
// corruption: the byte-level map needed to aim at specific sections

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
    // Segment framing for a meta-free tz store: u64 meta_count,
    // u64 blob_bytes, pad to the next 4096 file boundary, the offset
    // table (n+1 u64 byte offsets), pad, blob (records, 8-byte tail).
    ASSERT_EQ(u64_at(64), 0u) << "tz segment has no meta";
    blob_bytes_ = u64_at(72);
    offsets_pos_ = 4096;
    blob_pos_ = offsets_pos_ + 8 * (n_ + 1);
    blob_pos_ += (4096 - blob_pos_ % 4096) % 4096;
    ASSERT_EQ(offset_of(0), 0u);
    ASSERT_EQ(offset_of(n_) + 8, blob_bytes_);
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
    EXPECT_THROW(SketchStore::open(path_), StoreCorruptionError)
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
    SketchStore::open(path_);
    FAIL() << "non-monotone offsets must not open";
  } catch (const StoreCorruptionError& e) {
    EXPECT_EQ(e.kind(), StoreError::kStructure);
  }
}

TEST_F(StoreV3Corruption, MmapOffsetAndBlobFlipsNeverReadOutOfBounds) {
  // Single-byte flips across the offset table and the blob. Each one
  // either fails the eager framing walk (typed throw) or opens and then
  // answers every probe without crashing — corrupt records answer a
  // distance or kInfDist, and ASan guards the kernel against any stray
  // read.
  for (std::size_t pos = offsets_pos_; pos < bytes_.size(); pos += 131) {
    std::string mut = bytes_;
    mut[pos] = static_cast<char>(mut[pos] ^ 0x11);
    write_file(mut);
    try {
      const auto mapped = SketchStore::open(path_);
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
  // Stomp one node's packed record with all-ones garbage: the
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
  // A label read in place off the file bytes is the builder's label, and
  // every representation bills it the same words.
  const auto mapped = SketchStore::open(path_);
  const LabelArena& labels = store_.payload().tz;
  const auto* blob = reinterpret_cast<const std::uint8_t*>(bytes_.data()) +
                     blob_pos_;
  for (NodeId u = 0; u < n_; ++u) {
    const std::size_t size = offset_of(u + 1) - offset_of(u);
    ASSERT_TRUE(LabelView::valid(blob + offset_of(u), size)) << "node " << u;
    const LabelView v(u, blob + offset_of(u), size);
    EXPECT_TRUE(v == labels.view(u)) << "node " << u;
    EXPECT_TRUE(v == mapped->payload().tz.view(u)) << "node " << u;
    EXPECT_EQ(v.size_words(), store_.size_words(u)) << "node " << u;
    EXPECT_EQ(mapped->size_words(u), store_.size_words(u)) << "node " << u;
  }
}

TEST_F(StoreV3Corruption, MmapRandomRecordBytesAnswerWithoutOverreads) {
  // Random bytes over whole records, framing intact: the mapped store
  // opens (records are not validated eagerly) and every query answers a
  // distance or kInfDist off the kernel's per-record checks. The heap
  // loader refuses the same file.
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  for (int trial = 0; trial < 8; ++trial) {
    std::string mut = bytes_;
    for (std::size_t i = blob_pos_; i < blob_pos_ + offset_of(n_); ++i) {
      state ^= state << 13; state ^= state >> 7; state ^= state << 17;
      // Every other trial keeps the header fields small, so records
      // reach the column reads instead of failing the width check.
      mut[i] = static_cast<char>(trial % 2 == 0 ? state : state % 5);
    }
    write_file(mut);
    const auto mapped = SketchStore::open(path_);
    for (NodeId u = 0; u < n_; ++u) {
      for (NodeId v = 0; v < n_; ++v) (void)mapped->query(u, v);
      (void)mapped->size_words(u);
    }
    EXPECT_THROW(SketchStore::load_file(path_), StoreCorruptionError);
  }
}

TEST(StoreSegments, TwoSegmentTzFileIsRejectedEverywhere) {
  // A tz store has exactly one segment. Duplicate the segment of a real
  // file, fix up the header and both checksums: the parser shared by
  // read(), open() and recover_file() must refuse it as a structural
  // fault.
  const Graph g = erdos_renyi(200, 0.03, {1, 9}, 5);
  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = 3;
  std::stringstream ss;
  SketchStore(g, cfg).write(ss);
  std::string bytes = ss.str();
  // The segment ends on a page boundary. A second copy starts there, so
  // its 16-byte head (meta count 0, blob size) pads to the next page;
  // from its offset table on, the sections repeat whole.
  const std::string payload = bytes.substr(64);
  bytes += payload.substr(0, 16) + std::string(4096 - 16, '\0') +
           payload.substr(4096 - 64);
  const auto patch_u64 = [&](std::size_t pos, std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      bytes[pos + i] = static_cast<char>((x >> (8 * i)) & 0xff);
    }
  };
  const auto fnv = [&](std::size_t begin, std::size_t end) {
    std::uint64_t hash = 14695981039346656037ULL;
    for (std::size_t i = begin; i < end; ++i) {
      hash ^= static_cast<std::uint8_t>(bytes[i]);
      hash *= 1099511628211ULL;
    }
    return hash;
  };
  bytes[24] = 2;  // u32 segments
  patch_u64(40, bytes.size() - 64);
  patch_u64(48, fnv(64, bytes.size()));
  patch_u64(56, fnv(8, 56));
  const TempPath path = unique_temp_path("two_segments.bin");
  std::ofstream(path, std::ios::binary) << bytes;

  const auto expect_structure = [](const auto& load) {
    try {
      load();
      FAIL() << "a two-segment tz store must not load";
    } catch (const StoreCorruptionError& e) {
      EXPECT_EQ(e.kind(), StoreError::kStructure);
    }
  };
  expect_structure([&] {
    std::stringstream in(bytes);
    SketchStore::read(in);
  });
  expect_structure([&] { SketchStore::load_file(path); });
  expect_structure([&] { SketchStore::open(path); });
  expect_structure([&] { SketchStore::open(path, true); });
  expect_structure([&] { SketchStore::recover_file(path); });
}

// ---------------------------------------------------------------------------
// pinned bytes: FNV-1a 64 of the whole v5 file for a fixed seeded build
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

TEST(StorePinnedBytes, V5FilesMatchTheRecordedEncoding) {
  const Graph g = erdos_renyi(80, 0.08, {1, 9}, 17);
  const std::pair<Scheme, std::uint64_t> pinned[] = {
      {Scheme::kThorupZwick, 0x15f21e5f9a7c7199ULL},
      {Scheme::kSlack, 0x765803565d0866c4ULL},
      {Scheme::kCdg, 0x07f05023911e5af1ULL},
      {Scheme::kGraceful, 0x6c1746abe14849d1ULL},
  };
  for (const auto& [scheme, fnv] : pinned) {
    EXPECT_EQ(file_fnv(SketchStore(g, config_for(scheme))), fnv)
        << scheme_name(scheme);
  }
  // A bare label set (recorded with epsilon 0) packs into the same
  // layout, its header flags bit set like every store's.
  const std::uint32_t k = 3;
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, 42);
  const TzLabelOracle labels(build_tz_centralized(g, h), k);
  EXPECT_EQ(file_fnv(SketchStore::from_oracle(labels)), 0x8dd8a11a02225201ULL);
}

}  // namespace
}  // namespace dsketch
