#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sketch/tz_label.hpp"
#include "test_records.hpp"
#include "util/thread_pool.hpp"

namespace dsketch {
namespace {

TEST(DistKey, LexicographicOrder) {
  EXPECT_TRUE((DistKey{1, 5} < DistKey{2, 0}));
  EXPECT_TRUE((DistKey{2, 0} < DistKey{2, 1}));
  EXPECT_FALSE((DistKey{2, 1} < DistKey{2, 1}));
  EXPECT_TRUE((DistKey{2, 1} == DistKey{2, 1}));
}

TEST(DistKey, DefaultIsInfinite) {
  const DistKey inf;
  EXPECT_TRUE((DistKey{kInfDist - 1, 0} < inf));
}

TEST(TzLabelBuilder, StoresPivotsAndBunch) {
  TzLabelBuilder l(3, 2);
  l.set_pivot(0, {0, 3});
  l.set_pivot(1, {7, 9});
  l.add_bunch_entry({9, 7});
  l.add_bunch_entry({4, 2});
  l.sort_bunch();
  const LabelView v = l.view();
  EXPECT_EQ(l.owner(), 3u);
  EXPECT_EQ(l.levels(), 2u);
  EXPECT_EQ(v.bunch_dist(9), 7u);
  EXPECT_EQ(v.bunch_dist(4), 2u);
  EXPECT_EQ(v.bunch_dist(5), kInfDist);
  EXPECT_NE(v.bunch_dist(4), kInfDist);
}

TEST(TzLabelBuilder, SizeWordsAccounting) {
  TzLabelBuilder l(0, 3);
  EXPECT_EQ(l.size_words(), 6u);  // 3 pivots x 2 words
  l.add_bunch_entry({1, 5});
  EXPECT_EQ(l.size_words(), 8u);
}

TEST(TzLabelBuilder, SortBunchCanonicalizes) {
  TzLabelBuilder a(0, 2), b(0, 2);
  a.add_bunch_entry({5, 9});
  a.add_bunch_entry({2, 3});
  b.add_bunch_entry({2, 3});
  b.add_bunch_entry({5, 9});
  EXPECT_FALSE(a.sorted());
  a.sort_bunch();
  b.sort_bunch();
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.view().bunch_dist(5), 9u);
}

TEST(TzLabelBuilder, InOrderInsertionStaysSorted) {
  TzLabelBuilder l(0, 2);
  l.add_bunch_entry({2, 3});
  l.add_bunch_entry({5, 9});
  EXPECT_TRUE(l.sorted());
  // A bunch holds each node once: a repeated id breaks the order and the
  // builder refuses to canonicalize it.
  l.add_bunch_entry({5, 9});
  EXPECT_FALSE(l.sorted());
  EXPECT_DEATH(l.sort_bunch(), "DS_CHECK");
}

TEST(LabelView, BunchDistMatchesALinearScan) {
  // The branchless search against the definition: the distance of the
  // entry for w, kInfDist when w is absent — every bunch size up to a few
  // cache lines, every probe in and around the ids.
  for (std::uint32_t count = 0; count <= 40; ++count) {
    TzLabelBuilder l(0, 1);
    for (std::uint32_t i = 0; i < count; ++i) {
      const NodeId node = 2 * i + 1;  // odd ids
      l.add_bunch_entry({node, 100 * node + i % 3});
    }
    const LabelView v = l.view();
    for (NodeId w = 0; w <= 2 * count + 2; ++w) {
      Dist expect = kInfDist;
      for (std::uint32_t i = 0; i < count && expect == kInfDist; ++i) {
        if (v.entry(i).node == w) expect = v.entry(i).dist;
      }
      EXPECT_EQ(v.bunch_dist(w), expect) << "count " << count << " w " << w;
    }
    if (count < 2) continue;
    // The search needs strictly increasing ids: the same record with its
    // second id overwritten by the first is rejected.
    const std::span<const std::uint8_t> rec = v.bytes();
    std::vector<std::uint8_t> bytes(rec.begin(), rec.end());
    bytes.resize(rec.size() + kRecordTail, 0);
    const TzRecordLayout layout = TzRecordLayout::read(bytes.data());
    write_bits(bytes.data() + layout.ids, layout.id_w, layout.id_w, 0);
    EXPECT_FALSE(LabelView::valid(bytes.data(), rec.size()))
        << "count " << count;
  }
}

TEST(RecordSlabWriter, SealsRecordsBackToBack) {
  // A sealed slab holds the written records back to back in order, each
  // one packed record, and labels of different level counts (a
  // quarantined empty record) coexist.
  TzLabelBuilder a(0, 2);
  a.set_pivot(0, {0, 0});
  a.set_pivot(1, {4, 3});
  a.add_bunch_entry({0, 0});
  a.add_bunch_entry({2, 6});
  RecordSlabWriter records;
  records.append(a.view().bytes());
  records.append(TzLabelBuilder(1, 0).view().bytes());
  const LabelArena arena(std::move(records).finish(), 2);
  ASSERT_EQ(arena.num_nodes(), 2u);
  const std::span<const std::uint8_t> blob = arena.slab().blob();
  ASSERT_EQ(blob.size(), a.view().bytes().size() + kTzHeaderBytes + 8);
  EXPECT_TRUE(std::all_of(blob.end() - 8, blob.end(),
                          [](std::uint8_t b) { return b == 0; }));
  const LabelView v0 = arena.view(0);
  EXPECT_EQ(v0.bytes().data(), arena.slab().record(0));
  EXPECT_EQ(v0.bytes().size(), arena.slab().record_size(0));
  EXPECT_EQ(arena.slab().record(1), arena.slab().record(0) + v0.bytes().size());
  EXPECT_TRUE(v0 == a.view());
  EXPECT_EQ(arena.view(1).levels, 0u);
  EXPECT_EQ(arena.view(1).owner, 1u);
  EXPECT_EQ(tz_query(arena.view(0), arena.view(1)), kInfDist);
}

TEST(LabelArena, PackPreservesBuilderLabels) {
  std::vector<TzLabelBuilder> builders;
  for (NodeId u = 0; u < 3; ++u) {
    TzLabelBuilder b(u, 2);
    b.set_pivot(0, {0, u});
    b.add_bunch_entry({u, 0});
    if (u == 1) b.add_bunch_entry({0, 4});  // out of order until sorted
    b.sort_bunch();
    builders.push_back(std::move(b));
  }
  ThreadPool calling_thread(1);
  const LabelArena arena = LabelArena::pack(
      3, 2, [&](NodeId u) { return builders[u].parts(); }, calling_thread);
  ASSERT_EQ(arena.num_nodes(), 3u);
  EXPECT_EQ(arena.k(), 2u);
  for (NodeId u = 0; u < 3; ++u) {
    EXPECT_TRUE(arena.view(u) == builders[u].view()) << "node " << u;
  }
  EXPECT_EQ(arena.total_entries(), 4u);
}

TEST(TzQuery, SameNodeIsZero) {
  TzLabelBuilder l(4, 2);
  EXPECT_EQ(tz_query(l.view(), l.view()), 0u);
}

TEST(TzQuery, Level0PivotHit) {
  // u=0, v=1 adjacent at distance 5; v holds u in its bunch.
  TzLabelBuilder lu(0, 2), lv(1, 2);
  lu.set_pivot(0, {0, 0});
  lv.set_pivot(0, {0, 1});
  lv.add_bunch_entry({0, 5});
  lu.add_bunch_entry({0, 0});
  const Dist est = tz_query(lu.view(), lv.view());
  EXPECT_EQ(est, 5u);  // d(u,p0(u)) + d(v,p0(u)) = 0 + 5
}

TEST(TzQuery, FallsThroughToHigherLevel) {
  // Level 0 pivots miss both bunches; level 1 pivot w=9 is shared.
  TzLabelBuilder lu(0, 2), lv(1, 2);
  lu.set_pivot(0, {0, 0});
  lv.set_pivot(0, {0, 1});
  lu.set_pivot(1, {4, 9});
  lv.set_pivot(1, {6, 9});
  lu.add_bunch_entry({9, 4});
  lv.add_bunch_entry({9, 6});
  const TzQueryTrace t = tz_query_trace(lu.view(), lv.view());
  EXPECT_EQ(t.estimate, 10u);
  EXPECT_EQ(t.level, 1u);
}

TEST(TzQuery, SymmetricCheckUsed) {
  // p0(v) in B(u) fires even though p0(u) misses B(v).
  TzLabelBuilder lu(0, 1), lv(1, 1);
  lu.set_pivot(0, {0, 0});
  lv.set_pivot(0, {0, 1});
  lu.add_bunch_entry({1, 8});  // v itself in u's bunch
  lu.add_bunch_entry({0, 0});
  lu.sort_bunch();
  const TzQueryTrace t = tz_query_trace(lu.view(), lv.view());
  EXPECT_EQ(t.estimate, 8u);
  EXPECT_FALSE(t.used_u_pivot);
}

TEST(TzQuery, MalformedReturnsInf) {
  TzLabelBuilder lu(0, 1), lv(1, 1);  // empty labels, invalid pivots
  EXPECT_EQ(tz_query(lu.view(), lv.view()), kInfDist);
}

TEST(TzQueryExhaustive, PicksBestCommonMember) {
  TzLabelBuilder lu(0, 2), lv(1, 2);
  lu.set_pivot(0, {0, 0});
  lv.set_pivot(0, {0, 1});
  lu.set_pivot(1, {10, 9});
  lv.set_pivot(1, {10, 9});
  // Standard query settles on the level-1 pivot 9 (cost 10+10 = 20),
  // but both bunches also share node 7 at cost 4+5 = 9.
  lu.add_bunch_entry({9, 10});
  lv.add_bunch_entry({9, 10});
  lu.add_bunch_entry({7, 4});
  lv.add_bunch_entry({7, 5});
  lu.sort_bunch();
  lv.sort_bunch();
  EXPECT_EQ(tz_query(lu.view(), lv.view()), 20u);
  EXPECT_EQ(tz_query_exhaustive(lu.view(), lv.view()), 9u);
}

TEST(TzQueryExhaustive, SameOwnerIsZero) {
  TzLabelBuilder l(4, 2);
  EXPECT_EQ(tz_query_exhaustive(l.view(), l.view()), 0u);
}

TEST(TzQueryExhaustive, DisjointBunchesInf) {
  TzLabelBuilder lu(0, 1), lv(1, 1);
  lu.add_bunch_entry({2, 3});
  lv.add_bunch_entry({3, 4});
  EXPECT_EQ(tz_query_exhaustive(lu.view(), lv.view()), kInfDist);
}

}  // namespace
}  // namespace dsketch
