#include "sketch/tz_label.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>

#include "util/assert.hpp"

namespace dsketch {

namespace {

bool bunch_order(const BunchEntry& a, const BunchEntry& b) {
  if (a.node != b.node) return a.node < b.node;
  return a.level < b.level;
}

}  // namespace

bool LabelView::valid(const std::uint8_t* rec, std::size_t size) {
  if (size < kTzHeaderBytes) return false;
  const TzRecordLayout l = TzRecordLayout::read(rec);
  if (!l.widths_ok() || l.size != size) return false;
  const LabelView v(kInvalidNode, rec, size);
  if (v.count == 0) return true;
  const std::uint64_t top =
      l.id_base + read_narrow(v.ids_, std::uint64_t{v.count - 1} * l.id_w,
                              low_mask(l.id_w));
  if (top > kInvalidNode) return false;  // ids must fit a u32
  BunchEntry prev = v.entry(0);
  for (std::uint32_t i = 1; i < v.count; ++i) {
    const BunchEntry e = v.entry(i);
    if (bunch_order(e, prev)) return false;
    prev = e;
  }
  return true;
}

bool operator==(const LabelView& a, const LabelView& b) {
  if (a.owner != b.owner || a.levels != b.levels || a.count != b.count) {
    return false;
  }
  for (std::uint32_t i = 0; i < a.levels; ++i) {
    if (!(a.pivot(i) == b.pivot(i))) return false;
  }
  for (std::uint32_t i = 0; i < a.count; ++i) {
    if (!(a.entry(i) == b.entry(i))) return false;
  }
  return true;
}

TzLabelBuilder::TzLabelBuilder(NodeId owner, std::uint32_t k)
    : owner_(owner), pivots_(k) {
  for (std::uint32_t i = 0; i < k; ++i) {
    pivots_[i] = BunchEntry{kInvalidNode, i, kInfDist};
  }
}

void TzLabelBuilder::sort_bunch() {
  if (!sorted_) {
    std::sort(bunch_.begin(), bunch_.end(), bunch_order);
    sorted_ = true;
    packed_.clear();
  }
}

namespace {

/// The layout this builder's cells pack into: widths from the data.
TzRecordLayout layout_of(const std::vector<BunchEntry>& pivots,
                         const std::vector<BunchEntry>& bunch) {
  DS_CHECK_MSG(pivots.size() <= 0xff, "a packed label holds <= 255 levels");
  TzRecordLayout l;
  l.levels = static_cast<std::uint32_t>(pivots.size());
  l.count = static_cast<std::uint32_t>(bunch.size());
  Dist max_dist = 0;
  for (const BunchEntry& p : pivots) {
    if (p.node != kInvalidNode) max_dist = std::max(max_dist, p.dist);
  }
  std::uint32_t max_level = 0;
  for (const BunchEntry& e : bunch) {
    max_dist = std::max(max_dist, e.dist);
    max_level = std::max(max_level, e.level);
  }
  if (!bunch.empty()) {
    l.id_base = bunch.front().node;
    l.id_w = static_cast<unsigned>(
        std::bit_width(std::uint32_t{bunch.back().node - l.id_base}));
  }
  l.dist_w = static_cast<unsigned>(std::bit_width(max_dist));
  l.level_w = static_cast<unsigned>(std::bit_width(max_level));
  l.place();
  return l;
}

}  // namespace

std::size_t TzLabelBuilder::packed_size() const {
  return static_cast<std::size_t>(layout_of(pivots_, bunch_).size);
}

void TzLabelBuilder::pack(std::uint8_t* out) const {
  DS_CHECK(sorted_);
  const TzRecordLayout l = layout_of(pivots_, bunch_);
  out[0] = static_cast<std::uint8_t>(l.levels);
  out[1] = static_cast<std::uint8_t>(l.id_w);
  out[2] = static_cast<std::uint8_t>(l.dist_w);
  out[3] = static_cast<std::uint8_t>(l.level_w);
  store_le32(out + 4, l.count);
  store_le32(out + 8, l.id_base);
  std::uint8_t* p = out + kTzHeaderBytes;
  for (const BunchEntry& pv : pivots_) {
    store_le32(p, pv.node);
    p += 4;
  }
  BitWriter pivot_dists(p);
  for (const BunchEntry& pv : pivots_) {
    pivot_dists.put(pv.node == kInvalidNode ? 0 : pv.dist, l.dist_w);
  }
  BitWriter ids(pivot_dists.finish());
  for (const BunchEntry& e : bunch_) ids.put(e.node - l.id_base, l.id_w);
  BitWriter dists(ids.finish());
  for (const BunchEntry& e : bunch_) dists.put(e.dist, l.dist_w);
  BitWriter entry_levels(dists.finish());
  for (const BunchEntry& e : bunch_) entry_levels.put(e.level, l.level_w);
  DS_CHECK(entry_levels.finish() == out + l.size);
}

LabelView TzLabelBuilder::view() const {
  DS_CHECK(sorted_);
  if (packed_.empty()) {
    packed_.assign(packed_size() + kRecordTail, 0);
    pack(packed_.data());
  }
  return LabelView(owner_, packed_.data(), packed_.size() - kRecordTail);
}

LabelArena LabelArena::from_builders(std::vector<TzLabelBuilder> builders) {
  LabelArena arena;
  std::size_t total = 0;
  for (NodeId u = 0; u < builders.size(); ++u) {
    DS_CHECK(builders[u].owner() == u);
    builders[u].sort_bunch();
    total += builders[u].packed_size();
  }
  arena.slab_.reserve(builders.size(), total);
  for (const TzLabelBuilder& b : builders) {
    b.pack(arena.slab_.append(b.packed_size()));
    arena.k_ = std::max(arena.k_, b.levels());
  }
  return arena;
}

void LabelArena::append(const LabelView& label) {
  slab_.append(label.bytes());
  k_ = std::max(k_, label.levels);
}

double LabelArena::mean_size_words() const {
  if (empty()) return 0.0;
  std::size_t total = 0;
  for (NodeId u = 0; u < num_nodes(); ++u) {
    total += size_words(u);
  }
  return static_cast<double>(total) / static_cast<double>(num_nodes());
}

std::size_t LabelArena::total_entries() const {
  std::size_t total = 0;
  for (NodeId u = 0; u < num_nodes(); ++u) {
    total += view(u).count;
  }
  return total;
}

void LabelArena::tighten_pivot(NodeId u, std::uint32_t level, Dist d) {
  std::uint8_t* rec = slab_.mutable_record(u);
  const LabelView v(u, rec, slab_.record_size(u));
  DS_CHECK(level < v.levels && d <= v.pivot(level).dist);
  write_bits(rec + (v.pivot_dists_ - rec), std::uint64_t{level} * v.dist_w_,
             v.dist_w_, d);
}

void LabelArena::tighten_bunch_dist(NodeId u, std::uint32_t i, Dist d) {
  std::uint8_t* rec = slab_.mutable_record(u);
  const LabelView v(u, rec, slab_.record_size(u));
  DS_CHECK(i < v.count && d <= v.entry(i).dist);
  write_bits(rec + (v.dists_ - rec), std::uint64_t{i} * v.dist_w_, v.dist_w_,
             d);
}

bool operator==(const LabelArena& a, const LabelArena& b) {
  if (a.num_nodes() != b.num_nodes()) return false;
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    if (!(a.view(u) == b.view(u))) return false;
  }
  return true;
}

Dist tz_query(const LabelView& lu, const LabelView& lv) {
  return tz_query_trace(lu, lv).estimate;
}

Dist tz_query_exhaustive(const LabelView& lu, const LabelView& lv) {
  if (lu.owner == lv.owner) return 0;
  Dist best = kInfDist;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  while (a < lu.count && b < lv.count) {
    const BunchEntry ea = lu.entry(a);
    const BunchEntry eb = lv.entry(b);
    if (ea.node < eb.node) {
      ++a;
    } else if (eb.node < ea.node) {
      ++b;
    } else {
      // Common member. Duplicate runs (one node at several levels) carry
      // one distance per side; take the run minimum of each.
      const NodeId w = ea.node;
      Dist du = ea.dist;
      for (++a; a < lu.count && lu.entry(a).node == w; ++a) {
        du = std::min(du, lu.entry(a).dist);
      }
      Dist dv = eb.dist;
      for (++b; b < lv.count && lv.entry(b).node == w; ++b) {
        dv = std::min(dv, lv.entry(b).dist);
      }
      const Dist sum = du + dv;
      best = sum < best ? sum : best;
    }
  }
  return best;
}

TzQueryTrace tz_query_trace(const LabelView& lu, const LabelView& lv) {
  TzQueryTrace t;
  if (lu.owner == lv.owner) {
    t.estimate = 0;
    return t;
  }
  const std::uint32_t k = lu.levels < lv.levels ? lu.levels : lv.levels;
  for (std::uint32_t i = 0; i < k; ++i) {
    // p_i(u) in B(v)?
    const DistKey pu = lu.pivot(i);
    if (pu.id != kInvalidNode) {
      const Dist dv = lv.bunch_dist(pu.id);
      if (dv != kInfDist) {
        t.estimate = pu.dist + dv;
        t.level = i;
        t.used_u_pivot = true;
        return t;
      }
    }
    // p_i(v) in B(u)?
    const DistKey pv = lv.pivot(i);
    if (pv.id != kInvalidNode) {
      const Dist du = lu.bunch_dist(pv.id);
      if (du != kInfDist) {
        t.estimate = pv.dist + du;
        t.level = i;
        t.used_u_pivot = false;
        return t;
      }
    }
  }
  return t;  // malformed / disconnected: kInfDist
}

}  // namespace dsketch
