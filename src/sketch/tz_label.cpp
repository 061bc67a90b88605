#include "sketch/tz_label.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace dsketch {

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
  NodeId prev = v.entry(0).node;
  for (std::uint32_t i = 1; i < v.count; ++i) {
    const NodeId id = v.entry(i).node;
    if (id <= prev) return false;
    prev = id;
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
    : owner_(owner), pivots_(k) {}

void sort_bunch(std::span<BunchEntry> bunch) {
  std::sort(bunch.begin(), bunch.end(),
            [](const BunchEntry& a, const BunchEntry& b) {
              return a.node < b.node;
            });
  DS_CHECK_MSG(std::adjacent_find(bunch.begin(), bunch.end(),
                                  [](const BunchEntry& a, const BunchEntry& b) {
                                    return a.node == b.node;
                                  }) == bunch.end(),
               "a bunch holds each node at most once");
}

void TzLabelBuilder::sort_bunch() {
  if (sorted_) return;
  dsketch::sort_bunch(bunch_);
  sorted_ = true;
  packed_.clear();
}

namespace {

/// The layout a label's cells pack into: widths from the data.
TzRecordLayout layout_of(LabelParts label) {
  DS_CHECK_MSG(label.pivots.size() <= 0xff,
               "a packed label holds <= 255 levels");
  TzRecordLayout l;
  l.levels = static_cast<std::uint32_t>(label.pivots.size());
  l.count = static_cast<std::uint32_t>(label.bunch.size());
  Dist max_dist = 0;
  for (const DistKey& p : label.pivots) {
    if (p.id != kInvalidNode) max_dist = std::max(max_dist, p.dist);
  }
  for (const BunchEntry& e : label.bunch) max_dist = std::max(max_dist, e.dist);
  if (!label.bunch.empty()) {
    l.id_base = label.bunch.front().node;
    l.id_w = static_cast<unsigned>(
        std::bit_width(std::uint32_t{label.bunch.back().node - l.id_base}));
  }
  l.dist_w = static_cast<unsigned>(std::bit_width(max_dist));
  l.place();
  return l;
}

}  // namespace

std::size_t packed_label_size(LabelParts label) {
  return static_cast<std::size_t>(layout_of(label).size);
}

void pack_label(LabelParts label, std::uint8_t* out) {
  const TzRecordLayout l = layout_of(label);
  out[0] = static_cast<std::uint8_t>(l.levels);
  out[1] = static_cast<std::uint8_t>(l.id_w);
  out[2] = static_cast<std::uint8_t>(l.dist_w);
  store_le32(out + 3, l.count);
  store_le32(out + 7, l.id_base);
  std::uint8_t* p = out + kTzHeaderBytes;
  for (const DistKey& pv : label.pivots) {
    store_le32(p, pv.id);
    p += 4;
  }
  BitWriter pivot_dists(p);
  for (const DistKey& pv : label.pivots) {
    pivot_dists.put(pv.id == kInvalidNode ? 0 : pv.dist, l.dist_w);
  }
  BitWriter ids(pivot_dists.finish());
  for (const BunchEntry& e : label.bunch) ids.put(e.node - l.id_base, l.id_w);
  BitWriter dists(ids.finish());
  for (const BunchEntry& e : label.bunch) dists.put(e.dist, l.dist_w);
  DS_CHECK(dists.finish() == out + l.size);
}

LabelParts TzLabelBuilder::parts() const {
  DS_CHECK(sorted_);
  return LabelParts{pivots_, bunch_};
}

LabelView TzLabelBuilder::view() const {
  if (packed_.empty()) {
    const LabelParts label = parts();
    packed_.assign(packed_label_size(label) + kRecordTail, 0);
    pack_label(label, packed_.data());
  }
  return LabelView(owner_, packed_.data(), packed_.size() - kRecordTail);
}

LabelArena LabelArena::pack(NodeId n, std::uint32_t k,
                            const std::function<LabelParts(NodeId)>& label,
                            ThreadPool& pool) {
  std::vector<std::uint64_t> offsets(std::size_t{n} + 1, 0);
  pool.for_each_block(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      offsets[u + 1] = packed_label_size(label(static_cast<NodeId>(u)));
    }
  });
  for (std::size_t u = 0; u < n; ++u) offsets[u + 1] += offsets[u];
  std::vector<std::uint8_t> blob(offsets[n] + kRecordTail, 0);
  pool.for_each_block(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      pack_label(label(static_cast<NodeId>(u)), blob.data() + offsets[u]);
    }
  });
  return LabelArena(RecordSlab(std::move(offsets), std::move(blob)), k);
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
      const Dist sum = ea.dist + eb.dist;
      best = sum < best ? sum : best;
      ++a;
      ++b;
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
