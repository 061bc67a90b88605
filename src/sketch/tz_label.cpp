#include "sketch/tz_label.hpp"

#include <algorithm>
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

bool operator==(const LabelView& a, const LabelView& b) {
  if (a.owner != b.owner || a.levels != b.levels || a.count != b.count) {
    return false;
  }
  for (std::uint32_t i = 0; i < a.levels; ++i) {
    if (!(a.pivot(i) == b.pivot(i))) return false;
  }
  for (std::uint32_t i = 0; i < a.count; ++i) {
    if (!(a.bunch[i] == b.bunch[i])) return false;
  }
  return true;
}

TzLabelBuilder TzLabelBuilder::from_view(const LabelView& v) {
  TzLabelBuilder b;
  b.owner_ = v.owner;
  b.pivots_.assign(v.pivots, v.pivots + v.levels);
  b.bunch_.assign(v.bunch, v.bunch + v.count);
  b.sorted_ = std::is_sorted(b.bunch_.begin(), b.bunch_.end(), bunch_order);
  return b;
}

void TzLabelBuilder::reset(NodeId owner, std::uint32_t k) {
  owner_ = owner;
  pivots_.resize(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    pivots_[i] = BunchEntry{kInvalidNode, i, kInfDist};
  }
  bunch_.clear();
  sorted_ = true;
}

void TzLabelBuilder::sort_bunch() {
  if (!sorted_) {
    std::sort(bunch_.begin(), bunch_.end(), bunch_order);
    sorted_ = true;
  }
}

LabelView TzLabelBuilder::view() const {
  DS_CHECK(sorted_);
  LabelView v;
  v.owner = owner_;
  v.levels = static_cast<std::uint32_t>(pivots_.size());
  v.count = static_cast<std::uint32_t>(bunch_.size());
  v.pivots = pivots_.data();
  v.bunch = bunch_.data();
  return v;
}

LabelArena LabelArena::from_builders(std::vector<TzLabelBuilder> builders) {
  LabelArena arena;
  std::size_t total = 0;
  for (const TzLabelBuilder& b : builders) {
    total += b.levels() + b.bunch().size();
  }
  arena.reserve(builders.size(), total);
  for (NodeId u = 0; u < builders.size(); ++u) {
    TzLabelBuilder& b = builders[u];
    DS_CHECK(b.owner() == u);
    b.sort_bunch();
    arena.append(b.view());
  }
  return arena;
}

void LabelArena::append(const LabelView& label) {
  Slot s;
  s.begin = cells_.size();
  s.levels = label.levels;
  s.count = label.count;
  cells_.insert(cells_.end(), label.pivots, label.pivots + label.levels);
  cells_.insert(cells_.end(), label.bunch, label.bunch + label.count);
  slots_.push_back(s);
  k_ = std::max(k_, label.levels);
  ++generation_;
}

double LabelArena::mean_size_words() const {
  if (slots_.empty()) return 0.0;
  std::size_t total = 0;
  for (NodeId u = 0; u < num_nodes(); ++u) {
    total += size_words(u);
  }
  return static_cast<double>(total) / static_cast<double>(slots_.size());
}

std::size_t LabelArena::total_entries() const {
  std::size_t total = 0;
  for (const Slot& s : slots_) {
    total += s.count;
  }
  return total;
}

void LabelArena::replace(NodeId u, const TzLabelBuilder& b) {
  DS_CHECK(b.owner() == u);
  DS_CHECK(b.sorted());
  const LabelView v = b.view();
  const std::size_t cells = std::size_t{v.levels} + v.count;
  Slot& s = slots_[u];
  if (cells > std::size_t{s.levels} + s.count) {
    s.begin = cells_.size();
    cells_.resize(cells_.size() + cells);
  }
  const auto rec = cells_.begin() + static_cast<std::ptrdiff_t>(s.begin);
  std::copy(v.bunch, v.bunch + v.count,
            std::copy(v.pivots, v.pivots + v.levels, rec));
  s.levels = v.levels;
  s.count = v.count;
  k_ = std::max(k_, v.levels);
  ++generation_;
}

bool operator==(const LabelArena& a, const LabelArena& b) {
  if (a.num_nodes() != b.num_nodes() || a.k_ != b.k_) return false;
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
  const BunchEntry* a = lu.bunch;
  const BunchEntry* const ae = a + lu.count;
  const BunchEntry* b = lv.bunch;
  const BunchEntry* const be = b + lv.count;
  while (a != ae && b != be) {
    if (a->node < b->node) {
      ++a;
    } else if (b->node < a->node) {
      ++b;
    } else {
      // Common member. Duplicate runs (one node at several levels) carry
      // one distance per side; take the run minimum of each.
      const NodeId w = a->node;
      Dist du = a->dist;
      for (++a; a != ae && a->node == w; ++a) {
        du = a->dist < du ? a->dist : du;
      }
      Dist dv = b->dist;
      for (++b; b != be && b->node == w; ++b) {
        dv = b->dist < dv ? b->dist : dv;
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
