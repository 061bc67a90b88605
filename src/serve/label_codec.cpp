#include "serve/label_codec.hpp"

namespace dsketch {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t x) {
  while (x >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(x) | 0x80);
    x >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(x));
}

namespace {

constexpr std::uint64_t kU32Max = 0xffffffffull;

// id fields use the +1 shift so 0 can mean "invalid"; bijective over the
// whole u32 range because the invalid sentinel is the all-ones value.
std::uint64_t encode_id(std::uint32_t id) {
  return id == kInvalidNode ? 0 : static_cast<std::uint64_t>(id) + 1;
}
bool decode_id(std::uint64_t v, std::uint32_t* id) {
  if (v > kU32Max) return false;
  *id = v == 0 ? kInvalidNode : static_cast<std::uint32_t>(v - 1);
  return true;
}

// distance fields use the same shift with kInfDist as the sentinel;
// bijective over u64 because kInfDist + 1 wraps to 0.
std::uint64_t encode_dist(Dist d) { return d + 1; }
Dist decode_dist(std::uint64_t v) { return v - 1; }

void encode_tz(const LabelView& l, std::vector<std::uint8_t>& out) {
  put_varint(out, l.levels);
  put_varint(out, l.count);
  Dist prev_dist = 0;
  for (std::uint32_t i = 0; i < l.levels; ++i) {
    const DistKey p = l.pivot(i);
    put_varint(out, encode_id(p.id));
    put_varint(out, zigzag64(p.dist - prev_dist));
    prev_dist = p.dist;
  }
  std::uint64_t prev_node = 0;
  for (std::uint32_t e = 0; e < l.count; ++e) {
    const BunchEntry& b = l.bunch[e];
    put_varint(out, zigzag64(b.node - prev_node));
    prev_node = b.node;
    put_varint(out, b.level);
    put_varint(out, b.dist);
  }
}

/// Reads a tz record's level and entry counts. Each pivot takes >= 2
/// bytes and each entry >= 3; a count that cannot fit in the remaining
/// slice is corrupt, and rejecting it here bounds the decode output by
/// the slice size.
bool read_tz_counts(VarintReader& r, std::uint64_t* levels,
                    std::uint64_t* count) {
  *levels = r.get();
  *count = r.get();
  const auto remaining = static_cast<std::uint64_t>(r.end - r.p);
  return r.ok && *levels <= remaining / 2 && *count <= remaining / 3;
}

/// Skips a cdg record's (net_node, net_dist, owner) prefix.
void skip_cdg_prefix(VarintReader& r) {
  for (int i = 0; i < 3; ++i) r.get();
}

bool decode_tz(VarintReader& r, NodeId owner, TzLabelBuilder& label) {
  std::uint64_t levels = 0;
  std::uint64_t count = 0;
  if (!read_tz_counts(r, &levels, &count)) return false;
  label.reset(owner, static_cast<std::uint32_t>(levels));
  Dist prev_dist = 0;
  for (std::uint32_t i = 0; i < levels; ++i) {
    std::uint32_t id = 0;
    if (!decode_id(r.get(), &id)) return false;
    const Dist d = prev_dist + unzigzag64(r.get());
    if (!r.ok) return false;
    prev_dist = d;
    label.set_pivot(i, DistKey{d, id});
  }
  std::uint64_t prev_node = 0;
  for (std::uint64_t e = 0; e < count; ++e) {
    const std::uint64_t node = prev_node + unzigzag64(r.get());
    const std::uint64_t level = r.get();
    const Dist dist = r.get();
    if (!r.ok || node > kU32Max || level > kU32Max) return false;
    prev_node = node;
    label.add_bunch_entry(BunchEntry{static_cast<NodeId>(node),
                                     static_cast<std::uint32_t>(level), dist});
  }
  return label.sorted();
}

}  // namespace

void encode_v3_record(const SketchPayload& payload, std::size_t segment,
                      NodeId u, std::vector<std::uint8_t>& out) {
  switch (payload.scheme) {
    case Scheme::kThorupZwick:
      encode_tz(payload.tz.view(u), out);
      return;
    case Scheme::kSlack: {
      const Dist* row = payload.slack.row(u);
      for (std::size_t i = 0; i < payload.slack.net().size(); ++i) {
        put_varint(out, encode_dist(row[i]));
      }
      return;
    }
    case Scheme::kCdg:
    case Scheme::kGraceful: {
      const CdgRecord rec = payload.cdg_segment(segment).sketch(u);
      put_varint(out, encode_id(rec.net_node));
      put_varint(out, encode_dist(rec.net_dist));
      put_varint(out, encode_id(rec.label.owner));
      encode_tz(rec.label, out);
      return;
    }
  }
}

bool decode_v3_record(Scheme scheme, const std::uint8_t* begin,
                      const std::uint8_t* end, NodeId u,
                      std::size_t slack_net_size, DecodedRecord& out) {
  VarintReader r(begin, end);
  bool ok = false;
  switch (scheme) {
    case Scheme::kThorupZwick:
      ok = decode_tz(r, u, out.label);
      break;
    case Scheme::kSlack:
      // Each distance takes >= 1 byte: a wider row cannot fit the slice.
      if (slack_net_size > static_cast<std::size_t>(end - begin)) return false;
      out.row.resize(slack_net_size);
      for (Dist& d : out.row) d = decode_dist(r.get());
      ok = r.ok;
      break;
    case Scheme::kCdg:
    case Scheme::kGraceful: {
      NodeId owner = kInvalidNode;
      ok = decode_id(r.get(), &out.net_node);
      out.net_dist = decode_dist(r.get());
      ok = ok && decode_id(r.get(), &owner) && r.ok &&
           decode_tz(r, owner, out.label);
      break;
    }
  }
  // A record must consume its slice exactly — trailing bytes mean the
  // offset table and the blob disagree.
  return ok && r.ok && r.done();
}

std::size_t v3_label_cells(Scheme scheme, const std::uint8_t* begin,
                           const std::uint8_t* end) {
  VarintReader r(begin, end);
  if (scheme != Scheme::kThorupZwick) skip_cdg_prefix(r);
  std::uint64_t levels = 0;
  std::uint64_t count = 0;
  if (!read_tz_counts(r, &levels, &count)) return 0;
  return static_cast<std::size_t>(levels + count);
}

void empty_record(Scheme scheme, NodeId u, std::size_t slack_net_size,
                  DecodedRecord& out) {
  out.label.reset(scheme == Scheme::kThorupZwick ? u : kInvalidNode, 0);
  out.row.assign(slack_net_size, kInfDist);
  out.net_node = kInvalidNode;
  out.net_dist = kInfDist;  // cdg_query's guard answers kInfDist
}

}  // namespace dsketch
