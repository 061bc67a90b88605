#include "core/serialization.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/assert.hpp"

namespace dsketch {
namespace {

constexpr const char* kTzMagic = "dsketch-tz-v1";
constexpr const char* kSlackMagic = "dsketch-slack-v1";
constexpr const char* kCdgMagic = "dsketch-cdg-v1";
constexpr const char* kGracefulMagic = "dsketch-graceful-v1";

void expect_magic(std::istream& in, const char* magic) {
  std::string seen;
  if (!(in >> seen) || seen != magic) {
    throw std::runtime_error(std::string("bad sketch file: expected ") +
                             magic);
  }
}

void write_label_line(std::ostream& out, const LabelView& label) {
  const std::vector<Word> words = serialize_label(label);
  out << label.owner << ' ' << words.size();
  for (const Word w : words) out << ' ' << w;
  out << '\n';
}

TzLabelBuilder read_label_line(std::istream& in) {
  NodeId owner = 0;
  std::size_t count = 0;
  if (!(in >> owner >> count)) {
    throw std::runtime_error("truncated label record");
  }
  std::vector<Word> words(count);
  for (Word& w : words) {
    if (!(in >> w)) throw std::runtime_error("truncated label words");
  }
  return deserialize_label(owner, words);
}

}  // namespace

void write_tz_labels(std::ostream& out, const LabelArena& labels) {
  out << kTzMagic << ' ' << labels.num_nodes() << '\n';
  for (NodeId u = 0; u < labels.num_nodes(); ++u) {
    write_label_line(out, labels.view(u));
  }
}

LabelArena read_tz_labels(std::istream& in) {
  expect_magic(in, kTzMagic);
  std::size_t n = 0;
  if (!(in >> n)) throw std::runtime_error("bad tz sketch header");
  std::vector<TzLabelBuilder> builders;
  builders.reserve(n);
  for (std::size_t i = 0; i < n; ++i) builders.push_back(read_label_line(in));
  return LabelArena::from_builders(std::move(builders));
}

void write_slack_sketches(std::ostream& out, const SlackSketchSet& set,
                          NodeId n) {
  const auto& net = set.net();
  out << kSlackMagic << ' ' << n << ' ' << net.size() << '\n';
  for (const NodeId w : net) out << w << ' ';
  out << '\n';
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t i = 0; i < net.size(); ++i) {
      out << set.net_dist(u, i) << (i + 1 == net.size() ? '\n' : ' ');
    }
    if (net.empty()) out << '\n';
  }
}

SlackSketchSet read_slack_sketches(std::istream& in) {
  expect_magic(in, kSlackMagic);
  NodeId n = 0;
  std::size_t net_size = 0;
  if (!(in >> n >> net_size)) throw std::runtime_error("bad slack header");
  std::vector<NodeId> net(net_size);
  for (NodeId& w : net) {
    if (!(in >> w)) throw std::runtime_error("truncated slack net");
  }
  SlackSketchSet set(std::move(net));
  std::vector<Dist> row(net_size);
  for (NodeId u = 0; u < n; ++u) {
    for (Dist& d : row) {
      if (!(in >> d)) throw std::runtime_error("truncated slack distances");
    }
    set.append_row(row.data());
  }
  return set;
}

void write_cdg_sketches(std::ostream& out, const CdgSketchSet& set,
                        NodeId n) {
  out << kCdgMagic << ' ' << n << '\n';
  for (NodeId u = 0; u < n; ++u) {
    const CdgRecord s = set.sketch(u);
    out << s.net_node << ' ' << s.net_dist << ' ';
    write_label_line(out, s.label);
  }
}

CdgSketchSet read_cdg_sketches(std::istream& in) {
  expect_magic(in, kCdgMagic);
  NodeId n = 0;
  if (!(in >> n)) throw std::runtime_error("bad cdg header");
  CdgSketchSet set;
  for (NodeId u = 0; u < n; ++u) {
    NodeId net_node = kInvalidNode;
    Dist net_dist = kInfDist;
    if (!(in >> net_node >> net_dist)) {
      throw std::runtime_error("truncated cdg record");
    }
    set.append(net_node, net_dist, read_label_line(in).view());
  }
  return set;
}

void write_graceful_sketches(std::ostream& out, const GracefulSketchSet& set,
                             NodeId n) {
  out << kGracefulMagic << ' ' << set.num_levels() << '\n';
  for (std::size_t i = 0; i < set.num_levels(); ++i) {
    write_cdg_sketches(out, set.level(i), n);
  }
}

GracefulSketchSet read_graceful_sketches(std::istream& in) {
  expect_magic(in, kGracefulMagic);
  std::size_t levels = 0;
  if (!(in >> levels)) throw std::runtime_error("bad graceful header");
  std::vector<CdgSketchSet> sets;
  sets.reserve(levels);
  for (std::size_t i = 0; i < levels; ++i) {
    sets.push_back(read_cdg_sketches(in));
  }
  return GracefulSketchSet(std::move(sets));
}

void write_sketch_payload(std::ostream& out, const SketchPayload& payload,
                          NodeId n) {
  switch (payload.scheme) {
    case Scheme::kThorupZwick:
      write_tz_labels(out, payload.tz);
      return;
    case Scheme::kSlack:
      write_slack_sketches(out, payload.slack, n);
      return;
    case Scheme::kCdg:
      write_cdg_sketches(out, payload.cdg, n);
      return;
    case Scheme::kGraceful:
      write_graceful_sketches(out, payload.graceful, n);
      return;
  }
}

SketchPayload read_sketch_payload(std::istream& in, Scheme scheme) {
  SketchPayload payload;
  payload.scheme = scheme;
  switch (scheme) {
    case Scheme::kThorupZwick:
      payload.tz = read_tz_labels(in);
      break;
    case Scheme::kSlack:
      payload.slack = read_slack_sketches(in);
      break;
    case Scheme::kCdg:
      payload.cdg = read_cdg_sketches(in);
      break;
    case Scheme::kGraceful:
      payload.graceful = read_graceful_sketches(in);
      break;
  }
  return payload;
}

}  // namespace dsketch
