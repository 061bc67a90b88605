#include "serve/sketch_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>

#include "core/oracle_registry.hpp"
#include "dynamics/incremental.hpp"
#include "obs/trace.hpp"
#include "serve/store_format.hpp"
#include "util/assert.hpp"

namespace dsketch {
namespace {

namespace sf = store_format;
using sf::fail;

/// Zero bytes for the page pads (a pad is shorter than a page).
constexpr std::uint8_t kZeroPage[sf::kPageBytes] = {};

/// The slack net a segment's meta words hold (empty for other schemes).
std::vector<NodeId> slack_net(const sf::Segment& seg) {
  if (seg.meta.empty()) return {};
  return {seg.meta.begin() + 1, seg.meta.end()};
}

}  // namespace

// ---- build and pack --------------------------------------------------------

SketchStore::SketchStore(const Graph& g, const BuildConfig& config)
    : scheme_(config.scheme),
      n_(g.num_nodes()),
      k_(config.k),
      epsilon_(config.epsilon),
      has_cost_(true),
      payload_(build_sketch_payload(g, config, cost_)) {}

SketchStore SketchStore::from_oracle(const DistanceOracle& oracle) {
  const obs::Span span("store_from_oracle");
  if (const auto* store = dynamic_cast<const SketchStore*>(&oracle)) {
    SketchStore copy = *store;
    copy.has_cost_ = false;  // a packed copy is not a fresh build
    return copy;
  }
  // A bare TZ label arena (distributed build, dynamic-sketch snapshot)
  // is a tz payload; it records epsilon 0, which tz never reads.
  const auto* tz = dynamic_cast<const TzLabelOracle*>(&oracle);
  if (tz == nullptr) {
    throw std::runtime_error("oracle scheme '" + oracle.scheme() +
                             "' has no packed store representation");
  }
  SketchStore store;
  store.scheme_ = Scheme::kThorupZwick;
  store.k_ = tz->k();
  store.n_ = tz->num_nodes();
  store.payload_.tz = tz->labels();
  return store;
}

// ---- queries ----------------------------------------------------------------

Dist SketchStore::query(NodeId u, NodeId v) const {
  DS_CHECK(u < n_ && v < n_);
  return payload_.query(u, v);
}

void SketchStore::query_batch(std::span<const QueryPair> pairs,
                              std::span<Dist> out) const {
  payload_.query_batch(pairs, out);
}

std::size_t SketchStore::size_words(NodeId u) const {
  DS_CHECK(u < n_);
  return payload_.size_words(u);
}

std::size_t SketchStore::encoded_bytes() const {
  std::size_t bytes = 0;
  for_each_payload_run([&](const std::uint8_t*, std::size_t size) {
    bytes += size;
  });
  return bytes;
}

std::size_t SketchStore::encoded_record_bytes(NodeId u) const {
  DS_CHECK(u < n_);
  std::size_t bytes = 0;
  for (std::size_t s = 0; s < num_segments(); ++s) {
    bytes += payload_.segment(s).record_size(u);
  }
  return bytes;
}

void SketchStore::drop_pages() const {
  if (image_ != nullptr) image_->drop_pages();
}

std::string SketchStore::guarantee() const {
  return sketch_guarantee(scheme_, k_, epsilon_);
}

Capabilities SketchStore::capabilities() const {
  return sketch_capabilities(scheme_);
}

// ---- binary round trip ------------------------------------------------------

template <typename Fn>
void SketchStore::for_each_payload_run(Fn&& fn) const {
  std::size_t pos = 0;
  const auto put = [&](const std::uint8_t* data, std::size_t size) {
    fn(data, size);
    pos += size;
  };
  const auto pad = [&] { put(kZeroPage, sf::page_pad(pos)); };
  std::vector<std::uint8_t> head;
  const auto head_u64 = [&](std::uint64_t x) {
    head.resize(head.size() + 8);
    store_le64(head.data() + head.size() - 8, x);
  };
  for (std::size_t s = 0; s < num_segments(); ++s) {
    const RecordSlab& slab = payload_.segment(s);
    head.clear();
    if (scheme_ == Scheme::kSlack) {
      const std::vector<NodeId>& net = payload_.slack.net();
      head_u64(net.size() + 1);
      head_u64(net.size());
      for (const NodeId w : net) head_u64(w);
    } else {
      head_u64(0);
    }
    head_u64(slab.blob().size());
    put(head.data(), head.size());
    pad();
    put(slab.offset_table().data(), slab.offset_table().size());
    pad();
    put(slab.blob().data(), slab.blob().size());
    pad();
  }
}

void SketchStore::write(std::ostream& out, StoreFormat /*format*/) const {
  const obs::Span span("store_write");
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 14695981039346656037ULL;
  for_each_payload_run([&](const std::uint8_t* data, std::size_t size) {
    payload_bytes += size;
    checksum = fnv1a64(data, size, checksum);
  });
  std::vector<std::uint8_t> h(sf::kHeaderBytes);
  store_le32(h.data(), sf::kVersion);
  store_le32(h.data() + 4, static_cast<std::uint32_t>(scheme_));
  store_le32(h.data() + 8, n_);
  store_le32(h.data() + 12, k_);
  store_le32(h.data() + 16, static_cast<std::uint32_t>(num_segments()));
  store_le32(h.data() + 20, sf::kFlagEpsilonKnown);
  std::memcpy(h.data() + 24, &epsilon_, sizeof(epsilon_));
  store_le64(h.data() + 32, payload_bytes);
  store_le64(h.data() + 40, checksum);
  // The header is checksummed too: the payload checksum cannot cover it,
  // and a bit flip in n/k/epsilon/payload_size must not go unnoticed.
  h.resize(sf::kHeaderBytes + 8);
  store_le64(h.data() + sf::kHeaderBytes,
             fnv1a64(h.data(), sf::kHeaderBytes));
  out.write(sf::kMagic, 8);
  out.write(reinterpret_cast<const char*>(h.data()),
            static_cast<std::streamsize>(h.size()));
  for_each_payload_run([&](const std::uint8_t* data, std::size_t size) {
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  });
  if (!out) fail(StoreError::kIo, "write failed");
}

SketchStore SketchStore::from_file(const sf::File& file,
                                   std::vector<RecordSlab> slabs) {
  const sf::StoreHeader& hdr = file.header;
  SketchStore store;
  store.scheme_ = static_cast<Scheme>(hdr.scheme_raw);
  store.n_ = hdr.n;
  store.k_ = hdr.k;
  store.epsilon_ = hdr.epsilon;
  store.payload_ = SketchPayload::from_segments(
      store.scheme_, hdr.k, slack_net(file.segments[0]), std::move(slabs));
  return store;
}

SketchStore SketchStore::from_image(std::shared_ptr<const sf::Image> image,
                                    const sf::File& file) {
  std::vector<RecordSlab> slabs;
  for (const sf::Segment& seg : file.segments) {
    slabs.emplace_back(image, seg.offsets, seg.blob, file.header.n);
  }
  SketchStore store = from_file(file, std::move(slabs));
  store.image_ = std::move(image);
  return store;
}

SketchStore SketchStore::read(std::istream& in) {
  const obs::Span span("store_read");
  std::shared_ptr<const sf::Image> image = sf::Image::read(in);
  const sf::File file =
      sf::parse(image->data(), image->size(), sf::Parse::kVerified);
  const auto scheme = static_cast<Scheme>(file.header.scheme_raw);
  for (const sf::Segment& seg : file.segments) {
    const std::size_t net = scheme == Scheme::kSlack ? seg.meta[0] : 0;
    for (NodeId u = 0; u < file.header.n; ++u) {
      if (!SketchPayload::valid_record(
              scheme, seg.blob + seg.offset(u),
              static_cast<std::size_t>(seg.offset(u + 1) - seg.offset(u)),
              net)) {
        fail(StoreError::kStructure, "invalid node record");
      }
    }
  }
  return from_image(std::move(image), file);
}

std::unique_ptr<SketchStore> SketchStore::open(const std::string& path,
                                               bool verify_checksum) {
  const obs::Span span("store_mmap_open");
  std::shared_ptr<const sf::Image> image = sf::Image::map(path);
  const sf::File file = sf::parse(
      image->data(), image->size(),
      verify_checksum ? sf::Parse::kVerified : sf::Parse::kStrict);
  return std::make_unique<SketchStore>(from_image(std::move(image), file));
}

void SketchStore::save_file(const std::string& path, StoreFormat format) const {
  // Crash-safe publish: write the full store to a sibling temp file, force
  // it to stable storage, then atomically rename over the target. A reader
  // of `path` (or a crash at any point here) sees either the previous
  // complete store or the new complete store — never a torn prefix.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) fail(StoreError::kIo, "cannot open for write: " + tmp);
    try {
      write(out, format);
      out.flush();
    } catch (...) {
      out.close();
      std::remove(tmp.c_str());
      throw;
    }
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      fail(StoreError::kIo, "write failed: " + tmp);
    }
  }
  const int fd = ::open(tmp.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    std::remove(tmp.c_str());
    fail(StoreError::kIo, "fsync failed: " + tmp);
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail(StoreError::kIo, "rename failed: " + path);
  }
  // Make the rename itself durable (best effort — not all filesystems
  // support fsync on a directory fd).
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

SketchStore SketchStore::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(StoreError::kIo, "cannot open for read: " + path);
  return read(in);
}

SketchStore::Recovery SketchStore::recover_file(const std::string& path) {
  // First try the strict path: if the checksums hold, there is nothing to
  // salvage. Only on corruption do we re-read leniently.
  try {
    Recovery r;
    r.store = load_file(path);
    r.checksum_ok = true;
    return r;
  } catch (const StoreCorruptionError& e) {
    switch (e.kind()) {
      case StoreError::kPayloadChecksum:
      case StoreError::kTruncatedPayload:
      case StoreError::kStructure:
        break;  // payload damage — attempt per-record salvage below
      default:
        throw;  // header/identity damage is unrecoverable
    }
  }
  // Segment framing (meta + offsets) must parse for a segment to be
  // salvageable at all; the blob may be short (truncation) and individual
  // records may be garbage (bit flips) — those quarantine per node. The
  // intact records are copied into fresh slabs.
  const std::shared_ptr<const sf::Image> image = sf::Image::read_file(path);
  const sf::File file =
      sf::parse(image->data(), image->size(), sf::Parse::kSalvage);
  const auto scheme = static_cast<Scheme>(file.header.scheme_raw);
  const NodeId n = file.header.n;
  std::vector<char> quarantined(n, 0);
  std::vector<RecordSlab> slabs;
  for (const sf::Segment& seg : file.segments) {
    const std::size_t net = scheme == Scheme::kSlack ? seg.meta[0] : 0;
    RecordSlabWriter slab;
    for (NodeId u = 0; u < n; ++u) {
      const std::uint64_t begin = seg.offset(u);
      const std::uint64_t end = seg.offset(u + 1);
      // The image has 8 readable bytes past its end, so a record cut
      // short by truncation can still be validated in place.
      const std::span<const std::uint8_t> rec(
          seg.blob + begin, static_cast<std::size_t>(end - begin));
      if (end <= seg.blob_bytes &&
          SketchPayload::valid_record(scheme, rec.data(), rec.size(), net)) {
        slab.append(rec);
      } else {
        quarantined[u] = 1;
        SketchPayload::append_empty_record(scheme, slab);
      }
    }
    slabs.push_back(std::move(slab).finish());
  }
  Recovery rec;
  rec.store = from_file(file, std::move(slabs));
  for (NodeId u = 0; u < n; ++u) {
    if (quarantined[u]) rec.quarantined.push_back(u);
  }
  return rec;
}

std::unique_ptr<DistanceOracle> SketchStore::load_oracle(
    const std::string& path) {
  return std::make_unique<SketchStore>(load_file(path));
}

// ---- registry entries -------------------------------------------------------

LoadedOracle load_sketch_file(std::istream& in) {
  auto store = std::make_unique<SketchStore>(SketchStore::read(in));
  LoadedOracle loaded;
  loaded.envelope.scheme = store->scheme();
  loaded.envelope.n = store->num_nodes();
  loaded.envelope.k = store->k();
  loaded.envelope.epsilon = store->epsilon();
  loaded.oracle = std::move(store);
  return loaded;
}

void register_sketch_oracles(OracleRegistry& reg) {
  // k_flag / uses_epsilon reflect which flags the scheme actually
  // consumes: validating a flag the build ignores would reject harmless
  // invocations against meaningless recorded defaults.
  const auto add = [&reg](const char* name, Scheme scheme,
                          const char* guarantee, const char* summary,
                          const char* k_flag, bool uses_epsilon) {
    OracleScheme s;
    s.name = name;
    s.guarantee = guarantee;
    s.summary = summary;
    s.caps = sketch_capabilities(scheme);
    s.k_flag = k_flag;
    s.uses_epsilon = uses_epsilon;
    s.build = [scheme](const Graph& g, const FlagSet& flags) {
      return std::unique_ptr<DistanceOracle>(
          new SketchStore(g, sketch_build_config(scheme, flags)));
    };
    // Sketch sets are saved as binary store files, which never reach a text loader
    // (see load_sketch_file); a text envelope naming a sketch scheme is
    // the retired text sketch format.
    s.load = [](std::istream&, const OracleEnvelope& envelope)
        -> std::unique_ptr<DistanceOracle> {
      fail(StoreError::kUnsupportedVersion,
           "text sketch files (scheme " + envelope.scheme +
               ") are not supported; rebuild with `dsketch build --save`");
    };
    reg.add(std::move(s));
  };
  add("tz", Scheme::kThorupZwick, "stretch 2k-1 (all pairs)",
      "Thorup-Zwick distributed sketches (Theorem 1.1); flags: --k --seed "
      "--echo --known-s --async",
      "k", false);
  add("slack", Scheme::kSlack, "stretch 3 (eps-slack)",
      "epsilon-density-net slack sketches (Theorem 4.3); flags: --epsilon "
      "--seed",
      "", true);
  add("cdg", Scheme::kCdg, "stretch 8k-1 (eps-slack)",
      "coarse distance-graph sketches (Theorem 4.6); flags: --k --epsilon "
      "--seed",
      "k", true);
  add("graceful", Scheme::kGraceful, "stretch O(log n), average O(1)",
      "graceful-degradation multi-level sketches (Theorem 1.3); flags: "
      "--seed",
      "", false);
}

}  // namespace dsketch
