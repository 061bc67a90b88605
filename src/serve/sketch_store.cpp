#include "serve/sketch_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "core/oracle_registry.hpp"
#include "dynamics/incremental.hpp"
#include "obs/trace.hpp"
#include "serve/label_codec.hpp"
#include "serve/store_format.hpp"
#include "util/assert.hpp"

namespace dsketch {
namespace {

namespace sf = store_format;
using sf::fail;

// ---- little-endian byte packing --------------------------------------------

class ByteWriter {
 public:
  void u32(std::uint32_t x) {
    for (int i = 0; i < 4; ++i) bytes_.push_back((x >> (8 * i)) & 0xff);
  }
  void u64(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) bytes_.push_back((x >> (8 * i)) & 0xff);
  }
  void f64(double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    u64(bits);
  }
  void raw(const std::vector<std::uint8_t>& data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }
  /// Zero-pads the payload to the next page-aligned file position.
  void pad_page() {
    bytes_.insert(bytes_.end(), sf::page_pad(bytes_.size()), 0);
  }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Reads one store's file image from `in`: the 64-byte header, then at
/// most the payload size it declares, in bounded chunks — a corrupted
/// size must fail as "truncated" in sf::parse, not as a giant allocation.
std::vector<std::uint8_t> read_image(std::istream& in) {
  std::vector<std::uint8_t> image(sf::kPayloadStart);
  in.read(reinterpret_cast<char*>(image.data()),
          static_cast<std::streamsize>(image.size()));
  image.resize(static_cast<std::size_t>(in.gcount()));
  if (image.size() < sf::kPayloadStart) return image;
  const std::uint64_t payload_size = sf::load_u64(image.data() + 40);
  constexpr std::uint64_t kReadChunk = 1 << 24;
  while (image.size() - sf::kPayloadStart < payload_size) {
    const std::uint64_t want = std::min(
        kReadChunk, payload_size - (image.size() - sf::kPayloadStart));
    const std::size_t old_size = image.size();
    image.resize(old_size + static_cast<std::size_t>(want));
    in.read(reinterpret_cast<char*>(image.data() + old_size),
            static_cast<std::streamsize>(want));
    image.resize(old_size + static_cast<std::size_t>(in.gcount()));
    if (static_cast<std::uint64_t>(in.gcount()) < want) break;
  }
  return image;
}

std::vector<std::uint8_t> read_image(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(StoreError::kIo, "cannot open for read: " + path);
  return read_image(in);
}

/// Decodes every record of a parsed file into the label plane. Strict
/// (quarantined == nullptr) throws on the first invalid record; salvage
/// replaces invalid or missing records by the empty record and marks
/// their nodes.
SketchPayload decode_payload(const sf::File& file,
                             std::vector<char>* quarantined) {
  const auto scheme = static_cast<Scheme>(file.header.scheme_raw);
  const NodeId n = file.header.n;
  SketchPayload payload;
  payload.scheme = scheme;
  std::vector<CdgSketchSet> levels;
  DecodedRecord rec;
  for (const sf::Segment& seg : file.segments) {
    std::size_t slack_net = 0;
    std::size_t cells = 0;
    if (scheme == Scheme::kSlack) {
      slack_net = static_cast<std::size_t>(seg.meta[0]);
      payload.slack = SlackSketchSet(
          std::vector<NodeId>(seg.meta.begin() + 1, seg.meta.end()));
      payload.slack.reserve(n);
    } else {
      // Size the label slab up front: growing it record by record would
      // copy and fault in every byte of it several times.
      for (NodeId u = 0; u < n && seg.offset(u + 1) <= seg.blob_bytes;
           ++u) {
        cells += v3_label_cells(scheme, seg.blob + seg.offset(u),
                                seg.blob + seg.offset(u + 1));
      }
    }
    CdgSketchSet cdg;
    if (scheme == Scheme::kThorupZwick) payload.tz.reserve(n, cells);
    if (scheme == Scheme::kCdg || scheme == Scheme::kGraceful) {
      cdg.reserve(n, cells);
    }
    for (NodeId u = 0; u < n; ++u) {
      const std::uint64_t begin = seg.offset(u);
      const std::uint64_t end = seg.offset(u + 1);
      if (end > seg.blob_bytes ||
          !decode_v3_record(scheme, seg.blob + begin, seg.blob + end, u,
                            slack_net, rec)) {
        if (quarantined == nullptr) {
          fail(StoreError::kStructure, "invalid node record");
        }
        (*quarantined)[u] = 1;
        empty_record(scheme, u, slack_net, rec);
      }
      switch (scheme) {
        case Scheme::kThorupZwick:
          payload.tz.append(rec.label.view());
          break;
        case Scheme::kSlack:
          payload.slack.append_row(rec.row.data());
          break;
        case Scheme::kCdg:
        case Scheme::kGraceful:
          cdg.append(rec.net_node, rec.net_dist, rec.label.view());
          break;
      }
    }
    if (scheme == Scheme::kCdg) payload.cdg = std::move(cdg);
    if (scheme == Scheme::kGraceful) levels.push_back(std::move(cdg));
  }
  if (scheme == Scheme::kGraceful) {
    payload.graceful = GracefulSketchSet(std::move(levels));
  }
  return payload;
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
  // is a tz payload; it carries no recorded epsilon.
  const auto* tz = dynamic_cast<const TzLabelOracle*>(&oracle);
  if (tz == nullptr) {
    throw std::runtime_error("oracle scheme '" + oracle.scheme() +
                             "' has no packed store representation");
  }
  SketchStore store;
  store.scheme_ = Scheme::kThorupZwick;
  store.k_ = tz->k();
  store.epsilon_known_ = false;
  store.n_ = tz->num_nodes();
  store.payload_.tz = tz->labels();
  return store;
}

// ---- queries ----------------------------------------------------------------

Dist SketchStore::query(NodeId u, NodeId v) const {
  DS_CHECK(u < n_ && v < n_);
  return payload_.query(u, v);
}

std::size_t SketchStore::size_words(NodeId u) const {
  DS_CHECK(u < n_);
  return payload_.size_words(u);
}

std::size_t SketchStore::encoded_bytes() const {
  return encode_payload().size();
}

std::size_t SketchStore::encoded_record_bytes(NodeId u) const {
  DS_CHECK(u < n_);
  std::vector<std::uint8_t> bytes;
  for (std::size_t s = 0; s < num_segments(); ++s) {
    encode_v3_record(payload_, s, u, bytes);
  }
  return bytes.size();
}

std::string SketchStore::guarantee() const {
  return sketch_guarantee(scheme_, k_, epsilon_);
}

Capabilities SketchStore::capabilities() const {
  Capabilities caps = sketch_capabilities(scheme_, k_);
  caps.build_cost_available = has_cost_;
  return caps;
}

// ---- binary round trip ------------------------------------------------------

std::vector<std::uint8_t> SketchStore::encode_payload() const {
  ByteWriter payload;
  std::vector<std::uint8_t> blob;
  std::vector<std::uint64_t> offsets;
  for (std::size_t s = 0; s < num_segments(); ++s) {
    if (scheme_ == Scheme::kSlack) {
      const std::vector<NodeId>& net = payload_.slack.net();
      payload.u64(net.size() + 1);
      payload.u64(net.size());
      for (const NodeId w : net) payload.u64(w);
    } else {
      payload.u64(0);
    }
    blob.clear();
    offsets.assign(1, 0);
    for (NodeId u = 0; u < n_; ++u) {
      encode_v3_record(payload_, s, u, blob);
      offsets.push_back(blob.size());
    }
    payload.u64(blob.size());
    payload.pad_page();
    for (const std::uint64_t o : offsets) payload.u64(o);
    payload.pad_page();
    payload.raw(blob);
    payload.pad_page();
  }
  return payload.take();
}

void SketchStore::write(std::ostream& out, StoreFormat /*format*/) const {
  const obs::Span span("store_write");
  const std::vector<std::uint8_t> body = encode_payload();
  out.write(sf::kMagic, 8);
  ByteWriter h;
  h.u32(sf::kVersion);
  h.u32(static_cast<std::uint32_t>(scheme_));
  h.u32(n_);
  h.u32(k_);
  h.u32(static_cast<std::uint32_t>(num_segments()));
  h.u32(epsilon_known_ ? sf::kFlagEpsilonKnown : 0);
  h.f64(epsilon_);
  h.u64(body.size());
  h.u64(sf::fnv1a64(body.data(), body.size()));
  // The header is checksummed too: the payload checksum cannot cover it,
  // and a bit flip in n/k/epsilon/payload_size must not go unnoticed.
  h.u64(sf::fnv1a64(h.bytes().data(), h.bytes().size()));
  out.write(reinterpret_cast<const char*>(h.bytes().data()),
            static_cast<std::streamsize>(h.bytes().size()));
  out.write(reinterpret_cast<const char*>(body.data()),
            static_cast<std::streamsize>(body.size()));
  if (!out) fail(StoreError::kIo, "write failed");
}

SketchStore SketchStore::decode(const store_format::File& file,
                                std::vector<char>* quarantined) {
  const sf::StoreHeader& hdr = file.header;
  SketchStore store;
  store.scheme_ = static_cast<Scheme>(hdr.scheme_raw);
  store.n_ = hdr.n;
  store.k_ = hdr.k;
  store.epsilon_ = hdr.epsilon;
  store.epsilon_known_ = hdr.epsilon_known;
  store.payload_ = decode_payload(file, quarantined);
  return store;
}

SketchStore SketchStore::read(std::istream& in) {
  const obs::Span span("store_read");
  const std::vector<std::uint8_t> image = read_image(in);
  return decode(sf::parse(image.data(), image.size(), sf::Parse::kVerified),
                nullptr);
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
  // records may be garbage (bit flips) — those quarantine per node.
  const std::vector<std::uint8_t> image = read_image(path);
  const sf::File file =
      sf::parse(image.data(), image.size(), sf::Parse::kSalvage);
  std::vector<char> quarantined(file.header.n, 0);
  Recovery rec;
  rec.store = decode(file, &quarantined);
  for (NodeId u = 0; u < rec.store.n_; ++u) {
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
  loaded.envelope.epsilon_recorded = store->epsilon_known();
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
    // Scheme-level capabilities (k = 0: parameter-dependent bounds stay
    // unresolved); instances resolve them with the build values.
    s.caps = sketch_capabilities(scheme, 0);
    s.k_flag = k_flag;
    s.uses_epsilon = uses_epsilon;
    s.build = [scheme](const Graph& g, const FlagSet& flags) {
      return std::unique_ptr<DistanceOracle>(
          new SketchStore(g, sketch_build_config(scheme, flags)));
    };
    // Sketch sets are saved as v3 files, which never reach a text loader
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
