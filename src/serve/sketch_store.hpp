/// \file
/// The sketch set of one build, any of the four families — built, loaded
/// or mapped — and its one file format.
///
/// The paper's deployment story (§1) is build-once / query-many: the
/// expensive distributed construction runs offline, and the resulting
/// sketches are shipped to query frontends. A SketchStore is that sketch
/// set: its build constructor runs the construction (and keeps the
/// CONGEST cost), read()/load_file() bring a saved one back into one heap
/// buffer, open() maps one, and from_oracle() packs a bare TZ label set.
/// All of them hold the same label plane (core/sketch_payload): one
/// bit-packed record per node (sketch/record_slab), which a loaded or
/// mapped store reads where the file's bytes lie, with no decode step.
/// They answer through the same per-scheme functions (tz_query,
/// slack_query, cdg_query), so answers are bit-identical however the
/// store came to be (tested).
///
/// A sketch set is saved only in the v4 format: the label plane's records
/// behind page-aligned byte-offset tables. save(), write() and save_file()
/// emit the same bytes; OracleRegistry::load routes any stream that does
/// not open with a text envelope header to the reader here.
///
/// On-disk layout (little-endian):
///   bytes 0..7   magic "DSKSTOR4"
///   u32 version (4), u32 scheme, u32 n, u32 k, u32 segments, u32 flags
///   f64 epsilon                       (flags bit 0: epsilon was recorded)
///   u64 payload_bytes, u64 checksum (FNV-1a 64 over the payload)
///   u64 header_checksum             (FNV-1a 64 over the 48 header bytes
///                                    after the magic)
///   payload (starts at file offset 64): per segment
///            u64 meta_count, u64 meta[], u64 blob_bytes,
///            zero pad to the next 4096-byte file boundary,
///            u64 offsets[n+1] (BYTE offsets into the blob; offsets[0]=0,
///            offsets[n]=blob_bytes-8), pad to 4096,
///            u8 blob[blob_bytes] (one packed record per node, then 8 zero
///            bytes so every record can be read with 8-byte loads), pad
///            to 4096
///   The pads are inside the payload checksum. Records: a tz record is a
///   packed label (sketch/tz_label.hpp); a slack record is a u8 width and
///   the row of net distances at that width, all-ones meaning kInfDist; a
///   cdg record is u32 net node, u32 label owner, u64 net distance, then a
///   tz record. Segments: exactly one for tz, slack and cdg, one per
///   epsilon level for graceful; slack's meta holds the net (size, then
///   ids). v1/v2/v3 files ("DSKSTOR1".."DSKSTOR3") and the retired text
///   sketch files (a `scheme tz ...` envelope) are rejected with
///   kUnsupportedVersion: stores are rebuildable artifacts.
///
/// Durability: save_file writes a temp file, fsyncs, then renames into
/// place, so a crash mid-save never leaves a torn store at the target
/// path. Loads bounds-check every section before trusting it and throw
/// StoreCorruptionError (a std::runtime_error) with a typed diagnosis;
/// recover_file salvages the intact node records of a corrupt file.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/accounting.hpp"
#include "core/config.hpp"
#include "core/oracle.hpp"
#include "core/sketch_payload.hpp"
#include "graph/graph.hpp"

namespace dsketch {

namespace store_format {
class Image;
struct File;
}

/// What exactly a store load found wrong. Ordered roughly by how early in
/// the pipeline the fault is detected.
enum class StoreError {
  kIo,                  ///< file missing / unreadable / write failure
  kBadMagic,            ///< not a sketch store at all
  kTruncatedHeader,     ///< file ends inside the fixed header
  kHeaderChecksum,      ///< header checksum mismatch (bit-flipped header)
  kUnsupportedVersion,  ///< format this build cannot parse (v1-v3, text)
  kUnknownScheme,       ///< scheme tag outside the known families
  kTruncatedPayload,    ///< file ends inside the payload
  kPayloadChecksum,     ///< payload bytes fail the FNV-1a checksum
  kStructure,           ///< framing/record invariants violated
};

/// Thrown by read/load_file/recover_file. Subclasses std::runtime_error so
/// existing catch sites keep working; new callers can switch on kind().
class StoreCorruptionError : public std::runtime_error {
 public:
  StoreCorruptionError(StoreError kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  StoreError kind() const { return kind_; }

 private:
  StoreError kind_;
};

/// The on-disk encoding write()/save_file() emit. There is one format,
/// v4; the argument is ignored and kept for callers that still name it.
enum class StoreFormat { kV3 = 3 };

/// Query-ready sketches for all four schemes. A SketchStore is itself a
/// DistanceOracle — what the registry's "tz", "slack", "cdg" and
/// "graceful" entries build and load — so anything that takes an oracle
/// (the query service, evaluate_stretch, the benches) serves straight
/// from its label plane; the inherited query_batch is the zero-alloc
/// query path.
class SketchStore final : public DistanceOracle {
 public:
  /// An empty store (no nodes); fill via the build constructor,
  /// from_oracle or read.
  SketchStore() = default;

  /// Runs the distributed construction for config.scheme on g (see
  /// build_sketch_payload); build_cost() then reports its CONGEST cost.
  SketchStore(const Graph& g, const BuildConfig& config);

  /// Packs another sketch set: a copy of a SketchStore, or the label
  /// arena of a TzLabelOracle (which records no epsilon). The result
  /// carries no build cost. Throws std::runtime_error for oracles without
  /// a label plane (the baselines).
  static SketchStore from_oracle(const DistanceOracle& oracle);

  /// Binary round trip. read()/load_file() read the file into one heap
  /// buffer, validate magic, version, header checksum, framing, the
  /// payload checksum and every record (widths, size, sorted ids), then
  /// serve from that buffer — no second copy, no decode. They throw
  /// StoreCorruptionError on any mismatch. save_file is atomic: temp
  /// file + fsync + rename, so readers of `path` see either the old
  /// complete store or the new complete store, never a torn write.
  void write(std::ostream& out, StoreFormat format = StoreFormat::kV3) const;
  static SketchStore read(std::istream& in);
  void save_file(const std::string& path,
                 StoreFormat format = StoreFormat::kV3) const;
  static SketchStore load_file(const std::string& path);

  /// Maps the store at `path` read-only and serves from the mapping: the
  /// page cache is the only copy. Runs the same framing parser as read()
  /// (header, checksummed header, monotone in-bounds offset tables) but
  /// leaves records to the query kernel's per-record bounds checks, so
  /// corrupt record bytes answer a distance or kInfDist, never an
  /// out-of-bounds read. verify_checksum pays one payload pass up front.
  static std::unique_ptr<SketchStore> open(const std::string& path,
                                           bool verify_checksum = false);
  /// Releases a mapped store's resident pages so the next queries fault
  /// them back in (benches re-measure cold latency this way); a no-op on
  /// a built or heap-loaded store.
  void drop_pages() const;

  /// Best-effort salvage of a corrupt store file. Parses the framing with
  /// every bounds check but without requiring the payload checksum, then
  /// validates each node record individually: structurally intact records
  /// are kept, broken ones are quarantined — replaced by an empty record
  /// whose queries answer kInfDist (a safe "don't know", never a wrong
  /// finite distance). Throws StoreCorruptionError when the header or the
  /// segment framing itself is unrecoverable. Caveat: a bit flip *inside*
  /// a structurally valid record is not detectable at record granularity;
  /// only the whole-payload checksum (the normal load path) proves full
  /// integrity.
  struct Recovery;  // defined below (needs the complete SketchStore type)
  static Recovery recover_file(const std::string& path);

  /// Binary load straight to the polymorphic interface — what a serving
  /// frontend hands to its QueryService.
  static std::unique_ptr<DistanceOracle> load_oracle(const std::string& path);

  /// Distance estimate from the two nodes' sketches only; allocation-free
  /// and safe to call concurrently from any number of threads.
  Dist query(NodeId u, NodeId v) const override;

  /// Words stored at node u in the paper's accounting — the same number
  /// the build-side oracle reports.
  std::size_t size_words(NodeId u) const override;
  /// Registry name of the stored family ("tz", "slack", ...).
  std::string scheme() const override { return scheme_name(scheme_); }
  /// Worst-case guarantee with the recorded k/epsilon filled in.
  std::string guarantee() const override;
  /// Capabilities of the stored family; build_cost_available only for a
  /// fresh build.
  Capabilities capabilities() const override;
  /// The CONGEST construction cost; nullptr unless this store was built
  /// by the build constructor (the cost is not persisted).
  const SimStats* build_cost() const override {
    return has_cost_ ? &cost_ : nullptr;
  }
  /// DistanceOracle::save: the v4 file, byte for byte what save_file
  /// writes, so OracleRegistry::load reads it back.
  void save(std::ostream& out) const override { write(out); }

  /// The sketch family the store holds.
  Scheme store_scheme() const { return scheme_; }
  /// Nodes covered (valid query ids are [0, n)).
  NodeId num_nodes() const override { return n_; }
  /// The TZ/CDG hierarchy depth recorded at build time.
  std::uint32_t k() const { return k_; }
  /// The slack/CDG epsilon recorded at build time (see epsilon_known()).
  double epsilon() const { return epsilon_; }
  /// False when the store was packed from a bare TZ label set
  /// (TzLabelOracle), which records no epsilon: epsilon() is then 0, not
  /// a build value. The file header's flag carries this through
  /// save/load.
  bool epsilon_known() const { return epsilon_known_; }
  /// Store segments (1 for tz/slack/cdg; one per level for graceful).
  std::size_t num_segments() const { return payload_.num_segments(); }
  /// The label plane the store answers from.
  const SketchPayload& payload() const { return payload_; }

  /// The payload size in bytes, including the page-alignment padding —
  /// what `save_file` puts on disk past the 64-byte header.
  std::size_t encoded_bytes() const;

  /// Packed bytes of node u's records, summed across segments — the
  /// per-node serving footprint without file framing or padding.
  std::size_t encoded_record_bytes(NodeId u) const;

 private:
  /// The store of `file`'s header over `slabs`, one per segment.
  static SketchStore from_file(const store_format::File& file,
                               std::vector<RecordSlab> slabs);
  /// The store serving the parsed file `file` out of `image`.
  static SketchStore from_image(
      std::shared_ptr<const store_format::Image> image,
      const store_format::File& file);
  /// Emits the payload as a sequence of byte runs: fn(data, size).
  template <typename Fn>
  void for_each_payload_run(Fn&& fn) const;

  Scheme scheme_ = Scheme::kThorupZwick;
  NodeId n_ = 0;
  std::uint32_t k_ = 0;
  double epsilon_ = 0.0;
  bool epsilon_known_ = true;
  bool has_cost_ = false;  ///< see build_cost()
  SimStats cost_;
  SketchPayload payload_;
  /// The file bytes the payload borrows (loaded or mapped stores).
  std::shared_ptr<const store_format::Image> image_;
};

/// Result of SketchStore::recover_file — see its doc comment.
struct SketchStore::Recovery {
  SketchStore store;
  std::vector<NodeId> quarantined;  ///< nodes whose records were replaced
  bool checksum_ok = false;  ///< the file was actually fine (no salvage)
};

class OracleRegistry;
struct LoadedOracle;

/// Registers the four sketch families ("tz", "slack", "cdg", "graceful"),
/// each built as a SketchStore.
void register_sketch_oracles(OracleRegistry& reg);

/// Reads a v4 sketch file into a SketchStore and fills the envelope from
/// its header (scheme, n, k, epsilon, the epsilon-known flag): where
/// OracleRegistry::load sends every stream without a text envelope
/// header. Throws StoreCorruptionError like read().
LoadedOracle load_sketch_file(std::istream& in);

}  // namespace dsketch
