/// \file
/// Memory-mapped serving of a v3 sketch store.
///
/// SketchStore::read decodes the whole file into the label plane — fine
/// for tooling, but a serving frontend that hosts many stores (or one
/// store much larger than RAM) wants the kernel's page cache to be the
/// only copy. MmapSketchStore maps the file read-only and answers queries
/// off the encoded bytes:
///
///   - open() runs the same header-and-framing parser as the heap loader
///     (serve/store_format): the 64-byte header (magic + FNV-1a header
///     checksum) and the segment framing — meta words, the page-aligned
///     byte-offset tables (monotone, [0] == 0, [n] == blob_bytes), and
///     that every section fits the mapping. That touches O(n)
///     offset-table pages but zero blob pages.
///   - The blob is validated lazily: each query decodes the two queried
///     records with the bounds-checked record decoder (serve/label_codec)
///     into thread-local scratch, so a corrupt blob yields kInfDist
///     answers, never an out-of-bounds read. Pass verify_checksum=true to
///     pay one full payload pass up front instead.
///   - The decoded records are then answered by the same query functions
///     the heap store and the build-side oracle run (tz_query,
///     slack_query, cdg_query), so answers are bit-identical to the heap
///     SketchStore on the same file (tested). The price is a record
///     decode on every query, warm or cold.
///
/// First touch of a record's page is a major/minor page fault (the
/// "cold" cost E7 reports); repeated touches run at memory speed
/// ("warm"). drop_pages() releases the resident pages so a bench can
/// re-measure fault-in without reopening.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/oracle.hpp"
#include "serve/sketch_store.hpp"
#include "serve/store_format.hpp"

namespace dsketch {

struct DecodedRecord;

class MmapSketchStore final : public DistanceOracle {
 public:
  /// Maps the v3 store at `path` (v1/v2 files throw
  /// kUnsupportedVersion). Throws StoreCorruptionError on a bad header or
  /// broken framing, and — with verify_checksum — on a payload checksum
  /// mismatch.
  static std::unique_ptr<MmapSketchStore> open(const std::string& path,
                                               bool verify_checksum = false);

  ~MmapSketchStore() override;
  MmapSketchStore(const MmapSketchStore&) = delete;
  MmapSketchStore& operator=(const MmapSketchStore&) = delete;

  /// Decodes the two records and answers them; thread-safe (the scratch
  /// is thread-local). Malformed records answer kInfDist.
  Dist query(NodeId u, NodeId v) const override;

  NodeId num_nodes() const override { return n_; }
  /// Words of node u's records in the paper's accounting — the number
  /// the heap store and the build-side oracle report (0 for a malformed
  /// record; encoded_bytes_for is the on-disk number).
  std::size_t size_words(NodeId u) const override;
  std::string scheme() const override;
  std::string guarantee() const override;
  /// Heap-store capabilities minus save: the mapping is already the
  /// persistent form.
  Capabilities capabilities() const override;

  Scheme store_scheme() const { return scheme_; }
  std::uint32_t k() const { return k_; }
  double epsilon() const { return epsilon_; }
  bool epsilon_known() const { return epsilon_known_; }
  std::size_t num_segments() const { return segments_.size(); }
  /// Bytes mapped (the whole file).
  std::size_t mapped_bytes() const { return map_len_; }
  /// Encoded bytes of node u's records on disk, summed across segments.
  std::size_t encoded_bytes_for(NodeId u) const;

  /// Releases the resident pages of the mapping (madvise MADV_DONTNEED):
  /// the next query faults them back in. Benches use this to re-measure
  /// cold (fault-in) latency without reopening the file.
  void drop_pages() const;

 private:
  MmapSketchStore() = default;

  /// Decodes node u's record of segment `s` into `out`; false when the
  /// record is malformed.
  bool decode(std::size_t s, NodeId u, DecodedRecord& out) const;

  void* map_ = nullptr;
  std::size_t map_len_ = 0;
  Scheme scheme_ = Scheme::kThorupZwick;
  NodeId n_ = 0;
  std::uint32_t k_ = 0;
  double epsilon_ = 0.0;
  bool epsilon_known_ = true;
  std::vector<store_format::Segment> segments_;
};

}  // namespace dsketch
