/// \file
/// The repro runner: manifest -> parallel, resumable experiment cells.
///
/// Expands a manifest into concrete cells (exp/manifest.hpp), materializes
/// the graph corpus once (exp/corpus_cache.hpp), then executes each cell's
/// experiment in-process, writing one JSON-lines artifact per cell under
/// `<out_dir>/cells/`. Independent cells run in parallel on a dynamic
/// worker queue; then the cells of experiments the registry marks
/// `alone` (those that time themselves) run one at a time, so no
/// neighbour shares their CPU or the process-wide trace session.
/// Determinism comes from the experiments themselves (all randomness is
/// seeded) plus per-cell derived seeds, so thread count and scheduling
/// never change results.
///
/// Resume semantics: a cell's artifact is written to a temp file and
/// renamed only after the experiment succeeds, with a final
/// `status = "ok"` footer line. A later run skips any cell whose artifact
/// exists and validates (same cell id, ok footer); `force` reruns
/// everything. Failed cells leave a `.failed` file for debugging and are
/// retried on the next run.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/manifest.hpp"

namespace dsketch::exp {

/// Runner configuration.
struct RunOptions {
  std::string out_dir;           ///< artifact root (required)
  std::string corpus_dir;        ///< graph cache; default out_dir + "/corpus"
  std::size_t threads = 0;       ///< parallel cells; 0 = hardware concurrency
  bool force = false;            ///< rerun cells that have valid artifacts
  std::ostream* progress = nullptr;  ///< per-cell progress lines (may be null)
};

/// Outcome of one cell.
struct CellResult {
  /// How the cell ended.
  enum class Status {
    kRan,      ///< executed this run and succeeded
    kSkipped,  ///< valid artifact already existed (resume)
    kFailed    ///< executed and failed; artifact kept as `.failed`
  };
  std::string id;          ///< content-addressed cell id
  std::string experiment;  ///< registry id, e.g. "e7"
  std::string out_path;    ///< artifact path (cells/<id>.jsonl)
  Status status = Status::kRan;  ///< how the cell ended
  double started = 0;  ///< seconds from the run's start (0 when skipped)
  double seconds = 0;  ///< cell wall time (0 when skipped)
  std::string error;             ///< set when status == kFailed
};

/// Outcome of a whole manifest run.
struct RunSummary {
  std::vector<CellResult> cells;  ///< one entry per expanded cell
  std::size_t ran = 0;            ///< cells executed this run
  std::size_t skipped = 0;        ///< cells satisfied by resume
  std::size_t failed = 0;         ///< cells that errored
  double wall_seconds = 0;        ///< whole-run wall time

  /// True when no cell failed.
  bool ok() const { return failed == 0; }
};

/// Runs every cell of the manifest. Throws on setup errors (unknown
/// experiment id, unwritable out_dir); per-cell experiment failures are
/// reported in the summary instead of thrown, so one broken cell never
/// discards a grid's worth of completed work.
RunSummary run_manifest(const Manifest& manifest, const RunOptions& options);

/// True when `path` holds a complete artifact for `cell_id`: parseable
/// final line with status "ok" and a matching cell id (the resume check).
bool cell_output_valid(const std::string& path, const std::string& cell_id);

/// The artifact path for a cell id under an output root.
std::string cell_output_path(const std::string& out_dir,
                             const std::string& cell_id);

}  // namespace dsketch::exp
