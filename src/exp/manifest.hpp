/// \file
/// Declarative experiment manifests for `dsketch repro`.
///
/// A manifest is a TOML-subset file describing a reproduction run: a named
/// graph corpus plus a list of experiment cells whose parameters may be
/// sweep axes (arrays expand as a cross product). Example:
///
///   name = "quick"
///   seed = 7
///
///   [corpus.er1k]            # one named graph, generator flags as keys
///   topology = "er"
///   n = 1024
///   p = 0.008
///
///   [[cell]]                 # one experiment cell (template)
///   experiment = "e7"
///   graph = "er1k"           # reference into the corpus
///   queries = [20000, 80000] # sweep axis: expands to two cells
///
/// Supported TOML subset: `key = value` pairs (strings, integers, floats,
/// booleans, flat arrays), `[corpus.NAME]` tables, `[[cell]]` array
/// entries, and `#` comments. Unknown keys are rejected with a line number
/// so typos fail loudly instead of silently running a default grid.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"  // fnv1a64: cell ids and corpus cache names

/// The repro harness: manifests, corpus cache, runner, report.
namespace dsketch::exp {

/// Hex rendering of a hash (16 lowercase digits, or fewer when truncated).
std::string hash_hex(std::uint64_t hash, std::size_t digits = 16);

/// One named graph in the corpus: generator parameters as key/value
/// strings (`topology` is required; the rest are generator flags,
/// validated against the generator allowlist).
struct GraphSpec {
  std::string name;  ///< the [corpus.NAME] key cells reference
  std::vector<std::pair<std::string, std::string>> params;  ///< file order

  /// Canonical "k=v k=v" form, keys sorted — the content-address input.
  std::string canonical() const;
};

/// One experiment cell template. Each param maps to one or more values;
/// multi-valued params are sweep axes expanded by expand_cells().
struct CellSpec {
  std::string experiment;  ///< registry id, e.g. "e7"
  std::vector<std::pair<std::string, std::vector<std::string>>>
      params;  ///< key -> sweep values, file order
};

/// A parsed manifest.
struct Manifest {
  std::string name;             ///< run name (output subdirectory)
  std::uint64_t base_seed = 7;  ///< mixed into derived per-cell seeds
  std::vector<GraphSpec> corpus;  ///< named graphs, file order
  std::vector<CellSpec> cells;    ///< cell templates, file order

  /// Corpus entry by name; nullptr when absent.
  const GraphSpec* find_graph(const std::string& graph_name) const;
};

/// Parses manifest text; throws std::runtime_error with a line number on
/// syntax errors, unknown keys, or missing required fields.
Manifest parse_manifest(const std::string& text);

/// Reads and parses a manifest file.
Manifest load_manifest_file(const std::string& path);

/// A fully resolved cell: one experiment invocation with scalar params.
struct Cell {
  std::string experiment;  ///< registry id, e.g. "e7"
  std::vector<std::pair<std::string, std::string>> params;  ///< sorted

  /// Content-addressed id, "e7-a1b2c3d4e5f6": stable across runs for the
  /// same (experiment, params) — the resume key.
  std::string id() const;
};

/// Expands every cell template's sweep axes into concrete cells (cross
/// product, last axis fastest), preserving manifest order.
std::vector<Cell> expand_cells(const Manifest& m);

}  // namespace dsketch::exp
