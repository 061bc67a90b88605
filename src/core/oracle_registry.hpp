// Name -> oracle scheme resolution, and the versioned save/load envelope.
//
// Every distance estimator in the library registers itself here under its
// stable external name (the one the CLI flags, text headers, and bench
// JSON use). Consumers resolve schemes by name instead of switching on an
// enum, so adding a scheme is: implement DistanceOracle, write a
// register_*_oracle() function, add it to the builtin bootstrap list —
// and every experiment, the CLI, and the serving tier pick it up.
//
//   const OracleRegistry& reg = OracleRegistry::instance();
//   auto oracle = reg.build("landmark", g, flags);
//   for (const OracleScheme* s : reg.schemes()) { ... }   // --list-schemes
//
// Saved files come in two kinds, told apart by their first byte:
//
//   - The four sketch families save the binary store file
//     (serve/sketch_store.hpp, magic "DSKSTOR5"); load() sends every
//     stream that does not open with a text header to the store reader
//     there, which fills the envelope from the binary header.
//   - Each baseline's save() override writes a text envelope, one
//     header line (write_envelope_header) + payload:
//
//       scheme <name> <n> <k> <epsilon>\n<payload...>
//
//     Loading resolves <name> through the registry to the scheme's
//     loader.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/oracle.hpp"
#include "graph/graph.hpp"
#include "util/flags.hpp"

namespace dsketch {

/// Parsed file header: what was recorded at save time. Loaders and the
/// CLI's --load validation consume this instead of re-parsing the file.
struct OracleEnvelope {
  std::string scheme;
  NodeId n = 0;
  std::uint32_t k = 0;       ///< scheme-defined; 0 when not meaningful
  double epsilon = 0.0;      ///< 0 for schemes without the parameter
};

/// Reads and consumes the text envelope header line, throwing on
/// malformed input. The stream is left after the epsilon field.
OracleEnvelope read_envelope_header(std::istream& in);

/// Rejects explicit build flags that contradict a loaded file's envelope
/// (--scheme, the scheme's k flag, --epsilon): a loaded oracle answers
/// with the configuration it was built with, and silently ignoring them
/// would report estimates under the wrong guarantee. Flags the scheme
/// does not use are not checked. `path` names the file in the error
/// message.
void check_envelope_flags(const FlagSet& flags, const OracleEnvelope& envelope,
                          const std::string& path);

/// Writes the text envelope header line.
void write_envelope_header(std::ostream& out, const std::string& scheme,
                           NodeId n, std::uint32_t k, double epsilon);

/// Writes one space-separated payload row + newline — the shared line
/// format of the text payload loaders/savers (exact/landmark/vivaldi),
/// kept in one place so the envelopes cannot silently diverge.
template <typename T>
void write_payload_row(std::ostream& out, const std::vector<T>& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    out << (i == 0 ? "" : " ") << row[i];
  }
  out << "\n";
}

/// One registered scheme: identity, static capability summary, and the
/// two factories every consumer resolves by name.
struct OracleScheme {
  using BuildFn = std::function<std::unique_ptr<DistanceOracle>(
      const Graph&, const FlagSet&)>;
  using LoadFn = std::function<std::unique_ptr<DistanceOracle>(
      std::istream&, const OracleEnvelope&)>;

  std::string name;       ///< stable external name ("tz", "landmark", ...)
  std::string guarantee;  ///< scheme-level bound with parameters symbolic
                          ///< ("stretch 2k-1 (all pairs)")
  std::string summary;    ///< one-line description for --list-schemes
  /// Capabilities, the same for every instance of the scheme.
  Capabilities caps;
  /// Name of the build flag whose value the envelope's k field records
  /// ("k" for tz/slack/cdg/graceful, "landmarks" for landmark, "dim" for
  /// vivaldi; empty when the scheme has no such parameter). Lets --load
  /// validation compare the user's flag against the envelope without a
  /// hand-maintained per-scheme table.
  std::string k_flag;
  /// Whether --epsilon is a build parameter of this scheme; when false,
  /// --load validation ignores the envelope's (meaningless) epsilon
  /// instead of rejecting a harmless flag.
  bool uses_epsilon = false;
  /// Builds the oracle from a graph plus scheme flags (--k, --epsilon,
  /// --landmarks, ...); each factory reads its own flags with defaults.
  BuildFn build;
  /// Reconstructs from an envelope payload; null when the scheme has no
  /// saved form.
  LoadFn load;
};

/// A loaded oracle plus the envelope it came from (for --load validation).
struct LoadedOracle {
  std::unique_ptr<DistanceOracle> oracle;
  OracleEnvelope envelope;
};

/// The process-wide scheme table. The built-in schemes (4 sketch
/// families + 3 baselines) are registered on first access; user schemes
/// can be added at any time.
class OracleRegistry {
 public:
  /// The singleton, with builtin schemes registered.
  static OracleRegistry& instance();

  /// Registers a scheme; throws std::runtime_error on a duplicate name.
  void add(OracleScheme scheme);

  /// nullptr when unknown.
  const OracleScheme* find(const std::string& name) const;

  /// Throws std::runtime_error listing the known names when unknown.
  const OracleScheme& at(const std::string& name) const;

  /// All registered schemes, sorted by name (the --list-schemes source).
  std::vector<const OracleScheme*> schemes() const;

  /// Builds by name: at(name).build(g, flags).
  std::unique_ptr<DistanceOracle> build(const std::string& name,
                                        const Graph& g,
                                        const FlagSet& flags) const;

  /// Loads what DistanceOracle::save wrote. A stream opening with the
  /// text header's 's' goes to the named scheme's loader; any other goes
  /// to the sketch-file reader (load_sketch_file in
  /// serve/sketch_store). Throws for unknown schemes, schemes without
  /// a loader, and text files naming a sketch scheme.
  LoadedOracle load(std::istream& in) const;

 private:
  OracleRegistry() = default;
  /// Sorted registered names, comma-joined (for error messages).
  std::string names_csv() const;
  std::map<std::string, OracleScheme> schemes_;
};

}  // namespace dsketch
