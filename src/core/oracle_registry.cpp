#include "core/oracle_registry.hpp"

#include <cstdio>
#include <istream>
#include <mutex>
#include <ostream>
#include <stdexcept>

namespace dsketch {

// Builtin registration hooks; each lives in the translation unit that
// implements the scheme, so the scheme's code and its registry entry
// stay together. (Function calls, not static initializers: static-library
// linking would silently drop unreferenced registrar objects.)
void register_sketch_oracles(OracleRegistry& reg);    // serve/sketch_store.cpp
void register_exact_oracle(OracleRegistry& reg);      // baselines/exact_oracle.cpp
void register_landmark_oracle(OracleRegistry& reg);   // baselines/landmark.cpp
void register_vivaldi_oracle(OracleRegistry& reg);    // baselines/vivaldi.cpp
// The v4 sketch-file reader load() sends non-text streams to; it lives in
// serve/sketch_store.cpp beside the format.
LoadedOracle load_sketch_file(std::istream& in);

OracleEnvelope read_envelope_header(std::istream& in) {
  std::string tag;
  OracleEnvelope env;
  if (!(in >> tag >> env.scheme >> env.n >> env.k >> env.epsilon) ||
      tag != "scheme") {
    throw std::runtime_error("bad oracle envelope header (want: scheme "
                             "<name> <n> <k> <epsilon>)");
  }
  return env;
}

void check_envelope_flags(const FlagSet& flags, const OracleEnvelope& envelope,
                          const std::string& path) {
  const auto fail = [&](const std::string& what, const std::string& have,
                        const std::string& want) {
    throw std::runtime_error("--load " + path + ": oracle was built with " +
                             what + " " + have + " but --" + what + " " +
                             want + " was requested; rebuild with `dsketch "
                             "build` or drop the flag");
  };
  const OracleRegistry& reg = OracleRegistry::instance();
  if (flags.has("scheme")) {
    const std::string requested = flags.get("scheme", std::string{});
    reg.at(requested);  // typo check with name list
    if (requested != envelope.scheme) {
      fail("scheme", envelope.scheme, requested);
    }
  }
  // The envelope's k slot records the scheme's size parameter under the
  // flag name the registry declares (--k, --landmarks, --dim); schemes
  // without one record 0 and there is nothing to check.
  const OracleScheme& scheme_entry = reg.at(envelope.scheme);
  const std::string& k_flag = scheme_entry.k_flag;
  if (!k_flag.empty() && flags.has(k_flag) && envelope.k != 0) {
    const auto k = static_cast<std::uint32_t>(
        flags.get(k_flag, std::int64_t{0}));
    if (k != envelope.k) {
      fail(k_flag, std::to_string(envelope.k), std::to_string(k));
    }
  }
  // Schemes without an epsilon parameter record a meaningless 0; a
  // harmless --epsilon must not be rejected against it.
  if (scheme_entry.uses_epsilon && flags.has("epsilon") &&
      envelope.epsilon_recorded) {
    const double eps = flags.get("epsilon", 0.0);
    if (eps != envelope.epsilon) {
      fail("epsilon", std::to_string(envelope.epsilon),
           std::to_string(eps));
    }
  }
}

void write_envelope_header(std::ostream& out, const std::string& scheme,
                           NodeId n, std::uint32_t k, double epsilon) {
  char eps[40];
  std::snprintf(eps, sizeof(eps), "%.17g", epsilon);
  out << "scheme " << scheme << " " << n << " " << k << " " << eps << "\n";
}

OracleRegistry& OracleRegistry::instance() {
  static OracleRegistry registry;
  static std::once_flag builtins_once;
  std::call_once(builtins_once, [] {
    register_sketch_oracles(registry);
    register_exact_oracle(registry);
    register_landmark_oracle(registry);
    register_vivaldi_oracle(registry);
  });
  return registry;
}

void OracleRegistry::add(OracleScheme scheme) {
  if (scheme.name.empty() || !scheme.build) {
    throw std::runtime_error("oracle scheme needs a name and a build factory");
  }
  if (scheme.caps.supports_save != static_cast<bool>(scheme.load)) {
    throw std::runtime_error("oracle scheme '" + scheme.name +
                             "': supports_save and a load factory must come "
                             "together");
  }
  std::string name = scheme.name;  // keep valid across the move
  const auto [it, inserted] =
      schemes_.emplace(std::move(name), std::move(scheme));
  if (!inserted) {
    throw std::runtime_error("oracle scheme registered twice: " + it->first);
  }
}

const OracleScheme* OracleRegistry::find(const std::string& name) const {
  const auto it = schemes_.find(name);
  return it == schemes_.end() ? nullptr : &it->second;
}

const OracleScheme& OracleRegistry::at(const std::string& name) const {
  if (const OracleScheme* scheme = find(name)) return *scheme;
  throw std::runtime_error("unknown oracle scheme '" + name +
                           "' (registered: " + names_csv() + ")");
}

std::vector<const OracleScheme*> OracleRegistry::schemes() const {
  std::vector<const OracleScheme*> out;
  out.reserve(schemes_.size());
  for (const auto& [name, scheme] : schemes_) out.push_back(&scheme);
  return out;  // std::map iteration is already name-sorted
}

std::string OracleRegistry::names_csv() const {
  std::string csv;
  for (const auto& [name, scheme] : schemes_) {
    if (!csv.empty()) csv += ", ";
    csv += name;
  }
  return csv;
}

std::unique_ptr<DistanceOracle> OracleRegistry::build(
    const std::string& name, const Graph& g, const FlagSet& flags) const {
  return at(name).build(g, flags);
}

LoadedOracle OracleRegistry::load(std::istream& in) const {
  if (in.peek() != 's') return load_sketch_file(in);
  LoadedOracle loaded;
  loaded.envelope = read_envelope_header(in);
  const OracleScheme& scheme = at(loaded.envelope.scheme);
  if (!scheme.load) {
    throw std::runtime_error("oracle scheme '" + scheme.name +
                             "' has no load support");
  }
  loaded.oracle = scheme.load(in, loaded.envelope);
  if (!loaded.oracle) {
    throw std::runtime_error("oracle scheme '" + scheme.name +
                             "' loader returned nothing");
  }
  return loaded;
}

}  // namespace dsketch
