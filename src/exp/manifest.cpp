#include "exp/manifest.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace dsketch::exp {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("manifest line " + std::to_string(line_no) + ": " +
                           what);
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Strips a trailing comment ('#' outside of quotes).
std::string strip_comment(const std::string& line) {
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"' && (i == 0 || line[i - 1] != '\\')) in_string = !in_string;
    if (c == '#' && !in_string) return line.substr(0, i);
  }
  return line;
}

bool is_bare_key(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '-') {
      return false;
    }
  }
  return true;
}

bool is_number(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

bool is_bool(const std::string& s) { return s == "true" || s == "false"; }

/// Parses one scalar token: a quoted string (unescaped) or a bare
/// number/boolean literal (kept verbatim).
std::string parse_scalar(const std::string& token, std::size_t line_no) {
  if (token.size() >= 2 && token.front() == '"') {
    if (token.back() != '"' || token.size() < 2) {
      fail(line_no, "unterminated string: " + token);
    }
    std::string out;
    for (std::size_t i = 1; i + 1 < token.size(); ++i) {
      if (token[i] == '\\') {
        if (i + 2 >= token.size() ||
            (token[i + 1] != '"' && token[i + 1] != '\\')) {
          fail(line_no, "unsupported escape in string: " + token);
        }
        out += token[++i];
      } else if (token[i] == '"') {
        fail(line_no, "stray quote inside string: " + token);
      } else {
        out += token[i];
      }
    }
    return out;
  }
  if (is_number(token) || is_bool(token)) return token;
  fail(line_no, "bad value (want a number, true/false, or a quoted "
                "string): " + token);
}

/// Splits an array body on top-level commas, respecting quoted strings.
std::vector<std::string> split_array(const std::string& body,
                                     std::size_t line_no) {
  std::vector<std::string> items;
  std::string current;
  bool in_string = false;
  for (std::size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (c == '"' && (i == 0 || body[i - 1] != '\\')) in_string = !in_string;
    if (c == ',' && !in_string) {
      items.push_back(trim(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (in_string) fail(line_no, "unterminated string in array");
  current = trim(current);
  if (!current.empty()) items.push_back(current);  // trailing comma is ok
  if (items.empty()) fail(line_no, "empty array");
  return items;
}

/// Parses a value into its scalar element(s): arrays become sweep axes.
std::vector<std::string> parse_value(const std::string& raw,
                                     std::size_t line_no) {
  if (!raw.empty() && raw.front() == '[') {
    if (raw.back() != ']') fail(line_no, "unterminated array: " + raw);
    std::vector<std::string> out;
    for (const std::string& item :
         split_array(raw.substr(1, raw.size() - 2), line_no)) {
      out.push_back(parse_scalar(item, line_no));
    }
    return out;
  }
  return {parse_scalar(raw, line_no)};
}

const std::set<std::string>& corpus_keys() {
  // The generator flags exp::generate_graph understands (corpus_cache.cpp).
  static const std::set<std::string> keys = {
      "topology", "n",      "p",           "m",    "beta",
      "radius",   "rows",   "pops",        "chords", "ring-weight",
      "chord-weight", "wmin", "wmax",      "seed"};
  return keys;
}

const std::set<std::string>& cell_keys() {
  // The scale/override flags the experiments read (see bench_e*.cpp and
  // docs/BENCHMARKS.md); `graph` references the corpus by name.
  static const std::set<std::string> keys = {
      "graph", "n",      "nmax",   "p",     "k",     "kmax", "sources",
      "pops",  "queries", "threads", "batch", "shards", "cache", "seed",
      // E14 (dynamic refresh) knobs — see bench_e14_dynamic.cpp.
      "rounds", "updates", "policies", "budget", "unrepaired-budget",
      "rate-threshold", "probe-every", "probe-sources", "round-ms",
      "wmin", "wmax",
      // E15 (congest pipeline): simulator worker lanes — see
      // bench_e15_congest.cpp.
      "sim-threads"};
  return keys;
}

}  // namespace

std::string hash_hex(std::uint64_t hash, std::size_t digits) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < digits && i < 16; ++i) {
    out += kHex[(hash >> (60 - 4 * i)) & 0xf];
  }
  return out;
}

std::string GraphSpec::canonical() const {
  auto sorted = params;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const auto& [k, v] : sorted) {
    out += k;
    out += '\x1f';
    out += v;
    out += '\x1e';
  }
  return out;
}

const GraphSpec* Manifest::find_graph(const std::string& graph_name) const {
  for (const GraphSpec& spec : corpus) {
    if (spec.name == graph_name) return &spec;
  }
  return nullptr;
}

Manifest parse_manifest(const std::string& text) {
  Manifest m;
  enum class Section { kTop, kCorpus, kCell };
  Section section = Section::kTop;
  bool seen_name = false;

  std::istringstream in(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = trim(strip_comment(raw));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line == "[[cell]]") {
        section = Section::kCell;
        m.cells.emplace_back();
        continue;
      }
      if (line.rfind("[corpus.", 0) == 0 && line.back() == ']') {
        const std::string name = line.substr(8, line.size() - 9);
        if (!is_bare_key(name)) fail(line_no, "bad corpus name: " + name);
        if (m.find_graph(name) != nullptr) {
          fail(line_no, "duplicate corpus entry: " + name);
        }
        section = Section::kCorpus;
        m.corpus.push_back(GraphSpec{name, {}});
        continue;
      }
      fail(line_no, "unknown section " + line +
                        " (want [corpus.NAME] or [[cell]])");
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      fail(line_no, "expected `key = value`: " + line);
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string raw_value = trim(line.substr(eq + 1));
    if (!is_bare_key(key)) fail(line_no, "bad key: " + key);
    if (raw_value.empty()) fail(line_no, "missing value for key: " + key);
    const std::vector<std::string> values = parse_value(raw_value, line_no);

    switch (section) {
      case Section::kTop: {
        if (values.size() != 1) {
          fail(line_no, "top-level key " + key + " must be a scalar");
        }
        if (key == "name") {
          m.name = values[0];
          seen_name = true;
        } else if (key == "seed") {
          if (!is_number(values[0])) fail(line_no, "seed must be a number");
          m.base_seed = std::stoull(values[0]);
        } else {
          fail(line_no, "unknown top-level key: " + key +
                            " (want name or seed)");
        }
        break;
      }
      case Section::kCorpus: {
        if (values.size() != 1) {
          fail(line_no, "corpus key " + key + " must be a scalar");
        }
        if (corpus_keys().count(key) == 0) {
          fail(line_no, "unknown corpus key: " + key);
        }
        GraphSpec& spec = m.corpus.back();
        for (const auto& [k, _] : spec.params) {
          if (k == key) fail(line_no, "duplicate corpus key: " + key);
        }
        spec.params.emplace_back(key, values[0]);
        break;
      }
      case Section::kCell: {
        CellSpec& cell = m.cells.back();
        if (key == "experiment") {
          if (values.size() != 1) {
            fail(line_no, "experiment must be a single id");
          }
          if (!cell.experiment.empty()) {
            fail(line_no, "duplicate experiment key");
          }
          cell.experiment = values[0];
          break;
        }
        if (cell_keys().count(key) == 0) {
          fail(line_no, "unknown cell key: " + key);
        }
        for (const auto& [k, _] : cell.params) {
          if (k == key) fail(line_no, "duplicate cell key: " + key);
        }
        cell.params.emplace_back(key, values);
        break;
      }
    }
  }

  if (!seen_name || m.name.empty()) {
    throw std::runtime_error("manifest: missing required top-level `name`");
  }
  for (const GraphSpec& spec : m.corpus) {
    bool has_topology = false;
    for (const auto& [k, _] : spec.params) has_topology |= k == "topology";
    if (!has_topology) {
      throw std::runtime_error("manifest: corpus entry " + spec.name +
                               " is missing required key `topology`");
    }
  }
  if (m.cells.empty()) {
    throw std::runtime_error("manifest: no [[cell]] entries");
  }
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    if (m.cells[i].experiment.empty()) {
      throw std::runtime_error("manifest: cell " + std::to_string(i + 1) +
                               " is missing required key `experiment`");
    }
    for (const auto& [key, values] : m.cells[i].params) {
      if (key != "graph") continue;
      for (const std::string& ref : values) {
        if (m.find_graph(ref) == nullptr) {
          throw std::runtime_error("manifest: cell " + std::to_string(i + 1) +
                                   " references unknown graph `" + ref + "`");
        }
      }
    }
  }
  return m;
}

Manifest load_manifest_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open manifest: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_manifest(buf.str());
}

std::string Cell::id() const {
  std::string canonical = experiment;
  canonical += '\x1e';
  for (const auto& [k, v] : params) {
    canonical += k;
    canonical += '\x1f';
    canonical += v;
    canonical += '\x1e';
  }
  return experiment + "-" + hash_hex(fnv1a64(canonical), 12);
}

std::vector<Cell> expand_cells(const Manifest& m) {
  std::vector<Cell> out;
  std::set<std::string> seen;
  for (const CellSpec& spec : m.cells) {
    // Cross product over sweep axes, last axis fastest.
    std::vector<std::vector<std::pair<std::string, std::string>>> combos = {
        {}};
    for (const auto& [key, values] : spec.params) {
      std::vector<std::vector<std::pair<std::string, std::string>>> next;
      next.reserve(combos.size() * values.size());
      for (const auto& combo : combos) {
        for (const std::string& v : values) {
          auto extended = combo;
          extended.emplace_back(key, v);
          next.push_back(std::move(extended));
        }
      }
      combos = std::move(next);
    }
    for (auto& combo : combos) {
      Cell cell;
      cell.experiment = spec.experiment;
      std::sort(combo.begin(), combo.end());
      cell.params = std::move(combo);
      // Identical cells would write the same file with the same seed;
      // running them twice is pure waste, so duplicates collapse.
      if (seen.insert(cell.id()).second) out.push_back(std::move(cell));
    }
  }
  return out;
}

}  // namespace dsketch::exp
