#include "obs/trace_io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace dsketch::obs {

namespace {

// A just-big-enough JSON value: parsing keeps structure, consumers pull
// out the handful of fields they care about.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("trace JSON parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool consume_word(const char* w) {
    const std::size_t len = std::string(w).size();
    if (s_.compare(pos_, len, w) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.str = string();
      return v;
    }
    if (consume_word("true")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.b = true;
      return v;
    }
    if (consume_word("false")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (consume_word("null")) return JsonValue{};
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (consume('}')) return v;
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.obj.emplace_back(std::move(key), value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (consume(']')) return v;
    for (;;) {
      v.arr.push_back(value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("unterminated escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            // Our writer never emits \u escapes; accept and keep ASCII.
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            pos_ += 4;
            out += '?';
            break;
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    try {
      v.num = std::stod(s_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number");
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<ParsedEvent> parse_chrome_trace(const std::string& text) {
  Parser parser(text);
  const JsonValue root = parser.parse();
  if (root.kind != JsonValue::Kind::kObject) {
    throw std::runtime_error("trace root is not an object");
  }
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    throw std::runtime_error("missing traceEvents array");
  }
  std::vector<ParsedEvent> out;
  out.reserve(events->arr.size());
  for (const JsonValue& e : events->arr) {
    if (e.kind != JsonValue::Kind::kObject) {
      throw std::runtime_error("trace event is not an object");
    }
    ParsedEvent ev;
    if (const JsonValue* v = e.find("name")) ev.name = v->str;
    if (const JsonValue* v = e.find("ph");
        v != nullptr && !v->str.empty()) {
      ev.ph = v->str[0];
    }
    if (const JsonValue* v = e.find("tid")) {
      ev.tid = static_cast<std::uint32_t>(v->num);
    }
    if (const JsonValue* v = e.find("ts")) ev.ts_us = v->num;
    if (const JsonValue* v = e.find("dur")) {
      ev.dur_us = v->num;
      ev.has_dur = true;
    }
    if (const JsonValue* args = e.find("args")) {
      if (const JsonValue* v = args->find("v")) {
        ev.arg_value = v->num;
        ev.has_arg_value = true;
      }
    }
    out.push_back(std::move(ev));
  }
  return out;
}

std::vector<ParsedEvent> parse_chrome_trace(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_chrome_trace(buf.str());
}

std::string check_span_nesting(const std::vector<ParsedEvent>& events) {
  std::map<std::uint32_t, std::vector<const ParsedEvent*>> by_tid;
  for (const ParsedEvent& e : events) {
    if (e.ph == 'X') by_tid[e.tid].push_back(&e);
  }
  char buf[256];
  for (auto& [tid, spans] : by_tid) {
    // Sort by start time; at a start-time tie the longer span is the
    // parent and must come first.
    std::sort(spans.begin(), spans.end(),
              [](const ParsedEvent* a, const ParsedEvent* b) {
                if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                return a->dur_us > b->dur_us;
              });
    std::vector<double> open_ends;  // stack of enclosing span end times
    // Timestamps were rounded to 1ns when serialized; allow that much
    // slack before calling two spans overlapping.
    constexpr double kSlackUs = 0.0015;
    for (const ParsedEvent* s : spans) {
      const double start = s->ts_us;
      const double end = s->ts_us + s->dur_us;
      while (!open_ends.empty() && open_ends.back() <= start + kSlackUs) {
        open_ends.pop_back();
      }
      if (!open_ends.empty() && end > open_ends.back() + kSlackUs) {
        std::snprintf(buf, sizeof(buf),
                      "tid %u: span \"%s\" [%.3f, %.3f) crosses enclosing "
                      "span ending at %.3f",
                      tid, s->name.c_str(), start, end, open_ends.back());
        return buf;
      }
      open_ends.push_back(end);
    }
  }
  return "";
}

}  // namespace dsketch::obs
