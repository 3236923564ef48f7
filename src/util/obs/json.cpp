#include "util/obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace wnet::util::obs {

// --------------------------------------------------------------- JsonWriter

JsonWriter& JsonWriter::begin_object() {
  pre_value();
  out_ += '{';
  stack_.push_back({/*is_object=*/true, false, false});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || !stack_.back().is_object || stack_.back().key_pending) {
    throw std::logic_error("JsonWriter: end_object outside an object or after a dangling key");
  }
  stack_.pop_back();
  out_ += '}';
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  pre_value();
  out_ += '[';
  stack_.push_back({/*is_object=*/false, false, false});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back().is_object) {
    throw std::logic_error("JsonWriter: end_array outside an array");
  }
  stack_.pop_back();
  out_ += ']';
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (stack_.empty() || !stack_.back().is_object || stack_.back().key_pending) {
    throw std::logic_error("JsonWriter: key() outside an object or twice in a row");
  }
  if (stack_.back().has_items) out_ += ", ";
  stack_.back().has_items = true;
  stack_.back().key_pending = true;
  out_ += '"';
  out_ += escape(k);
  out_ += "\": ";
  return *this;
}

void JsonWriter::pre_value() {
  if (stack_.empty()) {
    if (done_) throw std::logic_error("JsonWriter: second top-level value");
    return;
  }
  Frame& top = stack_.back();
  if (top.is_object) {
    if (!top.key_pending) throw std::logic_error("JsonWriter: value in object without key()");
    top.key_pending = false;
    return;
  }
  if (top.has_items) out_ += ", ";
  top.has_items = true;
}

void JsonWriter::scalar(std::string_view literal) {
  pre_value();
  out_ += literal;
  if (stack_.empty()) done_ = true;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  pre_value();
  out_ += '"';
  out_ += escape(s);
  out_ += '"';
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  scalar(b ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  scalar(format_double(v));
  return *this;
}

JsonWriter& JsonWriter::null_value() {
  scalar("null");
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  scalar(json);
  return *this;
}

JsonWriter& JsonWriter::number_field(std::string_view k, double v) {
  key(k);
  value(v);
  if (!std::isfinite(v)) {
    key(std::string(k) + "_finite");
    value(false);
  }
  return *this;
}

std::string JsonWriter::take() {
  if (!stack_.empty()) throw std::logic_error("JsonWriter: take() with open scopes");
  if (!done_) throw std::logic_error("JsonWriter: take() before any value");
  return std::move(out_);
}

std::string JsonWriter::format_double(double v) {
  if (!std::isfinite(v)) return "null";
  // std::to_chars is locale-independent and prints the shortest string that
  // round-trips; "-0" is normalized so byte-stability doesn't depend on the
  // sign of a zero that compares equal.
  if (v == 0.0) return "0";
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, static_cast<size_t>(r.ptr - buf));
}

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  static const char* hex = "0123456789abcdef";
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          out += "\\u00";
          out += hex[u >> 4];
          out += hex[u & 0xF];
        } else {
          out += c;  // UTF-8 bytes pass through unmodified
        }
    }
  }
  return out;
}

// ------------------------------------------------------- JsonValue / parse

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<std::string> JsonValue::get_string(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr || !v->is_string()) return std::nullopt;
  return v->as_string();
}

std::optional<double> JsonValue::get_number(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->as_number();
}

std::string JsonValue::get_string(std::string_view key, const std::string& fallback) const {
  return get_string(key).value_or(fallback);
}

double JsonValue::get_number(std::string_view key, double fallback) const {
  return get_number(key).value_or(fallback);
}

bool JsonValue::get_bool(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_bool() ? v->as_bool() : fallback;
}

/// Strict RFC 8259 recursive-descent parser. With a null output it only
/// validates (json_error); otherwise it builds the JsonValue tree
/// (json_parse). One grammar, so json_parse succeeds iff json_error returns
/// nullopt, and both report the same "<what> at byte N" errors.
class JsonParser {
 public:
  explicit JsonParser(std::string_view s) : s_(s) {}

  /// Parses exactly one top-level value into `out` (validate only if null);
  /// returns the error, or nullopt on success.
  std::optional<std::string> run(JsonValue* out) {
    skip_ws();
    if (!parse_value(0, out)) return err_;
    skip_ws();
    if (pos_ != s_.size()) {
      set_err("trailing garbage after top-level value");
      return err_;
    }
    return std::nullopt;
  }

 private:
  static constexpr int kMaxDepth = 256;

  bool set_err(const std::string& what) {
    err_ = what + " at byte " + std::to_string(pos_);
    return false;
  }

  [[nodiscard]] bool eof() const { return pos_ >= s_.size(); }
  [[nodiscard]] char peek() const { return s_[pos_]; }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' || peek() == '\r')) ++pos_;
  }

  bool parse_value(int depth, JsonValue* out) {
    if (depth > kMaxDepth) return set_err("nesting too deep");
    if (eof()) return set_err("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth, out);
      case '[': return parse_array(depth, out);
      case '"':
        if (out != nullptr) out->kind_ = JsonValue::Kind::kString;
        return parse_string(out != nullptr ? &out->str_ : nullptr);
      case 't': return parse_literal("true", JsonValue::Kind::kBool, true, out);
      case 'f': return parse_literal("false", JsonValue::Kind::kBool, false, out);
      case 'n': return parse_literal("null", JsonValue::Kind::kNull, false, out);
      default: return parse_number(out);
    }
  }

  bool parse_literal(std::string_view lit, JsonValue::Kind kind, bool value, JsonValue* out) {
    if (s_.substr(pos_, lit.size()) != lit) return set_err("invalid literal");
    pos_ += lit.size();
    if (out != nullptr) {
      out->kind_ = kind;
      out->bool_ = value;
    }
    return true;
  }

  bool parse_object(int depth, JsonValue* out) {
    if (out != nullptr) out->kind_ = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') return set_err("expected object key string");
      std::string key;
      if (!parse_string(out != nullptr ? &key : nullptr)) return false;
      skip_ws();
      if (eof() || peek() != ':') return set_err("expected ':' after key");
      ++pos_;
      skip_ws();
      JsonValue member;
      if (!parse_value(depth + 1, out != nullptr ? &member : nullptr)) return false;
      if (out != nullptr) out->members_.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (eof()) return set_err("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return set_err("expected ',' or '}' in object");
    }
  }

  bool parse_array(int depth, JsonValue* out) {
    if (out != nullptr) out->kind_ = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue item;
      if (!parse_value(depth + 1, out != nullptr ? &item : nullptr)) return false;
      if (out != nullptr) out->items_.push_back(std::move(item));
      skip_ws();
      if (eof()) return set_err("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return set_err("expected ',' or ']' in array");
    }
  }

  static void append_utf8(std::string* out, uint32_t cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_hex4(uint32_t* out) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i, ++pos_) {
      if (eof() || !std::isxdigit(static_cast<unsigned char>(peek()))) {
        return set_err("invalid \\u escape");
      }
      const char c = peek();
      v = v * 16 + static_cast<uint32_t>(c <= '9'   ? c - '0'
                                         : c <= 'F' ? c - 'A' + 10
                                                    : c - 'a' + 10);
    }
    *out = v;
    return true;
  }

  /// Decodes into `out` when non-null.
  bool parse_string(std::string* out) {
    ++pos_;  // '"'
    if (out != nullptr) out->clear();
    while (!eof()) {
      const auto u = static_cast<unsigned char>(peek());
      if (u < 0x20) return set_err("unescaped control character in string");
      if (peek() == '"') {
        ++pos_;
        return true;
      }
      if (peek() != '\\') {
        if (out != nullptr) out->push_back(peek());
        ++pos_;
        continue;
      }
      ++pos_;
      if (eof()) return set_err("truncated escape");
      const char e = peek();
      if (e != 'u') {
        static constexpr std::string_view kEscapes = "\"\\/bfnrt";
        static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
        const size_t k = kEscapes.find(e);
        if (k == std::string_view::npos) return set_err("invalid escape character");
        if (out != nullptr) out->push_back(kDecoded[k]);
        ++pos_;
        continue;
      }
      ++pos_;
      uint32_t cp = 0;
      if (!parse_hex4(&cp)) return false;
      if (cp >= 0xD800 && cp <= 0xDBFF) {
        // High surrogate: must be followed by \uDC00..\uDFFF.
        if (eof() || peek() != '\\' || pos_ + 1 >= s_.size() || s_[pos_ + 1] != 'u') {
          return set_err("lone high surrogate");
        }
        pos_ += 2;
        uint32_t lo = 0;
        if (!parse_hex4(&lo)) return false;
        if (lo < 0xDC00 || lo > 0xDFFF) return set_err("invalid low surrogate");
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
        return set_err("lone low surrogate");
      }
      if (out != nullptr) append_utf8(out, cp);
    }
    return set_err("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    const size_t start = pos_;
    const auto digit = [this] { return !eof() && peek() >= '0' && peek() <= '9'; };
    if (!eof() && peek() == '-') ++pos_;
    if (!digit()) return set_err("invalid number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (digit()) ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (!digit()) return set_err("digits required after decimal point");
      while (digit()) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (!digit()) return set_err("digits required in exponent");
      while (digit()) ++pos_;
    }
    if (out == nullptr) return true;
    out->kind_ = JsonValue::Kind::kNumber;
    double v = 0.0;
    const char* first = s_.data() + start;
    const char* last = s_.data() + pos_;
    const auto r = std::from_chars(first, last, v);
    if (r.ec != std::errc{} && r.ec != std::errc::result_out_of_range) {
      return set_err("number out of range");
    }
    out->num_ = v;
    return true;
  }

  std::string_view s_;
  size_t pos_ = 0;
  std::string err_;
};

std::optional<std::string> json_error(std::string_view text) {
  return JsonParser(text).run(nullptr);
}

std::optional<JsonValue> json_parse(std::string_view text, std::string* error) {
  JsonValue out;
  std::optional<std::string> err = JsonParser(text).run(&out);
  if (!err) return out;
  if (error != nullptr) *error = std::move(*err);
  return std::nullopt;
}

}  // namespace wnet::util::obs
