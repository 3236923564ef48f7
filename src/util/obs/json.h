#pragma once

// Correct-by-construction JSON emission and strict validation.
//
// Every machine-readable report in the repo (SolveStats telemetry, explorer
// runs, fault campaigns, bench --json gates, Chrome traces) goes through
// JsonWriter instead of hand-rolled ostringstream concatenation, which fixes
// two real bug classes at the root:
//   - non-finite doubles: `operator<<` prints bare `inf` / `nan`, which is
//     not JSON. The writer emits `null` instead, and number_field() adds a
//     sidecar `"<key>_finite": false` so consumers can tell "missing" from
//     "was infinite".
//   - locale fragility: iostream/printf numeric formatting follows the
//     process locale (a comma decimal point under de_DE breaks every parser
//     downstream). The writer formats through std::to_chars, which is
//     locale-independent by specification and round-trips exactly.
//
// Output style is compact-with-spaces — `{"a": 1, "b": [1, 2]}` — matching
// the repo's existing emitters and the sscanf-based baseline loaders.
//
// json_error() is the matching strict RFC 8259 validator used by tests and
// fuzz harnesses; it accepts exactly what python -m json.tool accepts.

#include <charconv>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace wnet::util::obs {

/// Streaming JSON writer with structural checking: mismatched begin/end,
/// values without keys inside objects, or multiple top-level values throw
/// std::logic_error (programmer error, never data-dependent).
class JsonWriter {
 public:
  JsonWriter() = default;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Starts a member inside the current object; the next value() call (or
  /// begin_object/begin_array) supplies its value.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b);
  /// Non-finite doubles become null (see number_field for the sidecar).
  JsonWriter& value(double v);
  template <class T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonWriter& value(T v) {
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    scalar(std::string_view(buf, static_cast<size_t>(r.ptr - buf)));
    return *this;
  }
  JsonWriter& null_value();

  /// Embeds a pre-serialized JSON value verbatim (e.g. a nested report that
  /// was itself produced by a JsonWriter).
  JsonWriter& raw(std::string_view json);

  /// key + value in one call, for any value() overload.
  template <class T>
  JsonWriter& field(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  /// Numeric member that survives non-finite inputs: finite doubles emit
  /// normally; inf/nan emit `"k": null, "k_finite": false` so strict parsers
  /// stay happy and consumers can still detect the condition.
  JsonWriter& number_field(std::string_view k, double v);

  /// Finishes the document and returns it. Throws if any scope is open or
  /// nothing was written.
  [[nodiscard]] std::string take();

  /// Locale-independent shortest-round-trip formatting ("null" when
  /// non-finite). Exposed for callers that format numbers outside a
  /// document (e.g. table cells that must stay byte-stable under locales).
  [[nodiscard]] static std::string format_double(double v);

  /// JSON string escaping (quotes, backslash, control characters; UTF-8
  /// bytes pass through). Returns the body without surrounding quotes.
  [[nodiscard]] static std::string escape(std::string_view s);

 private:
  struct Frame {
    bool is_object = false;
    bool has_items = false;
    bool key_pending = false;
  };

  void pre_value();              ///< comma/key bookkeeping before any value
  void scalar(std::string_view literal);

  std::string out_;
  std::vector<Frame> stack_;
  bool done_ = false;  ///< a complete top-level value has been written
};

/// Strict RFC 8259 validation: returns std::nullopt when `text` is exactly
/// one valid JSON value (plus surrounding whitespace), or a human-readable
/// error with byte offset otherwise. Rejects everything Python's json.tool
/// rejects: bare inf/nan, trailing commas, single quotes, leading zeros,
/// unescaped control characters, trailing garbage. Runs json_parse()'s
/// parser without building a tree, so the two report the same errors.
[[nodiscard]] std::optional<std::string> json_error(std::string_view text);

[[nodiscard]] inline bool json_valid(std::string_view text) {
  return !json_error(text).has_value();
}

/// A parsed JSON value tree — the read side of the obs layer, added for the
/// solve daemon's line-delimited request protocol. json_parse() accepts
/// exactly the grammar json_error() accepts (strict RFC 8259: no bare
/// inf/nan, no trailing garbage, full escape decoding including surrogate
/// pairs), so anything the daemon admits could have been produced by the
/// JsonWriter and vice versa.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return num_; }
  [[nodiscard]] const std::string& as_string() const { return str_; }
  [[nodiscard]] const std::vector<JsonValue>& items() const { return items_; }
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// First member named `key`, or nullptr (objects only).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  // Typed member lookups with defaults: the convenience layer request
  // parsing is written against. Missing member -> `fallback`; a member of
  // the wrong kind -> nullopt from the optional-returning forms.
  [[nodiscard]] std::optional<std::string> get_string(std::string_view key) const;
  [[nodiscard]] std::optional<double> get_number(std::string_view key) const;
  [[nodiscard]] std::string get_string(std::string_view key, const std::string& fallback) const;
  [[nodiscard]] double get_number(std::string_view key, double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Strict parse of exactly one JSON value (same grammar as json_error).
/// Returns nullopt and fills `error` (if non-null) with a human-readable
/// message + byte offset on any violation.
[[nodiscard]] std::optional<JsonValue> json_parse(std::string_view text,
                                                  std::string* error = nullptr);

}  // namespace wnet::util::obs
