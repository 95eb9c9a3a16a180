/// \file json.hpp
/// Minimal JSON value type, writer and parser.
///
/// Backs every machine-readable surface of the library: the JSONL trace
/// codec, `mobsrv_bench --json` reports and `mobsrv_trace inspect`. Two
/// properties matter more than generality:
///   * doubles round-trip exactly (shortest std::to_chars form on write,
///     std::from_chars on read), so replaying a JSONL trace reproduces
///     costs bit-identically;
///   * 64-bit integers (seeds) are stored as integers, never squeezed
///     through a double.
/// Object member order is preserved so output is stable and diffable.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace mobsrv::io {

/// Thrown on malformed JSON input and on type-mismatched access.
class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& what, std::size_t offset)
      : std::runtime_error(offset ? what + " (at byte " + std::to_string(offset) + ")" : what),
        offset_(offset) {}

  /// Byte offset into the parsed text (0 when not applicable).
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// A JSON document: null, bool, number (double or exact 64-bit integer),
/// string, array, or object.
class Json {
 public:
  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  enum class Type { kNull, kBool, kDouble, kInt, kUint, kString, kArray, kObject };

  Json() noexcept : value_(nullptr) {}
  Json(std::nullptr_t) noexcept : value_(nullptr) {}          // NOLINT(google-explicit-constructor)
  Json(bool b) noexcept : value_(b) {}                        // NOLINT(google-explicit-constructor)
  Json(double v) : value_(v) {}                               // NOLINT(google-explicit-constructor)
  Json(int v) noexcept : value_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(long v) noexcept : value_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(long long v) noexcept : value_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(unsigned v) noexcept : value_(static_cast<std::uint64_t>(v)) {}  // NOLINT
  Json(unsigned long v) noexcept : value_(static_cast<std::uint64_t>(v)) {}  // NOLINT
  Json(unsigned long long v) noexcept : value_(static_cast<std::uint64_t>(v)) {}  // NOLINT
  Json(const char* s) : value_(std::string(s)) {}             // NOLINT(google-explicit-constructor)
  Json(std::string s) noexcept : value_(std::move(s)) {}      // NOLINT(google-explicit-constructor)
  Json(std::string_view s) : value_(std::string(s)) {}        // NOLINT(google-explicit-constructor)
  Json(Array a) noexcept : value_(std::move(a)) {}            // NOLINT(google-explicit-constructor)
  Json(Object o) noexcept : value_(std::move(o)) {}           // NOLINT(google-explicit-constructor)

  [[nodiscard]] static Json array() { return Json(Array{}); }
  [[nodiscard]] static Json object() { return Json(Object{}); }

  [[nodiscard]] Type type() const noexcept { return static_cast<Type>(value_.index()); }
  [[nodiscard]] bool is_null() const noexcept { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type() == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type() == Type::kDouble || type() == Type::kInt || type() == Type::kUint;
  }
  [[nodiscard]] bool is_string() const noexcept { return type() == Type::kString; }
  [[nodiscard]] bool is_array() const noexcept { return type() == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return type() == Type::kObject; }

  /// Typed access; throws JsonError on mismatch. as_double accepts any
  /// number; as_uint64/as_int64 require a value exactly representable in
  /// the target type.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int64() const;
  [[nodiscard]] std::uint64_t as_uint64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] Object& as_object();

  /// Object helpers. set() appends (or replaces an existing key); find()
  /// returns nullptr when absent; at() throws JsonError when absent.
  Json& set(std::string key, Json value);
  [[nodiscard]] const Json* find(std::string_view key) const;
  [[nodiscard]] const Json& at(std::string_view key) const;

  /// Array helper.
  Json& push_back(Json value);

  /// Compact serialisation (no whitespace). Doubles use the shortest
  /// round-trip form; non-finite doubles are a contract violation (JSON
  /// cannot represent them).
  [[nodiscard]] std::string dump() const;
  void dump_to(std::string& out) const;

  /// Parses exactly one JSON document spanning the whole input (trailing
  /// whitespace allowed). Throws JsonError with a byte offset.
  [[nodiscard]] static Json parse(std::string_view text);

  [[nodiscard]] friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  std::variant<std::nullptr_t, bool, double, std::int64_t, std::uint64_t, std::string, Array,
               Object>
      value_;
};

/// The allowlist check behind every strict JSON reader (scenario files,
/// fault plans, serve frames): the first member of object \p obj whose key
/// is not in \p allowed, or nullptr when all are. It never allocates, so a
/// per-frame parser can afford it; each caller words its own error.
[[nodiscard]] const Json::Member* find_unknown_member(const Json& obj,
                                                      std::span<const std::string_view> allowed);
[[nodiscard]] inline const Json::Member* find_unknown_member(
    const Json& obj, std::initializer_list<std::string_view> allowed) {
  return find_unknown_member(obj, std::span(allowed.begin(), allowed.size()));
}

/// \p names joined as "a, b, c": the "(allowed: ...)" tail of allowlist
/// errors.
template <class Names>
[[nodiscard]] std::string join_names(const Names& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

/// \p key wrapped in double quotes, for error messages.
[[nodiscard]] inline std::string quoted(std::string_view key) {
  std::string out = "\"";
  out += key;
  out += '"';
  return out;
}

/// Appends the shortest decimal form of \p v that parses back to exactly
/// the same double ("0.1", "1e+300", "-0.0"). Throws ContractViolation for
/// non-finite values.
void append_double(std::string& out, double v);

/// Appends \p s as a quoted JSON string, escaped exactly as Json::dump
/// escapes it (quote, backslash and control bytes; UTF-8 bytes verbatim).
/// For writers that stream JSON without building a DOM.
void append_escaped(std::string& out, std::string_view s);

}  // namespace mobsrv::io
