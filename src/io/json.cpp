#include "io/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/contracts.hpp"

namespace mobsrv::io {

namespace {

[[noreturn]] void type_error(const char* want, Json::Type got) {
  static const char* names[] = {"null", "bool", "double", "int", "uint", "string", "array",
                                "object"};
  throw JsonError(std::string("expected ") + want + ", got " +
                      names[static_cast<std::size_t>(got)],
                  0);
}

}  // namespace

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  type_error("bool", type());
}

double Json::as_double() const {
  switch (type()) {
    case Type::kDouble:
      return std::get<double>(value_);
    case Type::kInt:
      return static_cast<double>(std::get<std::int64_t>(value_));
    case Type::kUint:
      return static_cast<double>(std::get<std::uint64_t>(value_));
    default:
      type_error("number", type());
  }
}

std::int64_t Json::as_int64() const {
  switch (type()) {
    case Type::kInt:
      return std::get<std::int64_t>(value_);
    case Type::kUint: {
      const std::uint64_t u = std::get<std::uint64_t>(value_);
      if (u > static_cast<std::uint64_t>(INT64_MAX)) type_error("int64", type());
      return static_cast<std::int64_t>(u);
    }
    case Type::kDouble: {
      const double d = std::get<double>(value_);
      const auto i = static_cast<std::int64_t>(d);
      if (static_cast<double>(i) != d) type_error("integer", type());
      return i;
    }
    default:
      type_error("integer", type());
  }
}

std::uint64_t Json::as_uint64() const {
  switch (type()) {
    case Type::kUint:
      return std::get<std::uint64_t>(value_);
    case Type::kInt: {
      const std::int64_t i = std::get<std::int64_t>(value_);
      if (i < 0) type_error("uint64", type());
      return static_cast<std::uint64_t>(i);
    }
    case Type::kDouble: {
      const double d = std::get<double>(value_);
      if (d < 0.0) type_error("uint64", type());
      const auto u = static_cast<std::uint64_t>(d);
      if (static_cast<double>(u) != d) type_error("unsigned integer", type());
      return u;
    }
    default:
      type_error("unsigned integer", type());
  }
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  type_error("string", type());
}

const Json::Array& Json::as_array() const {
  if (const Array* a = std::get_if<Array>(&value_)) return *a;
  type_error("array", type());
}

const Json::Object& Json::as_object() const {
  if (const Object* o = std::get_if<Object>(&value_)) return *o;
  type_error("object", type());
}

Json::Array& Json::as_array() {
  if (Array* a = std::get_if<Array>(&value_)) return *a;
  type_error("array", type());
}

Json::Object& Json::as_object() {
  if (Object* o = std::get_if<Object>(&value_)) return *o;
  type_error("object", type());
}

Json& Json::set(std::string key, Json value) {
  Object& obj = as_object();
  for (Member& m : obj) {
    if (m.first == key) {
      m.second = std::move(value);
      return *this;
    }
  }
  obj.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  const Object& obj = as_object();
  for (const Member& m : obj)
    if (m.first == key) return &m.second;
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  if (const Json* v = find(key)) return *v;
  throw JsonError("missing key '" + std::string(key) + "'", 0);
}

Json& Json::push_back(Json value) {
  as_array().push_back(std::move(value));
  return *this;
}

const Json::Member* find_unknown_member(const Json& obj,
                                        std::span<const std::string_view> allowed) {
  for (const Json::Member& member : obj.as_object()) {
    bool known = false;
    for (const std::string_view key : allowed) known = known || member.first == key;
    if (!known) return &member;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Serialisation.
// ---------------------------------------------------------------------------

void append_double(std::string& out, double v) {
  MOBSRV_CHECK_MSG(std::isfinite(v), "JSON cannot represent a non-finite number");
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  MOBSRV_CHECK(res.ec == std::errc());
  // Keep the sign of -0.0: to_chars prints "-0", which our parser maps back
  // to the double -0.0 (see parse_number).
  out.append(buf, res.ptr);
}

void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out.push_back('"');
}

void Json::dump_to(std::string& out) const {
  switch (type()) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += std::get<bool>(value_) ? "true" : "false";
      return;
    case Type::kDouble:
      append_double(out, std::get<double>(value_));
      return;
    case Type::kInt: {
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof(buf), std::get<std::int64_t>(value_));
      out.append(buf, res.ptr);
      return;
    }
    case Type::kUint: {
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof(buf), std::get<std::uint64_t>(value_));
      out.append(buf, res.ptr);
      return;
    }
    case Type::kString:
      append_escaped(out, std::get<std::string>(value_));
      return;
    case Type::kArray: {
      out.push_back('[');
      const Array& a = std::get<Array>(value_);
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i) out.push_back(',');
        a[i].dump_to(out);
      }
      out.push_back(']');
      return;
    }
    case Type::kObject: {
      out.push_back('{');
      const Object& o = std::get<Object>(value_);
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (i) out.push_back(',');
        append_escaped(out, o[i].first);
        out.push_back(':');
        o[i].second.dump_to(out);
      }
      out.push_back('}');
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

// ---------------------------------------------------------------------------
// Parsing: recursive descent with a depth guard.
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& message) const { throw JsonError(message, pos_); }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return Json(std::move(obj));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return Json(std::move(arr));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    if (peek() != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out.push_back(e);
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // Surrogate pair: require a following \uDC00..\uDFFF.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
              fail("unpaired UTF-16 surrogate");
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("invalid UTF-16 surrogate pair");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired UTF-16 surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9')
        code += static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        code += static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        code += static_cast<unsigned>(c - 'A' + 10);
      else
        fail("invalid hex digit in \\u escape");
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-')
        ++pos_;
      else
        break;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("invalid number");

    const bool integral = token.find_first_of(".eE") == std::string_view::npos;
    if (integral) {
      if (token[0] == '-') {
        std::int64_t i = 0;
        const auto res = std::from_chars(token.data(), token.data() + token.size(), i);
        if (res.ec == std::errc() && res.ptr == token.data() + token.size()) {
          // "-0" must keep its sign when read back as a double.
          if (i == 0) return Json(-0.0);
          return Json(i);
        }
      } else {
        std::uint64_t u = 0;
        const auto res = std::from_chars(token.data(), token.data() + token.size(), u);
        if (res.ec == std::errc() && res.ptr == token.data() + token.size()) return Json(u);
      }
      // Integer overflow: fall through to double.
    }
    double d = 0.0;
    const auto res = std::from_chars(token.data(), token.data() + token.size(), d);
    if (res.ec != std::errc() || res.ptr != token.data() + token.size())
      fail("invalid number '" + std::string(token) + "'");
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace mobsrv::io
