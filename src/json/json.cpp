#include "json/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/parse.hpp"

namespace exadigit {

Json::Type Json::type() const {
  switch (value_.index()) {
    case 0: return Type::kNull;
    case 1: return Type::kBool;
    case 2: return Type::kNumber;
    case 3: return Type::kString;
    case 4: return Type::kArray;
    default: return Type::kObject;
  }
}

namespace {
const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "bool";
    case Json::Type::kNumber: return "number";
    case Json::Type::kString: return "string";
    case Json::Type::kArray: return "array";
    case Json::Type::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void type_mismatch(Json::Type want, Json::Type got) {
  throw JsonTypeError(std::string("expected ") + type_name(want) + ", got " + type_name(got));
}
}  // namespace

bool Json::as_bool() const {
  if (!is_bool()) type_mismatch(Type::kBool, type());
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (!is_number()) type_mismatch(Type::kNumber, type());
  return std::get<double>(value_);
}

std::int64_t Json::as_int() const {
  const double n = as_number();
  const double r = std::nearbyint(n);
  if (r != n) throw JsonTypeError("number is not integral: " + std::to_string(n));
  // [-2^63, 2^63) is exactly the range a double converts to int64 within;
  // converting anything outside it is undefined behaviour.
  if (r < -0x1p63 || r >= 0x1p63) {
    throw JsonTypeError("number out of int64 range: " + std::to_string(n));
  }
  return static_cast<std::int64_t>(r);
}

const std::string& Json::as_string() const {
  if (!is_string()) type_mismatch(Type::kString, type());
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  if (!is_array()) type_mismatch(Type::kArray, type());
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  if (!is_object()) type_mismatch(Type::kObject, type());
  return std::get<Object>(value_);
}

Json::Array& Json::as_array() {
  if (!is_array()) type_mismatch(Type::kArray, type());
  return std::get<Array>(value_);
}

Json::Object& Json::as_object() {
  if (!is_object()) type_mismatch(Type::kObject, type());
  return std::get<Object>(value_);
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw JsonTypeError("missing object key: " + key);
  return it->second;
}

const Json& Json::at(std::size_t index) const {
  const auto& arr = as_array();
  if (index >= arr.size()) {
    throw JsonTypeError("array index out of range: " + std::to_string(index));
  }
  return arr[index];
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

double Json::number_or(const std::string& key, double fallback) const {
  return contains(key) ? at(key).as_number() : fallback;
}

std::int64_t Json::int_or(const std::string& key, std::int64_t fallback) const {
  return contains(key) ? at(key).as_int() : fallback;
}

int Json::int32_or(const std::string& key, int fallback) const {
  const std::int64_t n = int_or(key, fallback);
  if (!std::in_range<int>(n)) {
    throw JsonTypeError(key + " = " + std::to_string(n) + " is outside the int range");
  }
  return static_cast<int>(n);
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}

std::string Json::string_or(const std::string& key, std::string fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = Object{};
  return as_object()[key];
}

void Json::push_back(Json v) {
  if (is_null()) value_ = Array{};
  as_array().push_back(std::move(v));
}

bool Json::operator==(const Json& other) const { return value_ == other.value_; }

// ---------------------------------------------------------------- dumping

namespace {

void dump_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(std::string& out, double n) {
  if (std::isnan(n) || std::isinf(n)) {
    // JSON has no NaN/Inf; serialize as null like most tolerant emitters.
    out += "null";
    return;
  }
  const double r = std::nearbyint(n);
  if (r == n && std::abs(n) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(r));
    out += buf;
    return;
  }
  // Shortest round-trip form (std::to_chars): every double has exactly one
  // serialization, so equal values always dump to equal bytes. Together with
  // std::map key ordering this makes dump() canonical — the foundation the
  // scenario cache keys hash (scenario/scenario_key.hpp).
  out += format_double(n);
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (type()) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += as_bool() ? "true" : "false"; break;
    case Type::kNumber: dump_number(out, as_number()); break;
    case Type::kString: dump_string(out, as_string()); break;
    case Type::kArray: {
      const auto& arr = as_array();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        arr[i].dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      const auto& obj = as_object();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : obj) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        dump_string(out, key);
        out += indent > 0 ? ": " : ":";
        value.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------- parsing

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonParseError(what, line_, col_);
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }

  [[nodiscard]] char peek() const {
    if (eof()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_ws() {
    while (!eof()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') advance();
      else break;
    }
  }

  void expect(char c) {
    if (eof() || peek() != c) fail(std::string("expected '") + c + "'");
    advance();
  }

  bool consume_keyword(const char* kw) {
    std::size_t i = 0;
    while (kw[i] != '\0') {
      if (pos_ + i >= text_.size() || text_[pos_ + i] != kw[i]) return false;
      ++i;
    }
    for (std::size_t k = 0; k < i; ++k) advance();
    return true;
  }

  Json parse_value() {
    skip_ws();
    if (eof()) fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_keyword("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_keyword("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_keyword("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object obj;
    skip_ws();
    if (!eof() && peek() == '}') {
      advance();
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      if (eof()) fail("unterminated object");
      const char d = advance();
      if (d == '}') break;
      if (d != ',') fail("expected ',' or '}' in object");
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    Json::Array arr;
    skip_ws();
    if (!eof() && peek() == ']') {
      advance();
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (eof()) fail("unterminated array");
      const char d = advance();
      if (d == ']') break;
      if (d != ',') fail("expected ',' or ']' in array");
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      const char c = advance();
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) fail("unterminated escape");
      const char e = advance();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (eof()) fail("unterminated \\u escape");
            const char h = advance();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid hex digit in \\u escape");
          }
          // Encode BMP code point as UTF-8 (surrogate pairs unsupported;
          // descriptor files are ASCII in practice).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("invalid escape character");
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') advance();
    auto digits = [&] {
      bool any = false;
      while (!eof() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        advance();
        any = true;
      }
      return any;
    };
    if (!digits()) fail("invalid number");
    if (!eof() && peek() == '.') {
      advance();
      if (!digits()) fail("digits required after decimal point");
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      advance();
      if (!eof() && (peek() == '+' || peek() == '-')) advance();
      if (!digits()) fail("digits required in exponent");
    }
    // Locale-independent conversion: std::stod honours LC_NUMERIC and
    // mis-parses "1.5" under a comma-decimal locale.
    const std::string_view token = std::string_view(text_).substr(start, pos_ - start);
    double value = 0.0;
    if (!try_parse_double(token, &value)) {
      fail("number out of range: " + std::string(token));
    }
    return Json(value);
  }
};

}  // namespace

Json Json::parse(const std::string& text) {
  Parser parser(text);
  return parser.parse_document();
}

Json Json::merge_patch(const Json& base, const Json& patch) {
  if (!patch.is_object()) return patch;
  Object merged = base.is_object() ? base.as_object() : Object{};
  for (const auto& [key, value] : patch.as_object()) {
    if (value.is_null()) {
      merged.erase(key);
    } else {
      const auto it = merged.find(key);
      merged[key] = it == merged.end() ? Json::merge_patch(Json(), value)
                                       : Json::merge_patch(it->second, value);
    }
  }
  return Json(std::move(merged));
}

Json Json::load_file(const std::string& path) {
  std::ifstream f(path);
  require(f.good(), "cannot open json file: " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse(buf.str());
}

void Json::save_file(const std::string& path, int indent) const {
  std::ofstream f(path);
  require(f.good(), "cannot open json file for writing: " + path);
  f << dump(indent) << '\n';
}

}  // namespace exadigit
