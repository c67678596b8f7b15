#pragma once

/// @file json.hpp
/// A small self-contained JSON value type, parser, and serializer.
///
/// ExaDigiT's generalization strategy (paper Section V) is JSON-everything:
/// the system architecture, cooling plant, scheduler, and power system are
/// described by JSON files so new machines need configuration, not code.
/// This module is the substrate for that: `Json` is an immutable-ish variant
/// value with checked accessors, and `Json::parse` reports line/column on
/// malformed input.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/error.hpp"

namespace exadigit {

/// JSON parse failure with 1-based line/column position.
class JsonParseError : public Error {
 public:
  JsonParseError(const std::string& what, int line, int column)
      : Error("json parse error at " + std::to_string(line) + ":" +
              std::to_string(column) + ": " + what),
        line_(line),
        column_(column) {}
  [[nodiscard]] int line() const { return line_; }
  [[nodiscard]] int column() const { return column_; }

 private:
  int line_;
  int column_;
};

/// Wrong-type or missing-key access on a Json value.
class JsonTypeError : public Error {
 public:
  explicit JsonTypeError(const std::string& what) : Error("json type error: " + what) {}
};

/// A JSON value: null, bool, number (double), string, array, or object.
/// Object key order is not preserved (std::map) — deterministic output.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double n) : value_(n) {}
  Json(int n) : value_(static_cast<double>(n)) {}
  Json(std::int64_t n) : value_(static_cast<double>(n)) {}
  Json(std::size_t n) : value_(static_cast<double>(n)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  [[nodiscard]] Type type() const;
  [[nodiscard]] bool is_null() const { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type() == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type() == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type() == Type::kString; }
  [[nodiscard]] bool is_array() const { return type() == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type() == Type::kObject; }

  /// Checked accessors; throw JsonTypeError on mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::int64_t as_int() const;  ///< number, must be integral
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] Object& as_object();

  /// Object member access; throws when not an object / key missing.
  [[nodiscard]] const Json& at(const std::string& key) const;
  /// Array element access with bounds checking.
  [[nodiscard]] const Json& at(std::size_t index) const;
  [[nodiscard]] bool contains(const std::string& key) const;

  /// `at(key)` if present, otherwise `fallback` — convenient for optional
  /// descriptor fields with defaults.
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;
  [[nodiscard]] std::int64_t int_or(const std::string& key, std::int64_t fallback) const;
  /// int_or for an int: a value int cannot hold is a JsonTypeError naming
  /// `key`, never a wrapped int.
  [[nodiscard]] int int32_or(const std::string& key, int fallback) const;
  [[nodiscard]] bool bool_or(const std::string& key, bool fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key, std::string fallback) const;

  /// Mutating object member (creates missing keys); this must be an object
  /// or null (null is promoted to an empty object).
  Json& operator[](const std::string& key);

  /// Appends to an array (null is promoted to an empty array).
  void push_back(Json v);

  [[nodiscard]] bool operator==(const Json& other) const;

  /// Serializes; `indent` > 0 pretty-prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parses a complete JSON document; trailing non-space input is an error.
  static Json parse(const std::string& text);

  /// RFC 7386-style merge patch: objects merge recursively, a null member in
  /// `patch` removes the key, any other value replaces the base wholesale.
  /// This is how scenario descriptors express config *deltas* over a full
  /// system descriptor without repeating it.
  static Json merge_patch(const Json& base, const Json& patch);

  /// Reads and parses a file; throws ConfigError when unreadable.
  static Json load_file(const std::string& path);
  void save_file(const std::string& path, int indent = 2) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;

  void dump_to(std::string& out, int indent, int depth) const;
};

}  // namespace exadigit
