// Minimal JSON value type for the service protocol.
//
// The rest of the codebase only *emits* JSON (bench reports, CLI --json) and
// does it with hand-built strings; the server is the first component that
// must also *parse* JSON, so this is the smallest recursive-descent parser
// that covers the protocol: null/bool/finite numbers/strings/arrays/objects,
// UTF-8 passed through verbatim, \uXXXX escapes decoded for the BMP.
// Objects preserve insertion order so a dump() round-trip is deterministic —
// the byte-identical response contract (docs/SERVE.md) depends on every
// response being produced by exactly one serialization path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mrsc::serve::json {

class Value;
using Member = std::pair<std::string, Value>;

class Value {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Value() = default;
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double n) : type_(Type::kNumber), number_(n) {}
  /// A number literal spelled as a non-negative integer that fits in 64
  /// bits: `n` is its (possibly rounded) double, `exact` its exact value.
  Value(double n, std::uint64_t exact)
      : type_(Type::kNumber), number_(n), exact_(exact) {}
  explicit Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return number_; }
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const std::vector<Value>& as_array() const { return array_; }
  [[nodiscard]] const std::vector<Member>& as_object() const {
    return members_;
  }

  /// Object lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const;

  // Typed object-field accessors with defaults; used by the request
  // validator. They throw std::invalid_argument when the field exists with
  // the wrong type (a silently coerced request would cache under the wrong
  // canonical key).
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] double get_number(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  /// Non-negative integer field, exact over the whole uint64 range (a
  /// double carries only 53 bits, so seeds must not travel through one).
  /// nullopt when the number is negative, fractional or above 2^64 - 1.
  [[nodiscard]] std::optional<std::uint64_t> get_u64(
      const std::string& key, std::uint64_t fallback) const;

  // Mutating builders (parser + tests).
  void make_array() { type_ = Type::kArray; }
  void make_object() { type_ = Type::kObject; }
  std::vector<Value>& array() {
    type_ = Type::kArray;
    return array_;
  }
  void set(std::string key, Value value) {
    type_ = Type::kObject;
    members_.emplace_back(std::move(key), std::move(value));
  }

  /// Compact deterministic serialization (no whitespace, members in
  /// insertion order, numbers via util-style %.17g with integer shortening).
  [[nodiscard]] std::string dump() const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::optional<std::uint64_t> exact_;  ///< integer literals only
  std::string string_;
  std::vector<Value> array_;
  std::vector<Member> members_;
};

/// Parses one JSON document (must consume the whole input apart from
/// trailing whitespace). Throws std::invalid_argument with a position on
/// malformed input. Depth is capped so hostile input cannot blow the stack.
[[nodiscard]] Value parse(const std::string& text);

/// Formats a double the way every serializer in this repo does (%.17g), but
/// prints integral values that fit in 64 bits without an exponent, so seeds
/// and counters survive a parse → dump round trip textually.
[[nodiscard]] std::string number_to_string(double value);

/// JSON string escaping (quotes included in the result).
[[nodiscard]] std::string quote(const std::string& text);

}  // namespace mrsc::serve::json
