// Minimal JSON value type, parser and string writer.
//
// The one JSON implementation in the codebase. Result writers build a Value
// and dump it once; string-built reports escape with quote(); the service
// protocol and the fleet also parse with parse(). It is
// the smallest recursive-descent parser that covers the protocol:
// null/bool/finite numbers/strings/arrays/objects, UTF-8 passed through
// verbatim, \uXXXX escapes decoded for the BMP.
// Objects preserve insertion order so a dump() round-trip is deterministic —
// the byte-identical response contract (docs/SERVE.md) depends on every
// response being produced by exactly one serialization path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mrsc::util::json {

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
  /// An exact non-negative integer (seeds, counters, and number literals
  /// spelled as one): as_number() is its nearest double, while get_u64()
  /// and dump() keep all 64 bits, which a double rounds above 2^53.
  explicit Value(std::uint64_t n)
      : type_(Type::kNumber), number_(static_cast<double>(n)), exact_(n) {}
  explicit Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  explicit Value(const char* s) : Value(std::string(s)) {}

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

  // Mutating builders (the parser and every report writer).
  void make_array() { type_ = Type::kArray; }
  void make_object() { type_ = Type::kObject; }
  std::vector<Value>& array() {
    type_ = Type::kArray;
    return array_;
  }
  /// Appends the members of the object `other`, in its order.
  void append_members(Value other) {
    type_ = Type::kObject;
    for (Member& member : other.members_) members_.push_back(std::move(member));
  }
  void set(std::string key, Value value) {
    type_ = Type::kObject;
    members_.emplace_back(std::move(key), std::move(value));
  }

  /// Compact deterministic serialization (no whitespace, members in
  /// insertion order, numbers via number_to_string or exactly).
  [[nodiscard]] std::string dump() const;

 private:
  void dump_to(std::string& out) const;

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

/// Formats a double the way every serializer in this repo does (%.17g,
/// printed by std::to_chars through util::format_17g), but prints integral
/// values that fit in 64 bits without an exponent, so seeds and counters
/// survive a parse → dump round trip textually.
[[nodiscard]] std::string number_to_string(double value);

/// A JSON array of `items`.
[[nodiscard]] Value string_array(const std::vector<std::string>& items);

/// JSON string literal for `text`, quotes included: `"` and `\` are
/// backslash-escaped, \n \r \t use their short forms and every other byte
/// below 0x20 becomes \u00XX. Bytes from 0x20 up pass through.
[[nodiscard]] std::string quote(const std::string& text);

}  // namespace mrsc::util::json
