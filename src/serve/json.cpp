#include "serve/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace mrsc::serve::json {

namespace {

constexpr std::size_t kMaxDepth = 64;

struct Parser {
  const std::string& text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at byte " +
                                std::to_string(pos));
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }

  bool consume_literal(const char* literal) {
    std::size_t n = 0;
    while (literal[n] != '\0') ++n;
    if (text.compare(pos, n, literal) != 0) return false;
    pos += n;
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= text.size()) fail("unterminated string");
      char c = text[pos++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos >= text.size()) fail("unterminated escape");
        char e = text[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("bad \\u escape digit");
              }
            }
            // BMP-only UTF-8 encoding; surrogate pairs are rejected (the
            // protocol never needs astral-plane request fields).
            if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate escape");
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
          default:
            fail("unknown escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      } else {
        out += c;
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos;
    if (peek() == '-') ++pos;
    while (pos < text.size() &&
           ((text[pos] >= '0' && text[pos] <= '9') || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E' || text[pos] == '+' ||
            text[pos] == '-')) {
      ++pos;
    }
    const std::string token = text.substr(start, pos - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0' || !std::isfinite(value)) {
      pos = start;
      fail("bad number '" + token + "'");
    }
    // Keep plain non-negative integer literals exact as well: from_chars
    // accepts digits only and fails on anything above 2^64 - 1.
    std::uint64_t exact = 0;
    const char* first = token.data();
    const char* last = first + token.size();
    const auto [ptr, ec] = std::from_chars(first, last, exact);
    if (ec == std::errc() && ptr == last) return Value(value, exact);
    return Value(value);
  }

  Value parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    if (c == '{') {
      ++pos;
      Value object;
      object.make_object();
      skip_ws();
      if (peek() == '}') {
        ++pos;
        return object;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        object.set(std::move(key), parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect('}');
        return object;
      }
    }
    if (c == '[') {
      ++pos;
      Value array;
      array.make_array();
      skip_ws();
      if (peek() == ']') {
        ++pos;
        return array;
      }
      while (true) {
        array.array().push_back(parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect(']');
        return array;
      }
    }
    if (c == '"') return Value(parse_string());
    if (consume_literal("null")) return Value();
    if (consume_literal("true")) return Value(true);
    if (consume_literal("false")) return Value(false);
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }
};

}  // namespace

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const Member& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

std::string Value::get_string(const std::string& key,
                              const std::string& fallback) const {
  const Value* v = find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (v->type() != Type::kString) {
    throw std::invalid_argument("field '" + key + "' must be a string");
  }
  return v->as_string();
}

double Value::get_number(const std::string& key, double fallback) const {
  const Value* v = find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (v->type() != Type::kNumber) {
    throw std::invalid_argument("field '" + key + "' must be a number");
  }
  return v->as_number();
}

std::optional<std::uint64_t> Value::get_u64(const std::string& key,
                                           std::uint64_t fallback) const {
  const Value* v = find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (v->type() != Type::kNumber) {
    throw std::invalid_argument("field '" + key + "' must be a number");
  }
  if (v->exact_) return v->exact_;
  // Other spellings ("1e3", "5.0") still count when the value is integral;
  // 2^64 itself is the first double out of range.
  const double raw = v->number_;
  if (raw < 0.0 || raw != std::floor(raw) || raw >= 0x1p64) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(raw);
}

bool Value::get_bool(const std::string& key, bool fallback) const {
  const Value* v = find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (v->type() != Type::kBool) {
    throw std::invalid_argument("field '" + key + "' must be a boolean");
  }
  return v->as_bool();
}

std::string number_to_string(double value) {
  // Integral values that fit in int64 print as plain integers so counters
  // and seeds keep their exact spelling through parse/dump cycles.
  if (value == std::floor(value) && std::abs(value) < 9.2e18) {
    return std::to_string(static_cast<long long>(value));
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string Value::dump() const {
  switch (type_) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return bool_ ? "true" : "false";
    case Type::kNumber:
      return number_to_string(number_);
    case Type::kString:
      return quote(string_);
    case Type::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out += ',';
        out += array_[i].dump();
      }
      out += ']';
      return out;
    }
    case Type::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out += ',';
        out += quote(members_[i].first);
        out += ':';
        out += members_[i].second.dump();
      }
      out += '}';
      return out;
    }
  }
  return "null";
}

Value parse(const std::string& text) {
  Parser parser{text};
  Value value = parser.parse_value(0);
  parser.skip_ws();
  if (parser.pos != text.size()) parser.fail("trailing garbage");
  return value;
}

}  // namespace mrsc::serve::json
