// Small string helpers shared across the libraries, the CLIs and the service.
#pragma once

#include <cctype>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace mrsc::util {

/// Splits a comma-separated list. "" gives no fields and one trailing empty
/// field is dropped, so "a," is {"a"}; every other field is kept as written,
/// empty or not (",a" is {"", "a"}, "a,,b" is {"a", "", "b"}). No trimming.
[[nodiscard]] std::vector<std::string> split_commas(const std::string& text);

/// `s` without leading and trailing whitespace (std::isspace). Inline: the
/// reaction-string parser calls it per term while designs are built.
[[nodiscard]] inline std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// printf-style formatting into a string (output capped at 511 bytes).
template <typename... Args>
[[nodiscard]] std::string format(const char* fmt, Args... args) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer), fmt, args...);
  return buffer;
}

/// `value` as "%.17g": enough digits that parsing it back gives the same
/// double. The number format of the JSON reports and the golden traces.
[[nodiscard]] std::string format_17g(double value);

}  // namespace mrsc::util
