// Small string helpers shared across the libraries, the CLIs and the service.
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mrsc::util {

/// Splits a comma-separated list. "" gives no fields and one trailing empty
/// field is dropped, so "a," is {"a"}; every other field is kept as written,
/// empty or not (",a" is {"", "a"}, "a,,b" is {"a", "", "b"}). No trimming.
[[nodiscard]] std::vector<std::string> split_commas(const std::string& text);

/// The whole of `text` as a finite double: anything std::stod reads in full
/// ("1e-3", "-5"). "nan", "inf", "-inf", overflow ("1e999"), trailing text
/// and "" give nullopt. Range checks belong to each caller.
[[nodiscard]] std::optional<double> parse_finite_double(std::string_view text);

/// The whole of `text` as a decimal u64: digits only, at most
/// 18446744073709551615. No sign, whitespace, exponent or base prefix
/// ("-1", "+1", " 7", "1e3", "0x10" and "" give nullopt).
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text);

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
/// Printed by std::to_chars(general, 17), which the standard defines as
/// printf's "%.17g" (inf, nan and signed zero included) at a fraction of
/// glibc's cost, which grows with the exponent.
[[nodiscard]] std::string format_17g(double value);

}  // namespace mrsc::util
