#include "util/strings.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace mrsc::util {

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      if (start < text.size()) out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

std::optional<double> parse_finite_double(std::string_view text) {
  const std::string owned(text);
  try {
    std::size_t used = 0;
    const double value = std::stod(owned, &used);
    if (used == owned.size() && std::isfinite(value)) return value;
  } catch (const std::exception&) {
    // invalid_argument or out_of_range: not a finite double
  }
  return std::nullopt;
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value, 10);
  if (text.empty() || error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

std::string format_17g(double value) {
  // The longest output, "-2.2250738585072014e-308", is 24 bytes.
  char buffer[32];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof buffer, value,
                    std::chars_format::general, 17);
  return std::string(buffer, result.ptr);
}

}  // namespace mrsc::util
