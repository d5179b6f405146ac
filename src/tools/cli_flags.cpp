#include "tools/cli_flags.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>

#include "util/strings.hpp"

namespace mrsc::tools {

const char* need_value(const char* tool, int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s: %s needs a value\n", tool, argv[i]);
    return nullptr;
  }
  return argv[++i];
}

bool parse_double(const char* tool, const char* flag, const char* text,
                  double& out) {
  const std::optional<double> value = util::parse_finite_double(text);
  if (!value) {
    std::fprintf(stderr, "%s: %s: '%s' is not a number\n", tool, flag, text);
    return false;
  }
  out = *value;
  return true;
}

bool parse_u64(const char* tool, const char* flag, const char* text,
               std::uint64_t& out) {
  const std::optional<std::uint64_t> value = util::parse_u64(text);
  if (!value) {
    std::fprintf(stderr, "%s: %s: '%s' is not a whole number\n", tool, flag,
                 text);
    return false;
  }
  out = *value;
  return true;
}

bool parse_mebibytes(const char* tool, const char* flag, const char* text,
                     std::size_t& bytes) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::size_t>::max() >> 20;
  std::uint64_t mebibytes = 0;
  if (!parse_u64(tool, flag, text, mebibytes)) return false;
  if (mebibytes > kMax) {
    std::fprintf(stderr, "%s: %s must be at most %llu\n", tool, flag,
                 static_cast<unsigned long long>(kMax));
    return false;
  }
  bytes = static_cast<std::size_t>(mebibytes) << 20;
  return true;
}

bool write_file(const char* tool, const std::string& path,
                const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
    return false;
  }
  out << text;
  return true;
}

}  // namespace mrsc::tools
