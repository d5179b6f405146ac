#include "tools/cli_flags.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

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

bool parse_opt_level(const char* tool, const char* text, int& out) {
  if (std::strcmp(text, "0") != 0 && std::strcmp(text, "1") != 0) {
    std::fprintf(stderr, "%s: --opt must be 0 or 1\n", tool);
    return false;
  }
  out = text[0] - '0';
  return true;
}

Flag::Flag(const char* name, bool takes_value, Store store)
    : name_(name), takes_value_(takes_value), store_(std::move(store)) {}

Flag::Flag(const char* name, double& out)
    : Flag(name, true, [name, &out](const char* tool, const char* value) {
        return parse_double(tool, name, value, out);
      }) {}

Flag::Flag(const char* name, std::string& out)
    : Flag(name, true, [&out](const char*, const char* value) {
        out = value;
        return true;
      }) {}

Flag::Flag(const char* name, std::vector<std::string>& out)
    : Flag(name, true, [&out](const char*, const char* value) {
        out = util::split_commas(value);
        return true;
      }) {}

Flag::Flag(const char* name, std::vector<double>& out)
    : Flag(name, true, [name, &out](const char* tool, const char* value) {
        out.clear();
        for (const std::string& item : util::split_commas(value)) {
          double number = 0.0;
          if (!parse_double(tool, name, item.c_str(), number)) return false;
          out.push_back(number);
        }
        if (out.empty()) {
          std::fprintf(stderr, "%s: %s needs at least one value\n", tool,
                       name);
          return false;
        }
        return true;
      }) {}

Flag::Flag(const char* name, bool& out, bool value)
    : Flag(name, false, [&out, value](const char*, const char*) {
        out = value;
        return true;
      }) {}

Flag::Flag(const char* name, Convert convert)
    : Flag(name, true,
           [convert = std::move(convert)](const char*, const char* value) {
             return convert(value);
           }) {}

FlagParser::FlagParser(const char* tool, std::initializer_list<Flag> flags)
    : tool_(tool), flags_(flags) {}

FlagParser& FlagParser::positional(std::string& out, const char* extra) {
  positional_ = &out;
  extra_ = extra;
  return *this;
}

FlagParser& FlagParser::add(std::vector<Flag> flags) {
  flags_.insert(flags_.end(), std::make_move_iterator(flags.begin()),
                std::make_move_iterator(flags.end()));
  return *this;
}

FlagParser& FlagParser::usage_on_unknown(void (*usage)()) {
  usage_ = usage;
  return *this;
}

bool FlagParser::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const Flag* flag = nullptr;
    for (const Flag& row : flags_) {
      if (std::strcmp(row.name_, arg) == 0) flag = &row;
    }
    if (flag == nullptr && arg[0] != '-' && positional_ != nullptr) {
      if (!positional_->empty()) {
        std::fprintf(stderr, "%s: %s\n", tool_, extra_);
        return false;
      }
      *positional_ = arg;
      continue;
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "%s: unknown option %s\n", tool_, arg);
      if (usage_ != nullptr) usage_();
      return false;
    }
    const char* value = nullptr;
    if (flag->takes_value_ && (value = need_value(tool_, argc, argv, i)) ==
                                  nullptr) {
      return false;
    }
    if (!flag->store_(tool_, value)) return false;
    given_.emplace(flag->name_);
  }
  return true;
}

int exit_code(const char* tool, const std::exception& error,
              void (*usage)()) {
  std::fprintf(stderr, "%s: %s\n", tool, error.what());
  if (dynamic_cast<const std::invalid_argument*>(&error) == nullptr) return 1;
  if (usage != nullptr) usage();
  return 2;
}

bool write_file(const char* tool, const std::string& path,
                const std::string& text, const char* what) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  std::ofstream out(path);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
    return false;
  }
  if (what != nullptr) std::printf("%s written to %s\n", what, path.c_str());
  return true;
}

}  // namespace mrsc::tools
