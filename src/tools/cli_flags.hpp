// The one command-line parser every mrsc_* CLI shares, its number grammar,
// the writer for the files those flags name (--json, --out, --csv,
// --port-file), and the exit code of a failure (exit_code).
//
// Flag grammar, the same for every CLI:
//   --name value   a flag that takes a value takes the next argument, even
//                  one that starts with '-' ("--omega -5")
//   --name         a toggle takes none
//   FILE           the one positional input of the CLIs that read a file
// A repeated flag keeps its last value. An unknown flag, or an argument
// where the CLI takes no positional, prints "<tool>: unknown option X"; a
// flag with nothing after it prints "<tool>: --name needs a value". Both
// exit 2, like the number errors below. "-" as the path of --json, --csv or
// --port-file writes to stdout (write_file).
//
// Every message reads "<tool>: ..." exactly as the CLIs have always printed
// it. A false return means the message was printed; for the parsers the
// caller exits 2 (usage error), for write_file it picks its own code.
//
// Number grammar (util::parse_u64 and util::parse_finite_double, which the
// .mrsc parser shares):
//   u64     decimal digits only, at most 18446744073709551615: no sign, no
//           whitespace, no exponent ("-1", "+1", " 7", "1e3" are rejected)
//   double  anything std::stod reads in full that is finite ("1e-3", "-5";
//           "nan", "inf" and "-inf" are rejected)
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

namespace mrsc::tools {

/// The value after the flag at argv[i]: advances i and returns argv[i + 1],
/// or prints "<tool>: <flag> needs a value" and returns nullptr when the
/// flag is the last argument.
const char* need_value(const char* tool, int argc, char** argv, int& i);

[[nodiscard]] bool parse_double(const char* tool, const char* flag,
                                const char* text, double& out);

[[nodiscard]] bool parse_u64(const char* tool, const char* flag,
                             const char* text, std::uint64_t& out);

/// A size in MiB, returned in bytes. Rejects values whose byte count would
/// not fit in a size_t (2^44 MiB and above on 64-bit hosts).
[[nodiscard]] bool parse_mebibytes(const char* tool, const char* flag,
                                   const char* text, std::size_t& bytes);

/// The --opt level of mrsc_compile and mrsc_lint: "0" or "1"; anything else
/// prints "<tool>: --opt must be 0 or 1".
[[nodiscard]] bool parse_opt_level(const char* tool, const char* text,
                                   int& out);

/// One row of a CLI's flag table: the flag's name and where its value goes.
/// The destination's type picks how the value is read.
class Flag {
 public:
  /// Reads a value on the spot; returns false after printing its message.
  using Convert = std::function<bool(const char* value)>;

  Flag(const char* name, double& out);  ///< finite double
  template <std::unsigned_integral T>
    requires(!std::same_as<T, bool>)
  Flag(const char* name, T& out)  ///< whole number
      : Flag(name, true, [name, &out](const char* tool, const char* value) {
          std::uint64_t number = 0;
          if (!parse_u64(tool, name, value, number)) return false;
          out = static_cast<T>(number);
          return true;
        }) {}
  Flag(const char* name, std::string& out);  ///< the text as given
  Flag(const char* name, std::vector<std::string>& out);  ///< comma list
  /// Comma list of finite doubles; "<tool>: <flag> needs at least one
  /// value" when it is empty.
  Flag(const char* name, std::vector<double>& out);
  /// A toggle: takes no value and stores `value` in `out`.
  Flag(const char* name, bool& out, bool value = true);
  Flag(const char* name, Convert convert);

 private:
  friend class FlagParser;
  // Stores the value (nullptr for a toggle); `tool` prefixes messages.
  using Store = std::function<bool(const char* tool, const char* value)>;
  Flag(const char* name, bool takes_value, Store store);

  const char* name_;
  bool takes_value_;
  Store store_;
};

/// The names of the flags a command line passed.
using GivenFlags = std::set<std::string, std::less<>>;

/// Walks a command line against one CLI's flag table (grammar above).
class FlagParser {
 public:
  FlagParser(const char* tool, std::initializer_list<Flag> flags);

  /// Takes the CLI's one positional input into `out`; a second one prints
  /// "<tool>: <extra>".
  FlagParser& positional(std::string& out, const char* extra);

  /// Appends rows a group of CLIs shares (SimFlags::add_to).
  FlagParser& add(std::vector<Flag> flags);

  /// Prints `usage` after an unknown option.
  FlagParser& usage_on_unknown(void (*usage)());

  /// Parses argv[1..argc) and stops at the first error.
  [[nodiscard]] bool parse(int argc, char** argv);

  /// The flags parse() saw.
  [[nodiscard]] const GivenFlags& given() const { return given_; }

 private:
  const char* tool_;
  std::vector<Flag> flags_;
  std::string* positional_ = nullptr;
  const char* extra_ = nullptr;
  void (*usage_)() = nullptr;
  GivenFlags given_;
};

/// Prints "<tool>: <what>" and returns the exit code of a throw out of a
/// CLI's work, the same in every CLI: 2 for std::invalid_argument
/// (malformed content, an unknown name), after which a non-null `usage`
/// prints too; 1 for anything else (an unreadable input, an unwritable
/// output, a failed run).
[[nodiscard]] int exit_code(const char* tool, const std::exception& error,
                            void (*usage)() = nullptr);

/// Writes `text` to the file at `path`, or to stdout when `path` is "-";
/// prints "<tool>: cannot write <path>" and returns false when the file
/// cannot be written. After a file is written, a non-null `what` prints
/// "<what> written to <path>" on stdout.
[[nodiscard]] bool write_file(const char* tool, const std::string& path,
                              const std::string& text,
                              const char* what = nullptr);

}  // namespace mrsc::tools
