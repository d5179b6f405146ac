// Flag parsing shared by every mrsc_* CLI, plus the writer for the files
// those flags name (--json, --out, --port-file).
//
// Each helper takes the tool name so its stderr message reads
// "<tool>: <flag>: '<text>' is not a number" exactly as the CLIs have always
// printed it. A false return means the message was printed; for the parsers
// the caller exits 2 (usage error), for write_file it picks its own code.
//
// Grammar (util::parse_u64 and util::parse_finite_double, which the .mrsc
// parser shares):
//   u64     decimal digits only, at most 18446744073709551615: no sign, no
//           whitespace, no exponent ("-1", "+1", " 7", "1e3" are rejected)
//   double  anything std::stod reads in full that is finite ("1e-3", "-5";
//           "nan", "inf" and "-inf" are rejected)
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

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

/// Writes `text` to the file at `path`, or to stdout when `path` is "-";
/// prints "<tool>: cannot write <path>" and returns false when the file
/// cannot be written. After a file is written, a non-null `what` prints
/// "<what> written to <path>" on stdout.
[[nodiscard]] bool write_file(const char* tool, const std::string& path,
                              const std::string& text,
                              const char* what = nullptr);

}  // namespace mrsc::tools
