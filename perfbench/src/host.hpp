// Host and run record printed with every benchmark result, so two results
// can be compared honestly (same core count, compiler, build type, commit).
#pragma once

#include <string>

namespace perfbench {

struct HostRecord {
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string git_sha;  ///< supplied by the caller; "unknown" outside git
};

[[nodiscard]] HostRecord host_record(std::string git_sha);

/// {"nproc":...,"compiler":...,"build_type":...,"git_sha":...}
[[nodiscard]] std::string to_json(const HostRecord& host);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
