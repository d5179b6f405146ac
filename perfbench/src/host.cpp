#include "host.hpp"

#include <sys/resource.h>

#include <thread>

#include "serve/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

HostRecord host_record(std::string git_sha) {
  HostRecord host;
  host.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
  host.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  host.compiler = "gcc " __VERSION__;
#else
  host.compiler = "unknown";
#endif
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.git_sha = git_sha.empty() ? "unknown" : std::move(git_sha);
  return host;
}

std::string to_json(const HostRecord& host) {
  using mrsc::serve::json::quote;
  return "{\"nproc\":" + std::to_string(host.nproc) +
         ",\"compiler\":" + quote(host.compiler) +
         ",\"build_type\":" + quote(host.build_type) +
         ",\"git_sha\":" + quote(host.git_sha) + "}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
