// mrsc_perfbench — runs one benchmark workload and prints its metrics.
//
//   mrsc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--git-sha SHA] [--spans PATH]
//
// Workloads: serve_cold, serve_hot, ensemble_local (see perfbench/README.md).
// The report lines come first; the last line of standard output is the
// result object {"correct":...,"attempted":...,"failed":...,"metrics":{...}}.
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ledger; --spans writes the traced run's spans as TSV.
//
// Exit codes: 0 every operation succeeded and every check passed; 1 a check,
// a regime guard or an operation failed; 2 bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage(const std::string& message) {
  std::cerr << "mrsc_perfbench: " << message
            << "\nusage: mrsc_perfbench --workload serve_cold|serve_hot|"
               "ensemble_local --seed N --seconds S --trace 0|1 "
               "[--git-sha SHA] [--spans PATH]\n";
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  try {
    out = std::stoull(text);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      const auto workload = perfbench::parse_workload(value);
      if (!workload) return usage("unknown workload '" + value + "'");
      options.workload = *workload;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, number)) return usage("bad --seed '" + value + "'");
      options.seed = number;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, number) || number == 0 || number > 3600) {
        return usage("--seconds must be a whole number in [1, 3600]");
      }
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_workload) return usage("--workload is required");

  try {
    const perfbench::RunResult result = perfbench::run_benchmark(options);
    for (const std::string& line : result.report) {
      std::cout << "# " << line << '\n';
    }
    std::cout << perfbench::result_json(result) << std::endl;
    return result.correct ? 0 : 1;
  } catch (const perfbench::RegimeError& error) {
    std::cerr << "mrsc_perfbench: regime guard failed: " << error.what()
              << '\n';
  } catch (const std::exception& error) {
    std::cerr << "mrsc_perfbench: " << error.what() << '\n';
  }
  return 1;
}
