// The benchmark runner: one entry point runs a named workload for a fixed
// time, checks its outputs, and returns every metric by name with its unit.
//
// Untraced runs (trace == false) report the end-to-end metrics. Traced runs
// spend half the time on the same untraced closed loop (for the untraced
// p50 and the server's counters) and half replaying the same generated
// operations through each layer's public entry points inside spans; they
// report the per-layer ledger.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::kServeCold;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha;
  std::string spans_path;  ///< traced runs write their spans here if set
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable report (host record, sample counts, per-design rows),
  /// printed before the result line.
  std::vector<std::string> report;
};

/// A regime guard failed: the run did not measure what the workload claims
/// (a cold run that hit the cache, a hot run that missed it, a replicate
/// that did not finish). The run reports no numbers.
class RegimeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[nodiscard]] RunResult run_benchmark(const RunOptions& options);

/// The result line: {"correct":...,"attempted":...,"failed":...,"metrics":{
/// name:{"value":...,"unit":...},...}}.
[[nodiscard]] std::string result_json(const RunResult& result);

/// Names and units of the per-layer metrics every traced run reports.
[[nodiscard]] const std::vector<std::pair<const char*, const char*>>&
layer_metric_names();

}  // namespace perfbench
