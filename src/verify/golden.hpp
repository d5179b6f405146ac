// Golden-trace regression files.
//
// A golden trace pins the cycle-by-cycle behaviour of a canonical example
// circuit (the same builds and inputs as examples/counter, moving_average,
// sequence_detector) to a checked-in text file with an explicit tolerance.
// `tests/test_golden.cpp` recomputes each trace and compares; regeneration is
// one command:
//
//   mrsc_verify --regen-golden tests/golden
//
// File format (line-oriented, '#' comments allowed):
//
//   golden v1
//   name <trace name>
//   tolerance <per-value absolute tolerance>
//   columns <col1> <col2> ...
//   row <v1> <v2> ...            # one per cycle, %.17g
//   end
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mrsc::verify {

struct GoldenTrace {
  std::string name;
  /// Per-value absolute comparison tolerance. 0 for exact (integer-valued
  /// traces: counter values, FSM states/outputs).
  double tolerance = 0.0;
  std::vector<std::string> columns;
  /// One row per cycle; row size == columns size.
  std::vector<std::vector<double>> rows;
};

[[nodiscard]] std::string serialize_golden(const GoldenTrace& trace);

/// Throws `std::runtime_error` with a line number on malformed input.
[[nodiscard]] GoldenTrace parse_golden(std::string_view text);

void save_golden(const GoldenTrace& trace, const std::string& path);
[[nodiscard]] GoldenTrace load_golden(const std::string& path);

/// Compares freshly computed rows against a golden trace under its
/// tolerance; returns a description of the first mismatch, or nullopt.
[[nodiscard]] std::optional<std::string> compare_golden(
    const GoldenTrace& golden, const std::vector<std::vector<double>>& rows);

/// Recomputes the canonical example traces (counter, moving_average,
/// sequence_detector) by building and simulating the example circuits.
/// Shared by `mrsc_verify --regen-golden` and test_golden.cpp, so the test
/// and the regeneration command can never drift apart.
[[nodiscard]] std::vector<GoldenTrace> compute_reference_traces();

}  // namespace mrsc::verify
