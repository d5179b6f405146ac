// Declarative scenario records and the two text grammars that produce them.
//
// A Scenario names a design (either a registry spec like "counter(4)" or an
// inline reaction network in the io text format) plus the per-tool budgets a
// workload carries with it: how to simulate it, which lint checks gate it,
// how many verification seeds it owes, and which fault campaign it runs
// under stress. Scenarios come from two places:
//
//   * parametric generator specs — "counter(4)", "cascade(3)" — parsed by
//     parse_spec and served by the ScenarioRegistry (registry.hpp);
//   * .mrsc files — a directive format extending the io .crn conventions
//     (@key lines, '#' comments) parsed by parse_scenario_text.
//
// Budgets are std::optional so "not mentioned" stays distinguishable from
// "explicitly the default": a CLI applies a budget only when the scenario
// set it and the user did not override it on the command line.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mrsc::scenario {

/// A parsed design/generator reference: a bare name ("counter") or a call
/// with unsigned-integer arguments ("counter(4)").
struct SpecCall {
  std::string name;
  std::vector<std::uint64_t> args;

  /// The whitespace-free normal form: "name" or "name(a,b)". Two spellings
  /// of the same call canonicalize identically, which is what the serve
  /// cache keys on.
  [[nodiscard]] std::string canonical() const;
};

/// Parses "name" or "name(n, ...)" with optional whitespace. Throws
/// std::invalid_argument on malformed text (empty spec, bad identifier,
/// non-integer argument, unbalanced parentheses, trailing garbage).
[[nodiscard]] SpecCall parse_spec(std::string_view text);

/// Simulation budget (@sim). Unset fields defer to the consuming tool.
struct SimBudget {
  std::optional<std::string> method;  ///< dp45|rk4|be|ssa|nrm|tau
  std::optional<double> t_end;
  std::optional<double> record;
  std::optional<double> omega;
  std::optional<std::uint64_t> seed;
};

/// Static-analysis budget (@lint).
struct LintBudget {
  std::vector<std::string> checks;  ///< empty = every registered check
  bool werror = false;
};

/// Verification budget (@verify): opt-equivalence seeds for
/// `mrsc_verify --scenario`.
struct VerifyBudget {
  std::optional<std::size_t> seeds;
  std::optional<std::uint64_t> start_seed;
};

/// Stress-campaign budget (@stress): the fault, grid and trial count
/// `mrsc_stress --scenario` uses by default. The campaign always runs the
/// scenario's own @design.
struct StressBinding {
  std::optional<std::string> fault;
  std::vector<double> intensities;
  std::optional<std::size_t> trials;
};

/// The declarative scenario record.
struct Scenario {
  std::string name;
  std::string description;
  /// Registry spec ("counter(4)"). Empty when the design is inline.
  std::string design;
  /// Inline io-format network text (@network ... @end). Empty when the
  /// design is a registry spec.
  std::string network_text;
  /// Port species for inline networks (lint roots, all treated as inputs;
  /// pinned at -O1).
  std::vector<std::string> roots;
  SimBudget sim;
  LintBudget lint;
  VerifyBudget verify;
  StressBinding stress;
};

/// Parses the .mrsc directive format (grammar in docs/SCENARIOS.md). Throws
/// std::invalid_argument naming the offending line on unknown directives,
/// unknown keys, malformed values, or a missing/duplicate design.
[[nodiscard]] Scenario parse_scenario_text(const std::string& text);

/// Loads and parses a .mrsc file. An unreadable path throws
/// std::runtime_error (a runtime failure, exit 1); malformed content throws
/// std::invalid_argument exactly like parse_scenario_text (usage, exit 2).
[[nodiscard]] Scenario load_scenario_file(const std::string& path);

/// Reads a serialized network file (the io .crn format) as an inline-network
/// record named by its path: it resolves exactly like a .mrsc @network block
/// with no @roots and no budgets. An unreadable path throws
/// std::runtime_error; malformed content throws std::invalid_argument when
/// the record is resolved.
[[nodiscard]] Scenario load_network_file(const std::string& path);

}  // namespace mrsc::scenario
