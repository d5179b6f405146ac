// Static CRN analyzer: structural proofs before any simulation.
//
// The verify subsystem certifies designs *dynamically* — simulate, then
// check invariants along the trajectory. This subsystem is its static
// complement: every check here consumes only the compiled ReactionNetwork
// (plus the interface/tag metadata the compile pipeline records in
// DesignInfo and, for compositions, the Composition record), and what it
// proves therefore holds for every trajectory at once. The check catalogue,
// diagnostic id registry, and JSON schema are documented in docs/LINT.md:
//
//   conservation     exact rational conservation laws; uncovered state
//   phase-race       same-phase produce/consume pairs, catalyst imbalance
//   timescale        fast/slow rate-category separation ratios
//   dual-rail        rail-pair co-production and shared conservation
//   reachability     untouched/unreachable species, stuck reactions
//   iss-composition  structural ISS sufficient conditions per interface
//
// Checks never simulate and never modify the network. A check that cannot
// run (missing tags, no composition record) is reported as skipped — a
// skipped check is not a clean check, and the cross-oracle in verify/ holds
// the two subsystems to each other's verdicts.
#pragma once

#include <memory>
#include <stop_token>
#include <string>
#include <utility>
#include <vector>

#include "compile/compose.hpp"
#include "compile/passes.hpp"
#include "core/network.hpp"
#include "lint/diagnostics.hpp"

namespace mrsc::lint {

/// Everything the analyzer may look at. Only `network` is mandatory; the
/// richer the metadata, the more checks can run (see each check's skip
/// conditions in docs/LINT.md).
struct LintInput {
  const core::ReactionNetwork* network = nullptr;
  std::string design;  ///< name echoed into the report

  /// Interface roles (ports, state, clock phases) of the design's root
  /// species, as recorded by LoweringContext::finalize.
  std::vector<std::pair<core::SpeciesId, compile::PortRole>> roots;

  /// Emission tags: tags[i] describes reaction first_tagged + i. Only
  /// meaningful while tags_valid (see compile::DesignInfo).
  std::vector<compile::ReactionTag> tags;
  std::size_t first_tagged = 0;
  bool tags_valid = false;

  /// Layer/interface record of a CascadeComposer build; nullptr for a
  /// monolithic design (the ISS check is skipped then). Not owned.
  const compile::Composition* composition = nullptr;

  /// Convenience: bundles a compiled network with the DesignInfo its
  /// front-end filled in via CompileOptions::design_info.
  [[nodiscard]] static LintInput from_design(
      const core::ReactionNetwork& network, const compile::DesignInfo& info,
      std::string design_name);

  /// Root ids with the given role.
  [[nodiscard]] std::vector<core::SpeciesId> roots_with(
      compile::PortRole role) const;
};

/// Which checks run_lint runs.
struct LintOptions {
  /// Registry names of the checks to run; empty means all. Unknown names
  /// make run_lint throw std::invalid_argument.
  std::vector<std::string> checks;
};

/// One registered static check.
class Check {
 public:
  virtual ~Check() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual const char* summary() const = 0;
  /// Appends diagnostics to `report`. Returns an empty string when the
  /// check ran, else a human-readable reason it had to be skipped.
  [[nodiscard]] virtual std::string run(const LintInput& input,
                                        LintReport& report) const = 0;
};

/// The full registry, in the order checks run and are documented.
[[nodiscard]] std::vector<std::unique_ptr<Check>> all_checks();

/// Registry names, for CLIs and option validation.
[[nodiscard]] std::vector<std::string> check_names();

/// Runs the selected checks (all by default) and aggregates the report.
/// Throws std::invalid_argument when input.network is null or
/// options.checks names an unknown check. `stop` is polled before each
/// check: once it is requested no further check starts, and the report
/// holds only the checks that ran, so a caller that passes a stop token
/// tests it after the call and discards a stopped report.
[[nodiscard]] LintReport run_lint(const LintInput& input,
                                  const LintOptions& options = {},
                                  std::stop_token stop = {});

}  // namespace mrsc::lint
