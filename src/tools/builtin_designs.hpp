// Built-in design lookup — a header-only shim over the scenario registry
// (scenario/registry.hpp), which is the single resolver for every design the
// toolchain runs. No CLI or library uses it; perfbench/ still does, and
// test_scenario checks that it builds what the registry builds. It goes once
// perfbench/ calls the registry directly.
//
// `build_design` accepts everything the registry serves: the fixed builtin
// names ("counter", "cascade", ...) and the parametric generator specs
// ("counter(4)", "delay_chain(8)", "fsm_wide(16)", "cascade(3)"). Fixed
// names compile byte-identically to what this module produced before the
// registry existed.
#pragma once

#include <string>
#include <utility>

#include "compile/passes.hpp"
#include "scenario/registry.hpp"

namespace mrsc::tools {

/// A compiled design plus the analyzer-facing metadata; produced by the
/// scenario registry.
using BuiltDesign = scenario::BuiltDesign;

/// Comma-separated list of the fixed designs, for usage strings.
[[nodiscard]] inline const char* builtin_design_names() {
  return scenario::ScenarioRegistry::global().fixed_names_csv().c_str();
}

/// Compiles a design by registry spec; throws std::invalid_argument for an
/// unknown name, bad arity, or out-of-range argument. `options.design_info`
/// is managed internally (the result's `info` member is always filled).
[[nodiscard]] inline BuiltDesign build_design(
    const std::string& name, const compile::CompileOptions& options) {
  return std::move(
      scenario::ScenarioRegistry::global().resolve(name, options).design);
}

}  // namespace mrsc::tools
