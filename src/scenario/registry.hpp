// The scenario registry: one resolver for every design the toolchain runs.
//
// The registry serves
//   * the fixed builtin designs (counter, moving_average, iir,
//     first_difference, delay, seqdet, cascade) — byte-identical to what
//     tools/builtin_designs produced before it became a shim over this
//     registry — and
//   * the parametric generators counter(N), delay_chain(D), fsm_wide(S),
//     cascade(L), which open the scale axis: the same construction at any
//     size, resolvable from a CLI flag, a serve job, or a bench sweep.
//
// resolve() returns the compiled network plus the analyzer-facing metadata
// (DesignInfo roots, the Composition record for cascades) plus the design's
// decoder (analysis/decode.hpp: its stimulus and sampling plans, built from
// the construction handles), so every tool drives registry designs through
// analysis::run_decoded without private construction code.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/decode.hpp"
#include "compile/compose.hpp"
#include "compile/passes.hpp"
#include "core/network.hpp"
#include "scenario/scenario.hpp"

namespace mrsc::scenario {

/// A compiled design plus the analyzer-facing metadata. (tools::BuiltDesign
/// is an alias of this struct; the registry is its single producer.)
struct BuiltDesign {
  std::unique_ptr<core::ReactionNetwork> network;
  compile::DesignInfo info;
  /// Non-null only for composed designs (cascade family).
  std::unique_ptr<compile::Composition> composition;
};

/// A fully resolved scenario: the record (with registry-filled defaults),
/// the compiled design, and the decoder that drives and reads it (null for
/// inline networks, which have no ports to drive, and for circuits built
/// with inputs assumed zero).
struct ResolvedScenario {
  Scenario scenario;
  BuiltDesign design;
  std::shared_ptr<const analysis::Decoder> decoder;
};

/// One parametric generator's catalog entry.
struct GeneratorInfo {
  std::string name;
  std::string parameter;     ///< display name of the argument ("N")
  std::uint64_t min_arg = 0;
  std::uint64_t max_arg = 0;
  std::uint64_t smoke_arg = 0;  ///< small size for catalog smoke runs
  std::string summary;
};

class ScenarioRegistry {
 public:
  ScenarioRegistry();

  /// The process-wide registry instance every CLI resolves through.
  [[nodiscard]] static const ScenarioRegistry& global();

  [[nodiscard]] const std::vector<std::string>& fixed_names() const {
    return fixed_names_;
  }
  [[nodiscard]] const std::vector<GeneratorInfo>& generators() const {
    return generators_;
  }
  /// "counter, moving_average, ..." — the fixed designs, for usage strings
  /// that predate the registry (kept byte-identical to the old list).
  [[nodiscard]] const std::string& fixed_names_csv() const {
    return fixed_names_csv_;
  }
  /// Every fixed design plus each generator at its smoke size, in catalog
  /// order: the set a CI smoke step compiles, lints, and simulates.
  [[nodiscard]] std::vector<std::string> smoke_catalog() const;

  /// True when `spec` parses and names a registered design with in-range
  /// arguments; false otherwise (never throws).
  [[nodiscard]] bool known(const std::string& spec) const;

  /// The whitespace-free normal form of a valid spec ("counter( 2 )" ->
  /// "counter(2)"). Throws std::invalid_argument — with a deterministic
  /// message — on malformed specs, unknown names, wrong arity, or
  /// out-of-range arguments. Serve cache keys are built over this.
  [[nodiscard]] std::string canonicalize(const std::string& spec) const;

  /// Builds the design a spec names. Same validation (and exceptions) as
  /// canonicalize. `options.design_info` / `options.report` are managed
  /// internally; the result's `info` member is always filled.
  [[nodiscard]] ResolvedScenario resolve(
      const std::string& spec, const compile::CompileOptions& options = {}) const;

  /// Resolves a parsed file-based scenario record: builds its @design spec
  /// through the registry, or parses its inline @network text. An inline
  /// network honours `options.opt` (at -O1 the standalone pipeline runs
  /// with its @roots pinned) and fills a requested `options.report`; a
  /// @roots name that is no species throws std::invalid_argument. The
  /// record itself (name, budgets) passes through untouched.
  [[nodiscard]] ResolvedScenario resolve(
      const Scenario& scenario,
      const compile::CompileOptions& options = {}) const;

 private:
  [[nodiscard]] const GeneratorInfo* find_generator(
      const std::string& name) const;
  [[nodiscard]] SpecCall validate(const std::string& spec) const;

  std::vector<std::string> fixed_names_;
  std::string fixed_names_csv_;
  std::vector<GeneratorInfo> generators_;
};

/// The scenario record a CLI --scenario argument names, without building
/// it: a registry spec ("counter(4)", recorded under its canonical name), a
/// path to a .mrsc file (anything containing '/' or ending in ".mrsc"), or
/// NAME.mrsc looked up under $MRSC_SCENARIO_DIR then ./scenarios/. Throws
/// std::invalid_argument for unknown/malformed specs (usage, exit 2) and
/// std::runtime_error for unreadable files (runtime, exit 1).
[[nodiscard]] Scenario load_scenario_argument(const std::string& argument);

}  // namespace mrsc::scenario
