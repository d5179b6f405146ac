// The one design loader of mrsc_sim, mrsc_batch, mrsc_compile, mrsc_lint
// and mrsc_verify, and the flags mrsc_sim and mrsc_batch share.
//
// FILE.crn is an inline network named by its path, resolved exactly like a
// .mrsc @network block. -O1 runs once for every source: registry designs
// pin their ports, register state and clock species; an inline network
// pins its @roots plus the CLI's named species (--roots / --species).
// Malformed content, an unknown name and no source or two throw
// std::invalid_argument (exit 2); an unreadable input throws
// std::runtime_error (exit 1): tools::exit_code.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "compile/report.hpp"
#include "scenario/registry.hpp"
#include "sim/ode.hpp"
#include "sim/ssa.hpp"
#include "tools/cli_flags.hpp"

namespace mrsc::tools {

/// A CLI's design source: exactly one of the three may be set.
struct DesignSource {
  std::string file;      ///< FILE.crn, the positional input
  std::string design;    ///< --design NAME: a registry spec
  std::string scenario;  ///< --scenario SPEC|FILE.mrsc
};

/// A loaded design: the resolved scenario, the report of its compile run
/// (named after the scenario), and the ids of the pinned names in order.
struct LoadedDesign {
  scenario::ResolvedScenario resolved;
  compile::CompileReport report;
  std::vector<core::SpeciesId> pinned;

  [[nodiscard]] const core::ReactionNetwork& network() const {
    return *resolved.design.network;
  }
  /// The pinned species, or every species when none is pinned.
  [[nodiscard]] std::vector<core::SpeciesId> reported() const;
};

/// Loads `source` at compile level `opt` (0 or 1). `assume_zero` names the
/// input ports a registry circuit may drop at -O1 (mrsc_compile
/// --assume-zero).
[[nodiscard]] LoadedDesign load_design(
    const DesignSource& source, int opt,
    std::span<const std::string> pinned = {},
    const std::vector<std::string>& assume_zero = {});

/// The flags mrsc_sim and mrsc_batch share, with their defaults: the design
/// (FILE.crn or --scenario, --species, --opt) and how to simulate it.
struct SimFlags {
  DesignSource source;
  std::vector<std::string> species;  ///< reported, and pinned at --opt
  bool opt = false;
  double t_end = 100.0;
  std::string method;  ///< empty: the CLI's default method
  double dt = 1e-3;
  double record = 0.0;  ///< 0: t_end / 200
  double omega = 1000.0;
  std::uint64_t seed = 1;
  double tau = 0.01;

  /// The rows of --scenario, --species, --opt, --t-end, --method, --dt,
  /// --record, --omega, --seed and --tau, and the FILE.crn positional.
  void add_to(FlagParser& flags);

  /// Range checks, up front, so a bad value produces one clear message
  /// instead of a divide-by-zero sampling grid or an integrator that cannot
  /// advance. Prints the first failure and returns false.
  [[nodiscard]] bool check(const char* tool) const;

  /// Loads the design and prints "loaded FILE: ..." or "scenario NAME: ..."
  /// with its size, plus the per-pass table at --opt. Its @sim budget
  /// supplies each of --method, --t-end, --record, --omega and --seed that
  /// `given` lacks: explicit flags win.
  [[nodiscard]] LoadedDesign load(const GivenFlags& given);

  [[nodiscard]] sim::OdeOptions ode(sim::OdeMethod method) const;
  [[nodiscard]] sim::SsaOptions ssa(sim::SsaMethod method) const;
};

}  // namespace mrsc::tools
