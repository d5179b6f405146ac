// Per-pass compile observability.
//
// Every pass run through the PassManager records how it changed the network
// (species/reaction deltas), how long it took, and any human-readable notes
// ("merged 4 duplicate reactions"). The aggregate CompileReport is what
// `mrsc_compile --json` exports and what `mrsc_sim --opt` / `mrsc_batch
// --opt` print, so the cost and the payoff of the pipeline stay visible.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "util/json.hpp"

namespace mrsc::compile {

/// What one pass did to the network.
struct PassStats {
  std::string name;
  std::size_t species_before = 0;
  std::size_t species_after = 0;
  std::size_t reactions_before = 0;
  std::size_t reactions_after = 0;
  double wall_seconds = 0.0;
  bool changed = false;
  std::vector<std::string> notes;
};

/// The full story of one compile: network stats before and after the
/// pipeline, total wall time split into lowering (front-end emission) and
/// passes, and the per-pass breakdown.
struct CompileReport {
  std::string design;  // optional: name of the compiled design/file
  core::NetworkStats before;
  core::NetworkStats after;
  double lowering_seconds = 0.0;
  double pass_seconds = 0.0;
  std::vector<PassStats> passes;

  /// The report as JSON (schema in docs/COMPILE.md).
  [[nodiscard]] util::json::Value to_value() const;

  /// Renders a fixed-width per-pass table for terminal output.
  [[nodiscard]] std::string to_table() const;
};

}  // namespace mrsc::compile
