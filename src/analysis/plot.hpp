// ASCII waveform rendering and CSV export.
//
// The bench binaries regenerate the paper's figures as time series; these
// helpers render them directly in the terminal (so `bench_*` output is
// self-contained) and dump CSV for external plotting.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "sim/trajectory.hpp"

namespace mrsc::analysis {

struct AsciiPlotOptions {
  std::size_t width = 100;   ///< character columns
  std::size_t height = 18;   ///< character rows
  double y_min = 0.0;
  double y_max = -1.0;  ///< < y_min means auto-scale
};

/// One labelled series for the plotter.
struct Series {
  std::string label;
  std::vector<double> x;
  std::vector<double> y;
  char glyph = '*';
};

/// Renders overlaid series on a shared axis grid.
[[nodiscard]] std::string ascii_plot(std::span<const Series> series,
                                     const AsciiPlotOptions& options = {});

/// Convenience: plots selected species of a trajectory (glyphs cycle through
/// a fixed palette).
[[nodiscard]] std::string plot_trajectory(
    const sim::Trajectory& trajectory, const core::ReactionNetwork& network,
    std::span<const core::SpeciesId> ids, const AsciiPlotOptions& options = {});

}  // namespace mrsc::analysis
