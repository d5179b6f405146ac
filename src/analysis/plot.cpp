#include "analysis/plot.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace mrsc::analysis {

std::string ascii_plot(std::span<const Series> series,
                       const AsciiPlotOptions& options) {
  if (series.empty()) {
    throw std::invalid_argument("ascii_plot: no series");
  }
  double x_min = 1e300, x_max = -1e300;
  double y_min = options.y_min;
  double y_max = options.y_max;
  const bool auto_y = y_max < y_min;
  if (auto_y) {
    y_min = 1e300;
    y_max = -1e300;
  }
  for (const Series& s : series) {
    if (s.x.size() != s.y.size()) {
      throw std::invalid_argument("ascii_plot: series size mismatch");
    }
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      x_min = std::min(x_min, s.x[i]);
      x_max = std::max(x_max, s.x[i]);
      if (auto_y) {
        y_min = std::min(y_min, s.y[i]);
        y_max = std::max(y_max, s.y[i]);
      }
    }
  }
  if (!(x_max > x_min)) x_max = x_min + 1.0;
  if (!(y_max > y_min)) y_max = y_min + 1.0;

  const std::size_t w = std::max<std::size_t>(options.width, 10);
  const std::size_t h = std::max<std::size_t>(options.height, 4);
  std::vector<std::string> grid(h, std::string(w, ' '));

  for (const Series& s : series) {
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      const double fx = (s.x[i] - x_min) / (x_max - x_min);
      const double fy = (s.y[i] - y_min) / (y_max - y_min);
      if (fy < 0.0 || fy > 1.0) continue;
      const std::size_t col = std::min(
          w - 1, static_cast<std::size_t>(fx * static_cast<double>(w - 1) +
                                          0.5));
      const std::size_t row_from_bottom = std::min(
          h - 1, static_cast<std::size_t>(fy * static_cast<double>(h - 1) +
                                          0.5));
      grid[h - 1 - row_from_bottom][col] = s.glyph;
    }
  }

  std::ostringstream out;
  out << std::string(8, ' ');
  for (const Series& s : series) {
    out << s.glyph << "=" << s.label << "  ";
  }
  out << "\n";
  for (std::size_t row = 0; row < h; ++row) {
    const double y_val =
        y_max - (y_max - y_min) * static_cast<double>(row) /
                    static_cast<double>(h - 1);
    char label[16];
    std::snprintf(label, sizeof label, "%7.3f", y_val);
    out << label << "|" << grid[row] << "\n";
  }
  out << std::string(8, ' ') << std::string(w, '-') << "\n";
  out << std::string(8, ' ') << "t = " << x_min << " .. " << x_max << "\n";
  return out.str();
}

std::string plot_trajectory(const sim::Trajectory& trajectory,
                            const core::ReactionNetwork& network,
                            std::span<const core::SpeciesId> ids,
                            const AsciiPlotOptions& options) {
  static constexpr char kGlyphs[] = {'*', 'o', '+', 'x', '#', '@', '%', '~'};
  std::vector<Series> series;
  series.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Series s;
    s.label = network.species_name(ids[i]);
    s.x = trajectory.times();
    s.y = trajectory.series(ids[i]);
    s.glyph = kGlyphs[i % sizeof kGlyphs];
    series.push_back(std::move(s));
  }
  return ascii_plot(series, options);
}

}  // namespace mrsc::analysis
