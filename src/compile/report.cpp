#include "compile/report.hpp"

#include <cstdio>

#include "util/json.hpp"

namespace mrsc::compile {

namespace {

using util::json::quote;

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

std::string stats_json(const core::NetworkStats& stats) {
  std::string out = "{";
  out += "\"species\": " + std::to_string(stats.species);
  out += ", \"reactions\": " + std::to_string(stats.reactions);
  out += ", \"slow_reactions\": " + std::to_string(stats.slow_reactions);
  out += ", \"fast_reactions\": " + std::to_string(stats.fast_reactions);
  out += ", \"custom_reactions\": " + std::to_string(stats.custom_reactions);
  out += ", \"max_order\": " + std::to_string(stats.max_order);
  out += ", \"zero_order_sources\": " +
         std::to_string(stats.zero_order_sources);
  out += "}";
  return out;
}

}  // namespace

std::string CompileReport::to_json() const {
  std::string out = "{\n";
  if (!design.empty()) {
    out += "  \"design\": " + quote(design) + ",\n";
  }
  out += "  \"before\": " + stats_json(before) + ",\n";
  out += "  \"after\": " + stats_json(after) + ",\n";
  out += "  \"lowering_seconds\": " + format_double(lowering_seconds) + ",\n";
  out += "  \"pass_seconds\": " + format_double(pass_seconds) + ",\n";
  out += "  \"passes\": [\n";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassStats& pass = passes[i];
    out += "    {\"name\": " + quote(pass.name);
    out += ", \"species_before\": " + std::to_string(pass.species_before);
    out += ", \"species_after\": " + std::to_string(pass.species_after);
    out += ", \"reactions_before\": " + std::to_string(pass.reactions_before);
    out += ", \"reactions_after\": " + std::to_string(pass.reactions_after);
    out += ", \"wall_seconds\": " + format_double(pass.wall_seconds);
    out += ", \"changed\": ";
    out += pass.changed ? "true" : "false";
    out += ", \"notes\": [";
    for (std::size_t j = 0; j < pass.notes.size(); ++j) {
      if (j > 0) out += ", ";
      out += quote(pass.notes[j]);
    }
    out += "]}";
    out += (i + 1 < passes.size()) ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

std::string CompileReport::to_table() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %15s %17s %10s\n", "pass",
                "species", "reactions", "wall");
  out += line;
  for (const PassStats& pass : passes) {
    char species[32];
    char reactions[32];
    std::snprintf(species, sizeof(species), "%zu -> %zu", pass.species_before,
                  pass.species_after);
    std::snprintf(reactions, sizeof(reactions), "%zu -> %zu",
                  pass.reactions_before, pass.reactions_after);
    std::snprintf(line, sizeof(line), "%-28s %15s %17s %9.3fms\n",
                  pass.name.c_str(), species, reactions,
                  pass.wall_seconds * 1e3);
    out += line;
    for (const std::string& note : pass.notes) {
      out += "  - " + note + "\n";
    }
  }
  std::snprintf(line, sizeof(line),
                "total: %zu -> %zu species, %zu -> %zu reactions "
                "(lowering %.3fms, passes %.3fms)\n",
                before.species, after.species, before.reactions,
                after.reactions, lowering_seconds * 1e3, pass_seconds * 1e3);
  out += line;
  return out;
}

}  // namespace mrsc::compile
