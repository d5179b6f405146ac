#include "compile/report.hpp"

#include <cstdint>
#include <cstdio>
#include <utility>

#include "util/json.hpp"

namespace mrsc::compile {

namespace {

using util::json::Value;

Value stats_value(const core::NetworkStats& stats) {
  Value out;
  out.set("species", Value(std::uint64_t{stats.species}));
  out.set("reactions", Value(std::uint64_t{stats.reactions}));
  out.set("slow_reactions", Value(std::uint64_t{stats.slow_reactions}));
  out.set("fast_reactions", Value(std::uint64_t{stats.fast_reactions}));
  out.set("custom_reactions", Value(std::uint64_t{stats.custom_reactions}));
  out.set("max_order", Value(std::uint64_t{stats.max_order}));
  out.set("zero_order_sources", Value(std::uint64_t{stats.zero_order_sources}));
  return out;
}

}  // namespace

Value CompileReport::to_value() const {
  Value out;
  if (!design.empty()) out.set("design", Value(design));
  out.set("before", stats_value(before));
  out.set("after", stats_value(after));
  out.set("lowering_seconds", Value(lowering_seconds));
  out.set("pass_seconds", Value(pass_seconds));
  Value list;
  std::vector<Value>& array = list.array();
  for (const PassStats& pass : passes) {
    Value entry;
    entry.set("name", Value(pass.name));
    entry.set("species_before", Value(std::uint64_t{pass.species_before}));
    entry.set("species_after", Value(std::uint64_t{pass.species_after}));
    entry.set("reactions_before", Value(std::uint64_t{pass.reactions_before}));
    entry.set("reactions_after", Value(std::uint64_t{pass.reactions_after}));
    entry.set("wall_seconds", Value(pass.wall_seconds));
    entry.set("changed", Value(pass.changed));
    entry.set("notes", util::json::string_array(pass.notes));
    array.push_back(std::move(entry));
  }
  out.set("passes", std::move(list));
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
