#include "tools/cli_design.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace mrsc::tools {

namespace {

// --record, or t_end/200 clamped away from zero so a tiny --t-end cannot
// underflow it into an invalid sampling interval.
double record_interval(const SimFlags& flags) {
  return flags.record > 0.0 ? flags.record
                            : std::max(flags.t_end / 200.0,
                                       std::numeric_limits<double>::min());
}

}  // namespace

LoadedDesign load_design(const DesignSource& source, int opt,
                         std::span<const std::string> pinned,
                         const std::vector<std::string>& assume_zero) {
  const int given = static_cast<int>(!source.file.empty()) +
                    static_cast<int>(!source.design.empty()) +
                    static_cast<int>(!source.scenario.empty());
  if (given != 1) {
    throw std::invalid_argument("give exactly one design source");
  }
  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::global();
  scenario::Scenario record;
  if (!source.file.empty()) {
    record = scenario::load_network_file(source.file);
  } else if (!source.design.empty()) {
    record.name = registry.canonicalize(source.design);
    record.design = record.name;
  } else {
    record = scenario::load_scenario_argument(source.scenario);
  }
  // An inline network pins the names through its root list; the registry
  // already pins every port, register and clock species of its designs.
  if (record.design.empty()) {
    for (const std::string& name : pinned) {
      if (std::ranges::find(record.roots, name) == record.roots.end()) {
        record.roots.push_back(name);
      }
    }
  }

  LoadedDesign loaded;
  compile::CompileOptions options;
  options.opt = opt == 0 ? compile::OptLevel::kO0 : compile::OptLevel::kO1;
  options.assume_zero_inputs = assume_zero;
  options.report = &loaded.report;
  loaded.resolved = registry.resolve(record, options);
  loaded.report.design = loaded.resolved.scenario.name;
  for (const std::string& name : pinned) {
    const auto id = loaded.network().find_species(name);
    if (!id) {
      throw std::invalid_argument(loaded.resolved.scenario.name +
                                  ": no species named '" + name + "'");
    }
    loaded.pinned.push_back(*id);
  }
  return loaded;
}

std::vector<core::SpeciesId> LoadedDesign::reported() const {
  if (!pinned.empty()) return pinned;
  std::vector<core::SpeciesId> all;
  for (std::size_t i = 0; i < network().species_count(); ++i) {
    all.push_back(
        core::SpeciesId{static_cast<core::SpeciesId::underlying_type>(i)});
  }
  return all;
}

void SimFlags::add_to(FlagParser& flags) {
  flags.add({
      {"--scenario", source.scenario}, {"--species", species},
      {"--opt", opt}, {"--t-end", t_end}, {"--method", method},
      {"--dt", dt}, {"--record", record}, {"--omega", omega},
      {"--seed", seed}, {"--tau", tau},
  });
  flags.positional(source.file, "multiple input files");
}

bool SimFlags::check(const char* tool) const {
  const auto broken = [tool](bool bad, const char* rule, double value) {
    if (bad) std::fprintf(stderr, "%s: %s (got %g)\n", tool, rule, value);
    return bad;
  };
  return !(broken(t_end <= 0.0, "--t-end must be > 0", t_end) ||
           broken(dt <= 0.0, "--dt must be > 0", dt) ||
           broken(omega <= 0.0, "--omega must be > 0", omega) ||
           broken(tau <= 0.0, "--tau must be > 0", tau) ||
           broken(record < 0.0, "--record must be >= 0", record));
}

LoadedDesign SimFlags::load(const GivenFlags& given) {
  LoadedDesign loaded = load_design(source, opt, species);
  std::printf("%s %s: %zu species, %zu reactions\n",
              source.file.empty() ? "scenario" : "loaded",
              loaded.report.design.c_str(), loaded.report.before.species,
              loaded.report.before.reactions);
  if (opt) std::printf("%s", loaded.report.to_table().c_str());
  const scenario::SimBudget& budget = loaded.resolved.scenario.sim;
  if (!given.contains("--method") && budget.method) method = *budget.method;
  if (!given.contains("--t-end") && budget.t_end) t_end = *budget.t_end;
  if (!given.contains("--record") && budget.record) record = *budget.record;
  if (!given.contains("--omega") && budget.omega) omega = *budget.omega;
  if (!given.contains("--seed") && budget.seed) seed = *budget.seed;
  return loaded;
}

sim::OdeOptions SimFlags::ode(sim::OdeMethod ode_method) const {
  sim::OdeOptions options;
  options.t_end = t_end;
  options.dt = dt;
  options.record_interval = record_interval(*this);
  options.method = ode_method;
  return options;
}

sim::SsaOptions SimFlags::ssa(sim::SsaMethod ssa_method) const {
  sim::SsaOptions options;
  options.t_end = t_end;
  options.omega = omega;
  options.seed = seed;
  options.tau = tau;
  options.record_interval = record_interval(*this);
  options.method = ssa_method;
  return options;
}

}  // namespace mrsc::tools
