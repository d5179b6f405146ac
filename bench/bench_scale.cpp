// Scenario-scale benchmark: how compile/lint/sim/verify cost grows with
// circuit size across the registry's four parametric generators.
//
// Every point is resolved through the same ScenarioRegistry the CLIs use, so
// the sweep measures the real end-to-end path: build the design (compile),
// run the full static-check registry over it (lint), integrate the ODE
// semantics for a fixed horizon (sim), and prove the kO1 compile pipeline
// trajectory-preserving on the design with its ports pinned (verify).
//
// Writes BENCH_scale.json (path overridable via MRSC_BENCH_SCALE_JSON).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "scenario/registry.hpp"
#include "sim/ode.hpp"
#include "tools/cli_flags.hpp"
#include "util/json.hpp"
#include "verify/opt_equivalence.hpp"

namespace {

using namespace mrsc;
using util::json::Value;

struct Point {
  std::string spec;
  std::size_t n = 0;
  std::size_t species = 0;
  std::size_t reactions = 0;
  double compile_ms = 0.0;
  double lint_ms = 0.0;
  double sim_ms = 0.0;
  double verify_ms = 0.0;
};

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

Point measure(const std::string& generator, std::size_t n) {
  Point point;
  point.spec = generator + "(" + std::to_string(n) + ")";
  point.n = n;

  auto start = std::chrono::steady_clock::now();
  scenario::ResolvedScenario resolved =
      scenario::ScenarioRegistry::global().resolve(point.spec);
  point.compile_ms = elapsed_ms(start);

  const core::ReactionNetwork& net = *resolved.design.network;
  point.species = net.species_count();
  point.reactions = net.reaction_count();

  start = std::chrono::steady_clock::now();
  lint::LintInput input = lint::LintInput::from_design(
      net, resolved.design.info, resolved.scenario.name);
  input.composition = resolved.design.composition.get();
  const lint::LintReport report = lint::run_lint(input);
  point.lint_ms = elapsed_ms(start);
  (void)report;

  start = std::chrono::steady_clock::now();
  sim::OdeOptions ode;
  ode.t_end = 5.0;
  ode.record_interval = 0.1;
  const sim::OdeResult run = sim::simulate_ode(net, ode);
  point.sim_ms = elapsed_ms(start);
  (void)run;

  start = std::chrono::steady_clock::now();
  std::vector<core::SpeciesId> roots;
  for (const auto& [id, role] : resolved.design.info.roots) {
    roots.push_back(id);
  }
  verify::OptEquivalenceOptions equivalence;
  equivalence.t_end = 1.0;
  equivalence.record_interval = 0.1;
  const auto violations =
      verify::check_optimization_equivalence(net, roots, equivalence);
  point.verify_ms = elapsed_ms(start);
  if (!violations.empty()) {
    std::fprintf(stderr, "opt equivalence violated on %s (%zu findings)\n",
                 point.spec.c_str(), violations.size());
  }
  return point;
}

}  // namespace

int main() {
  std::printf("== scenario scale: pipeline cost vs circuit size\n\n");

  const std::vector<std::pair<std::string, std::vector<std::size_t>>> plan = {
      {"counter", {2, 4, 6, 8}},
      {"delay_chain", {2, 4, 8, 16}},
      {"fsm_wide", {4, 8, 16, 32}},
      {"cascade", {2, 3, 4, 5}},
  };

  Value generators;
  for (const auto& [generator, sizes] : plan) {
    std::printf("%-16s %4s %8s %10s %12s %10s %9s %10s\n", generator.c_str(),
                "n", "species", "reactions", "compile_ms", "lint_ms",
                "sim_ms", "verify_ms");
    Value points;
    for (const std::size_t n : sizes) {
      const Point point = measure(generator, n);
      std::printf("%-16s %4zu %8zu %10zu %12.3f %10.3f %9.3f %10.3f\n", "",
                  point.n, point.species, point.reactions, point.compile_ms,
                  point.lint_ms, point.sim_ms, point.verify_ms);
      Value entry;
      entry.set("spec", Value(point.spec));
      entry.set("n", Value(std::uint64_t{point.n}));
      entry.set("species", Value(std::uint64_t{point.species}));
      entry.set("reactions", Value(std::uint64_t{point.reactions}));
      entry.set("compile_ms", Value(point.compile_ms));
      entry.set("lint_ms", Value(point.lint_ms));
      entry.set("sim_ms", Value(point.sim_ms));
      entry.set("verify_ms", Value(point.verify_ms));
      points.array().push_back(std::move(entry));
    }
    std::printf("\n");
    Value sweep;
    sweep.set("generator", Value(generator));
    sweep.set("points", std::move(points));
    generators.array().push_back(std::move(sweep));
  }

  const char* path_env = std::getenv("MRSC_BENCH_SCALE_JSON");
  const std::string path = path_env ? path_env : "BENCH_scale.json";
  Value json;
  json.set("benchmark", Value("scenario_scale"));
  json.set("generators", std::move(generators));
  if (!tools::write_file("bench_scale", path, json.dump() + "\n", "report")) {
    return 1;
  }
  return 0;
}
