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
#include <fstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "scenario/registry.hpp"
#include "sim/ode.hpp"
#include "verify/opt_equivalence.hpp"

namespace {

using namespace mrsc;

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

struct Sweep {
  std::string generator;
  std::vector<Point> points;
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

std::string format_point(const Point& point) {
  char buffer[320];
  std::snprintf(buffer, sizeof(buffer),
                "    {\"spec\": \"%s\", \"n\": %zu, \"species\": %zu, "
                "\"reactions\": %zu, \"compile_ms\": %.4f, \"lint_ms\": %.4f, "
                "\"sim_ms\": %.4f, \"verify_ms\": %.4f}",
                point.spec.c_str(), point.n, point.species, point.reactions,
                point.compile_ms, point.lint_ms, point.sim_ms,
                point.verify_ms);
  return buffer;
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

  std::vector<Sweep> sweeps;
  for (const auto& [generator, sizes] : plan) {
    Sweep sweep;
    sweep.generator = generator;
    std::printf("%-16s %4s %8s %10s %12s %10s %9s %10s\n", generator.c_str(),
                "n", "species", "reactions", "compile_ms", "lint_ms",
                "sim_ms", "verify_ms");
    for (const std::size_t n : sizes) {
      const Point point = measure(generator, n);
      std::printf("%-16s %4zu %8zu %10zu %12.3f %10.3f %9.3f %10.3f\n", "",
                  point.n, point.species, point.reactions, point.compile_ms,
                  point.lint_ms, point.sim_ms, point.verify_ms);
      sweep.points.push_back(point);
    }
    std::printf("\n");
    sweeps.push_back(std::move(sweep));
  }

  const char* path_env = std::getenv("MRSC_BENCH_SCALE_JSON");
  const std::string path = path_env ? path_env : "BENCH_scale.json";
  std::string json = "{\n  \"benchmark\": \"scenario_scale\",\n"
                     "  \"generators\": [\n";
  for (std::size_t g = 0; g < sweeps.size(); ++g) {
    json += "  {\"generator\": \"" + sweeps[g].generator +
            "\", \"points\": [\n";
    for (std::size_t p = 0; p < sweeps[g].points.size(); ++p) {
      json += format_point(sweeps[g].points[p]);
      json += p + 1 < sweeps[g].points.size() ? ",\n" : "\n";
    }
    json += "  ]}";
    json += g + 1 < sweeps.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << json;
  std::printf("report written to %s\n", path.c_str());
  return 0;
}
