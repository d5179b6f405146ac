// Compile-pipeline benchmark: what does -O1 buy on every built-in design?
//
// For each design the bench compiles at -O0 and -O1 and reports the
// species/reaction deltas plus per-pass wall time; two extra rows show the
// optimizations that need a caller promise or a raw network to fire:
//
//   * first_difference with --assume-zero x_n: the unused negative input
//     rail's whole cone is dead-species-eliminated.
//   * a raw rate-tiled network (the "write the same reaction k times to
//     multiply its rate" idiom): coalesce-duplicates folds the copies into
//     one reaction with a summed rate multiplier.
//
// Writes BENCH_compile.json (path overridable via MRSC_BENCH_COMPILE_JSON).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "compile/passes.hpp"
#include "compile/report.hpp"
#include "core/builder.hpp"
#include "dsp/counter.hpp"
#include "dsp/filters.hpp"
#include "fsm/fsm.hpp"
#include "tools/cli_flags.hpp"
#include "util/json.hpp"

namespace {

using namespace mrsc;

struct Row {
  std::string name;
  compile::CompileReport report;
};

compile::CompileOptions o1_options(compile::CompileReport* report) {
  compile::CompileOptions options;
  options.opt = compile::OptLevel::kO1;
  options.report = report;
  return options;
}

Row compile_builtin(const std::string& name) {
  Row row;
  row.name = name;
  const compile::CompileOptions options = o1_options(&row.report);
  if (name == "counter") {
    core::ReactionNetwork net;
    (void)dsp::build_counter(net, dsp::CounterSpec{}, options);
  } else if (name == "seqdet_101") {
    core::ReactionNetwork net;
    (void)fsm::build_fsm(net, fsm::make_sequence_detector("101"), options);
  } else if (name == "moving_average") {
    (void)dsp::make_moving_average({}, options);
  } else if (name == "iir_biquad") {
    (void)dsp::make_second_order_iir({}, options);
  } else if (name == "first_difference") {
    (void)dsp::make_first_difference({}, options);
  } else if (name == "delay_4") {
    (void)dsp::make_delay_line(4, {}, options);
  }
  row.report.design = name;
  return row;
}

Row compile_assume_zero_first_difference() {
  Row row;
  row.name = "first_difference+assume_zero_x_n";
  compile::CompileOptions options = o1_options(&row.report);
  options.assume_zero_inputs = {"x_n"};
  (void)dsp::make_first_difference({}, options);
  row.report.design = row.name;
  return row;
}

// The rate-tiling idiom: each indicator generator is written `tiles` times
// so it fires at `tiles` times the slow rate. Coalescing recovers one
// reaction per generator with rate_multiplier == tiles.
Row compile_rate_tiled_raw(std::size_t members, std::size_t tiles) {
  Row row;
  row.name = "raw_rate_tiled";
  core::ReactionNetwork net;
  core::NetworkBuilder builder(net);
  std::vector<core::SpeciesId> roots;
  for (std::size_t m = 0; m < members; ++m) {
    const std::string member = "M" + std::to_string(m);
    const std::string ind = "I" + std::to_string(m);
    builder.species(member, 1.0);
    builder.species(ind, 0.0);
    for (std::size_t t = 0; t < tiles; ++t) {
      builder.reaction("0 -> " + ind, core::RateCategory::kSlow,
                       member + ".gen");
    }
    builder.reaction(ind + " + " + member + " -> " + member,
                     core::RateCategory::kFast, member + ".absorb");
    roots.push_back(*net.find_species(member));
  }
  auto result = compile::optimize_network(net, roots);
  row.report = std::move(result.report);
  row.report.design = row.name;
  return row;
}

void print_row(const Row& row) {
  const auto& b = row.report.before;
  const auto& a = row.report.after;
  std::printf("  %-34s %4zu -> %-4zu %4zu -> %-4zu  %8.3fms\n",
              row.name.c_str(), b.species, a.species, b.reactions,
              a.reactions, row.report.pass_seconds * 1e3);
  for (const compile::PassStats& pass : row.report.passes) {
    if (!pass.changed) continue;
    std::printf("      %-30s %4zu -> %-4zu %4zu -> %-4zu\n",
                pass.name.c_str(), pass.species_before, pass.species_after,
                pass.reactions_before, pass.reactions_after);
  }
}

}  // namespace

int main() {
  std::printf("== compile pipeline: -O1 deltas per design\n\n");
  std::printf("  %-34s %12s %12s %10s\n", "design", "species",
              "reactions", "passes");

  std::vector<Row> rows;
  for (const char* name : {"moving_average", "iir_biquad", "first_difference",
                           "delay_4", "counter", "seqdet_101"}) {
    rows.push_back(compile_builtin(name));
  }
  rows.push_back(compile_assume_zero_first_difference());
  rows.push_back(compile_rate_tiled_raw(6, 4));
  for (const Row& row : rows) print_row(row);

  std::size_t reduced = 0;
  for (const Row& row : rows) {
    if (row.report.after.reactions < row.report.before.reactions) ++reduced;
  }
  std::printf("\n%zu of %zu cases shrank their reaction count.\n", reduced,
              rows.size());

  const char* path_env = std::getenv("MRSC_BENCH_COMPILE_JSON");
  const std::string path = path_env ? path_env : "BENCH_compile.json";
  util::json::Value designs;
  for (const Row& row : rows) designs.array().push_back(row.report.to_value());
  util::json::Value json;
  json.set("benchmark", util::json::Value("compile_pipeline"));
  json.set("designs", std::move(designs));
  if (!tools::write_file("bench_compile", path, json.dump() + "\n",
                         "report")) {
    return 1;
  }
  return 0;
}
