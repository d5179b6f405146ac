#include "verify/golden.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/harness.hpp"
#include "core/network.hpp"
#include "dsp/counter.hpp"
#include "dsp/filters.hpp"
#include "fsm/fsm.hpp"
#include "util/strings.hpp"

namespace mrsc::verify {
namespace {

using util::format_17g;

GoldenTrace counter_trace() {
  // Mirrors examples/counter.cpp: 3-bit counter starting at 2, 14 increments.
  core::ReactionNetwork net;
  dsp::CounterSpec spec;
  spec.bits = 3;
  spec.initial_value = 2;
  const dsp::CounterHandles counter = dsp::build_counter(net, spec);

  constexpr std::size_t kIncrements = 14;
  analysis::ClockedRunOptions options;
  options.ode.t_end =
      analysis::suggest_t_end(spec.clock, net.rate_policy(), kIncrements);
  const auto run = analysis::run_counter(net, counter, kIncrements, options);

  GoldenTrace trace;
  trace.name = "counter";
  trace.tolerance = 0.0;  // decoded integer values: exact
  trace.columns = {"value"};
  for (const std::uint64_t v : run.values) {
    trace.rows.push_back({static_cast<double>(v)});
  }
  return trace;
}

GoldenTrace moving_average_trace() {
  // Mirrors examples/moving_average.cpp: y[n] = (x[n] + x[n-1]) / 2.
  auto design = dsp::make_moving_average();
  const std::vector<double> samples = {1.0, 1.0, 2.0, 0.0, 0.5, 1.5,
                                       1.5, 0.0, 0.0, 1.0, 1.0, 1.0};
  analysis::ClockedRunOptions options;
  options.ode.t_end = analysis::suggest_t_end(
      {}, design.network->rate_policy(), samples.size());
  const auto run = analysis::run_clocked_circuit(
      *design.network, design.circuit, "x", samples, "y", options);

  GoldenTrace trace;
  trace.name = "moving_average";
  // Continuous outputs: 1e-5 is far above the integrator tolerance (rel_tol
  // 1e-6) and cross-platform libm jitter, far below the molecular accuracy
  // (~1e-2) whose regressions this file exists to catch.
  trace.tolerance = 1e-5;
  trace.columns = {"x", "y"};
  for (std::size_t n = 0; n < samples.size(); ++n) {
    trace.rows.push_back({samples[n], run.outputs[n]});
  }
  return trace;
}

GoldenTrace sequence_detector_trace() {
  // Mirrors examples/sequence_detector.cpp: the "101" KMP automaton.
  const fsm::FsmSpec spec = fsm::make_sequence_detector("101");
  core::ReactionNetwork net;
  const fsm::FsmHandles machine = fsm::build_fsm(net, spec);
  const std::vector<std::size_t> bits = {1, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1};
  analysis::ClockedRunOptions options;
  options.ode.t_end =
      analysis::suggest_t_end(spec.clock, net.rate_policy(), bits.size());
  const auto run = analysis::run_fsm(net, machine, bits, options);

  GoldenTrace trace;
  trace.name = "sequence_detector";
  trace.tolerance = 0.0;  // decoded states / output symbols: exact
  trace.columns = {"bit", "state", "output"};
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const double out = run.outputs[i] == fsm::kNoOutput
                           ? -1.0
                           : static_cast<double>(run.outputs[i]);
    trace.rows.push_back({static_cast<double>(bits[i]),
                          static_cast<double>(run.states[i]), out});
  }
  return trace;
}

}  // namespace

std::string serialize_golden(const GoldenTrace& trace) {
  std::ostringstream out;
  out << "golden v1\n";
  out << "name " << trace.name << "\n";
  out << "tolerance " << format_17g(trace.tolerance) << "\n";
  out << "columns";
  for (const std::string& c : trace.columns) out << ' ' << c;
  out << "\n";
  for (const auto& row : trace.rows) {
    out << "row";
    for (const double v : row) out << ' ' << format_17g(v);
    out << "\n";
  }
  out << "end\n";
  return out.str();
}

GoldenTrace parse_golden(std::string_view text) {
  GoldenTrace trace;
  std::istringstream in{std::string(text)};
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  bool saw_end = false;
  auto fail = [&](const std::string& what) {
    throw std::runtime_error("golden parse error at line " +
                             std::to_string(line_no) + ": " + what);
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (!saw_header) {
      std::string version;
      fields >> version;
      if (tag != "golden" || version != "v1") fail("expected 'golden v1'");
      saw_header = true;
      continue;
    }
    if (tag == "name") {
      fields >> trace.name;
    } else if (tag == "tolerance") {
      if (!(fields >> trace.tolerance)) fail("bad tolerance");
    } else if (tag == "columns") {
      std::string col;
      while (fields >> col) trace.columns.push_back(col);
      if (trace.columns.empty()) fail("no columns");
    } else if (tag == "row") {
      std::vector<double> row;
      double v = 0.0;
      while (fields >> v) row.push_back(v);
      if (row.size() != trace.columns.size()) {
        fail("row has " + std::to_string(row.size()) + " values, expected " +
             std::to_string(trace.columns.size()));
      }
      trace.rows.push_back(std::move(row));
    } else if (tag == "end") {
      saw_end = true;
      break;
    } else {
      fail("unknown tag '" + tag + "'");
    }
  }
  if (!saw_header) fail("missing 'golden v1' header");
  if (!saw_end) fail("missing 'end'");
  if (trace.name.empty()) fail("missing name");
  return trace;
}

void save_golden(const GoldenTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write golden file: " + path);
  }
  out << serialize_golden(trace);
}

GoldenTrace load_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read golden file: " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_golden(text.str());
}

std::optional<std::string> compare_golden(
    const GoldenTrace& golden, const std::vector<std::vector<double>>& rows) {
  if (rows.size() != golden.rows.size()) {
    return "row count " + std::to_string(rows.size()) + " != golden " +
           std::to_string(golden.rows.size());
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != golden.columns.size()) {
      return "row " + std::to_string(r) + " has " +
             std::to_string(rows[r].size()) + " values, expected " +
             std::to_string(golden.columns.size());
    }
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      if (std::abs(rows[r][c] - golden.rows[r][c]) > golden.tolerance) {
        return golden.name + " row " + std::to_string(r) + " column '" +
               golden.columns[c] + "': " + format_17g(rows[r][c]) +
               " vs golden " + format_17g(golden.rows[r][c]) +
               " (tolerance " + format_17g(golden.tolerance) + ")";
      }
    }
  }
  return std::nullopt;
}

std::vector<GoldenTrace> compute_reference_traces() {
  return {counter_trace(), moving_average_trace(), sequence_detector_trace()};
}

}  // namespace mrsc::verify
