#include "verify/golden.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/decode.hpp"
#include "core/network.hpp"
#include "dsp/counter.hpp"
#include "dsp/filters.hpp"
#include "fsm/fsm.hpp"
#include "util/strings.hpp"

namespace mrsc::verify {
namespace {

using util::format_17g;

/// Drives one example design through its decoder, one row per cycle: the
/// stimulus (when `stimulus_column` names it), then the decoded columns.
/// Integers compare exactly; continuous outputs within 1e-5, far above the
/// integrator tolerance (rel_tol 1e-6) and libm jitter, far below the
/// molecular accuracy (~1e-2) whose regressions these files exist to catch.
GoldenTrace decoded_trace(std::string name, const std::string& stimulus_column,
                          const core::ReactionNetwork& network,
                          const analysis::Decoder& decoder,
                          std::span<const double> stimulus) {
  sim::OdeOptions ode;
  ode.t_end = decoder.t_end(network.rate_policy(), stimulus.size());
  const analysis::DecodedRun run =
      analysis::run_decoded(network, ode, decoder, stimulus);
  GoldenTrace trace;
  trace.name = std::move(name);
  trace.tolerance = decoder.exact ? 0.0 : 1e-5;
  if (!stimulus_column.empty()) trace.columns = {stimulus_column};
  trace.columns.insert(trace.columns.end(), decoder.columns.begin(),
                       decoder.columns.end());
  for (std::size_t n = 0; n < stimulus.size(); ++n) {
    std::vector<double> row;
    if (!stimulus_column.empty()) row.push_back(stimulus[n]);
    for (const std::vector<double>& column : run.outputs) {
      row.push_back(column[n]);
    }
    trace.rows.push_back(std::move(row));
  }
  return trace;
}

GoldenTrace counter_trace() {
  // Mirrors examples/counter.cpp: 3-bit counter starting at 2, 14 increments.
  core::ReactionNetwork net;
  dsp::CounterSpec spec;
  spec.bits = 3;
  spec.initial_value = 2;
  const analysis::CounterDecoder decoder(spec, dsp::build_counter(net, spec));
  return decoded_trace("counter", "", net, decoder,
                       std::vector<double>(14, 1.0));
}

GoldenTrace moving_average_trace() {
  // Mirrors examples/moving_average.cpp: y[n] = (x[n] + x[n-1]) / 2.
  auto design = dsp::make_moving_average();
  const std::vector<double> samples = {1.0, 1.0, 2.0, 0.0, 0.5, 1.5,
                                       1.5, 0.0, 0.0, 1.0, 1.0, 1.0};
  return decoded_trace("moving_average", "x", *design.network,
                       analysis::CircuitDecoder::clocked(
                           design.circuit, dsp::reference_moving_average),
                       samples);
}

GoldenTrace sequence_detector_trace() {
  // Mirrors examples/sequence_detector.cpp: the "101" KMP automaton.
  const fsm::FsmSpec spec = fsm::make_sequence_detector("101");
  core::ReactionNetwork net;
  const analysis::FsmDecoder decoder(spec, fsm::build_fsm(net, spec));
  const std::vector<double> bits = {1, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1};
  return decoded_trace("sequence_detector", "bit", net, decoder, bits);
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
