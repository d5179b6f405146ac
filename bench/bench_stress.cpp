// Robustness-margin benchmark: how much rate perturbation does each design
// tolerate before its logic output diverges from the exact reference?
//
// For one registry design per family (counter, single-rail circuit, FSM,
// self-timed chain) this bench sweeps three structured fault kinds
// (global rate jitter, clock phase skew, per-species leaks) over a coarse
// intensity grid and reports the robustness margin — the largest intensity
// at which every seeded trial still matches the unperturbed oracle. This is
// the quantitative counterpart of the paper's "any rates work as long as
// fast >> slow" claim: jitter margins are wide, leak margins are narrow.
//
// Writes BENCH_stress.json (path overridable via MRSC_BENCH_STRESS_JSON).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "stress/campaign.hpp"
#include "stress/fault.hpp"

namespace {

using namespace mrsc;

struct Row {
  stress::CampaignResult result;
  std::size_t mismatches = 0;
  std::size_t sim_failures = 0;
  std::size_t recovered = 0;
};

Row run(const char* design, stress::FaultKind fault,
        std::vector<double> grid) {
  stress::CampaignConfig config;
  config.design = design;
  config.fault = fault;
  config.intensities = std::move(grid);
  config.trials = 2;
  config.threads = 0;  // all cores; results are thread-count invariant
  Row row;
  row.result = stress::run_campaign(config);
  for (const stress::IntensityResult& point : row.result.intensities) {
    row.mismatches += point.mismatch;
    row.sim_failures += point.sim_failure;
    row.recovered += point.recovered;
  }
  return row;
}

std::string trim_newline(std::string text) {
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

}  // namespace

int main() {
  std::printf("== robustness margins: fault intensity each design survives\n\n");
  std::printf("  %-18s %-12s %10s %6s %10s %8s %5s\n", "design", "fault",
              "margin", "found", "mismatches", "simfail", "recov");

  // Coarse grids keep the bench under a minute: jitter/skew are log-normal
  // sigmas, leak intensity is the leak rate as a fraction of k_slow.
  const std::vector<double> jitter_grid = {0.05, 0.1, 0.2, 0.4};
  const std::vector<double> leak_grid = {0.0001, 0.0003, 0.001, 0.003};

  std::vector<Row> rows;
  for (const char* design :
       {"counter", "moving_average", "seqdet", "delay_chain(2)"}) {
    rows.push_back(run(design, stress::FaultKind::kRateJitter, jitter_grid));
    rows.push_back(run(design, stress::FaultKind::kClockSkew, jitter_grid));
    rows.push_back(run(design, stress::FaultKind::kLeak, leak_grid));
  }

  for (const Row& row : rows) {
    std::printf("  %-18s %-12s %10.4g %6s %10zu %8zu %5zu\n",
                row.result.design.c_str(),
                stress::to_string(row.result.fault), row.result.margin,
                row.result.margin_found ? "yes" : "no", row.mismatches,
                row.sim_failures, row.recovered);
  }

  std::size_t with_margin = 0;
  for (const Row& row : rows) {
    if (row.result.margin_found) ++with_margin;
  }
  std::printf("\n%zu of %zu sweeps hold a nonzero robustness margin.\n",
              with_margin, rows.size());

  const char* path_env = std::getenv("MRSC_BENCH_STRESS_JSON");
  const std::string path = path_env ? path_env : "BENCH_stress.json";
  std::string json = "{\n  \"benchmark\": \"stress_margins\",\n"
                     "  \"sweeps\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json += trim_newline(rows[i].result.to_json());
    json += i + 1 < rows.size() ? ",\n" : "\n";
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
