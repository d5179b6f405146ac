#include "lint/lint.hpp"

#include <algorithm>
#include <stdexcept>

#include "lint/checks.hpp"

namespace mrsc::lint {

LintInput LintInput::from_design(const core::ReactionNetwork& network,
                                 const compile::DesignInfo& info,
                                 std::string design_name) {
  LintInput input;
  input.network = &network;
  input.design = std::move(design_name);
  input.roots = info.roots;
  input.tags = info.tags;
  input.first_tagged = info.first_tagged;
  input.tags_valid = info.tags_valid;
  return input;
}

std::vector<core::SpeciesId> LintInput::roots_with(
    compile::PortRole role) const {
  std::vector<core::SpeciesId> out;
  for (const auto& [id, r] : roots) {
    if (r == role) out.push_back(id);
  }
  return out;
}

std::vector<std::unique_ptr<Check>> all_checks() {
  std::vector<std::unique_ptr<Check>> checks;
  checks.push_back(make_conservation_check());
  checks.push_back(make_phase_race_check());
  checks.push_back(make_timescale_check());
  checks.push_back(make_dual_rail_check());
  checks.push_back(make_reachability_check());
  checks.push_back(make_iss_check());
  return checks;
}

std::vector<std::string> check_names() {
  std::vector<std::string> names;
  for (const auto& check : all_checks()) names.emplace_back(check->name());
  return names;
}

LintReport run_lint(const LintInput& input, const LintOptions& options,
                    std::stop_token stop) {
  if (input.network == nullptr) {
    throw std::invalid_argument("run_lint: input.network is null");
  }
  const auto checks = all_checks();
  for (const std::string& wanted : options.checks) {
    const bool known =
        std::any_of(checks.begin(), checks.end(),
                    [&](const auto& c) { return wanted == c->name(); });
    if (!known) {
      throw std::invalid_argument("run_lint: unknown check '" + wanted + "'");
    }
  }

  LintReport report;
  report.design = input.design;
  for (const auto& check : checks) {
    if (stop.stop_requested()) break;
    if (!options.checks.empty() &&
        std::find(options.checks.begin(), options.checks.end(),
                  check->name()) == options.checks.end()) {
      continue;
    }
    const std::string skip_reason = check->run(input, report);
    if (skip_reason.empty()) {
      report.checks_run.emplace_back(check->name());
    } else {
      report.checks_skipped.push_back(std::string(check->name()) + ": " +
                                      skip_reason);
    }
  }
  return report;
}

}  // namespace mrsc::lint
