// Static analyzer (lint/) tests.
//
// Three layers, mirroring the subsystem's contract:
//   1. every built-in design lints clean under -Werror at both opt levels
//      (the analyzer must not cry wolf on the designs the dynamic oracles
//      certify elsewhere);
//   2. for every check, a deliberately corrupted variant of a clean design
//      trips exactly the documented diagnostic id (the analyzer must not
//      stay silent on the defect class it owns);
//   3. the static-vs-dynamic cross-oracle (verify/lint_oracle.hpp) holds
//      over a seed sweep of generated cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "compile/passes.hpp"
#include "core/network.hpp"
#include "lint/lint.hpp"
#include "tools/builtin_designs.hpp"
#include "util/json.hpp"
#include "verify/generator.hpp"
#include "verify/lint_oracle.hpp"

namespace {

using namespace mrsc;

std::vector<std::string> design_names() {
  std::vector<std::string> names;
  std::string text = tools::builtin_design_names();
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    std::string name = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    while (!name.empty() && name.front() == ' ') name.erase(0, 1);
    if (!name.empty()) names.push_back(name);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return names;
}

tools::BuiltDesign build(const std::string& name,
                         compile::OptLevel opt = compile::OptLevel::kO0) {
  compile::CompileOptions options;
  options.opt = opt;
  return tools::build_design(name, options);
}

lint::LintInput input_for(const tools::BuiltDesign& design,
                          const std::string& name) {
  lint::LintInput input =
      lint::LintInput::from_design(*design.network, design.info, name);
  input.composition = design.composition.get();
  return input;
}

// --- layer 1: clean designs stay clean ------------------------------------

TEST(Lint, AllBuiltinDesignsCleanWithWerrorAtO0) {
  for (const std::string& name : design_names()) {
    const tools::BuiltDesign design = build(name);
    const lint::LintReport report = lint::run_lint(input_for(design, name));
    EXPECT_TRUE(report.clean(/*werror=*/true))
        << name << " at -O0:\n" << report.to_text();
  }
}

TEST(Lint, AllBuiltinDesignsCleanWithWerrorAtO1) {
  for (const std::string& name : design_names()) {
    const tools::BuiltDesign design = build(name, compile::OptLevel::kO1);
    const lint::LintReport report = lint::run_lint(input_for(design, name));
    EXPECT_TRUE(report.clean(/*werror=*/true))
        << name << " at -O1:\n" << report.to_text();
  }
}

TEST(Lint, CascadeEarnsIssCompositionCertificate) {
  const tools::BuiltDesign design = build("cascade");
  ASSERT_NE(design.composition, nullptr);
  const lint::LintReport report = lint::run_lint(input_for(design, "cascade"));
  EXPECT_TRUE(report.has("LINT-ISS-00")) << report.to_text();
  EXPECT_NE(report.to_text().find("arXiv:2506.12056"), std::string::npos);
}

TEST(Lint, MonolithicDesignSkipsIssCheck) {
  const tools::BuiltDesign design = build("counter");
  const lint::LintReport report = lint::run_lint(input_for(design, "counter"));
  bool skipped = false;
  for (const std::string& entry : report.checks_skipped) {
    if (entry.find("iss-composition") != std::string::npos) skipped = true;
  }
  EXPECT_TRUE(skipped) << report.to_text();
}

// --- layer 2: one seeded corruption per check -----------------------------

TEST(LintCorruption, LeakyStateTripsConservation) {
  tools::BuiltDesign design = build("delay");
  const lint::LintInput input = input_for(design, "delay");
  const auto state = input.roots_with(compile::PortRole::kState);
  ASSERT_FALSE(state.empty());
  // A slow leak out of a register species breaks the color-triple total
  // that conserves the stored value.
  design.network->add({{state.front(), 1}}, {}, core::RateCategory::kSlow,
                      0.0, "corrupt.leak");
  const lint::LintReport report = lint::run_lint(input);
  EXPECT_TRUE(report.has("LINT-CONS-01")) << report.to_text();
}

TEST(LintCorruption, SameGateReadWriteTripsPhaseRace) {
  tools::BuiltDesign design = build("delay");
  lint::LintInput input = input_for(design, "delay");
  ASSERT_TRUE(input.tags_valid);
  // The emission tags must cover the whole reaction tail for the appended
  // reactions to line up with the tags we push below.
  ASSERT_EQ(input.first_tagged + input.tags.size(),
            design.network->reaction_count());
  const auto clocks = input.roots_with(compile::PortRole::kClock);
  ASSERT_FALSE(clocks.empty());
  const core::SpeciesId gate = clocks.front();

  core::ReactionNetwork& network = *design.network;
  const core::SpeciesId source = network.add_species("race_source", 1.0);
  const core::SpeciesId shared = network.add_species("race_victim", 0.0);
  const core::SpeciesId sink = network.add_species("race_sink", 0.0);
  // Fill and drain the same species under the same clock gate: the read
  // can observe a half-deposited value.
  network.add({{gate, 1}, {source, 1}}, {{gate, 1}, {shared, 1}},
              core::RateCategory::kSlow, 0.0, "corrupt.write");
  network.add({{gate, 1}, {shared, 1}}, {{gate, 1}, {sink, 1}},
              core::RateCategory::kSlow, 0.0, "corrupt.read");
  input.tags.push_back(compile::ReactionTag::kGatedTransfer);
  input.tags.push_back(compile::ReactionTag::kGatedTransfer);

  const lint::LintReport report = lint::run_lint(input);
  EXPECT_TRUE(report.has("LINT-RACE-01")) << report.to_text();
}

TEST(LintCorruption, SelfReplicatingCatalystTripsStoichScreen) {
  tools::BuiltDesign design = build("counter");
  const lint::LintInput input = input_for(design, "counter");
  core::ReactionNetwork& network = *design.network;
  const core::SpeciesId cat = network.add_species("auto_cat", 1.0);
  network.add({{cat, 1}}, {{cat, 2}}, core::RateCategory::kSlow, 0.0,
              "corrupt.autocatalysis");
  const lint::LintReport report = lint::run_lint(input);
  EXPECT_TRUE(report.has("LINT-RACE-02")) << report.to_text();
}

TEST(LintCorruption, CollapsedRatePolicyTripsTimescale) {
  tools::BuiltDesign design = build("counter");
  core::RatePolicy policy = design.network->rate_policy();
  policy.k_fast = 1e-6 * policy.k_slow;  // fast no faster than slow
  design.network->set_rate_policy(policy);
  const lint::LintReport report =
      lint::run_lint(input_for(design, "counter"));
  EXPECT_TRUE(report.has("LINT-TIME-01")) << report.to_text();
}

TEST(LintCorruption, ThinMarginWarnsTimescale) {
  const tools::BuiltDesign design = build("counter");
  lint::LintOptions options;
  // Pin the thresholds around the design's actual ratio so the warning
  // band is exercised regardless of the default policy's numbers.
  options.timescale_error_ratio = 1e-9;
  options.timescale_warn_ratio = 1e9;
  const lint::LintReport report =
      lint::run_lint(input_for(design, "counter"), options);
  EXPECT_TRUE(report.has("LINT-TIME-02")) << report.to_text();
}

TEST(LintCorruption, RailCoProductionTripsDualRail) {
  tools::BuiltDesign design = build("first_difference");
  core::ReactionNetwork& network = *design.network;
  core::SpeciesId pos = core::SpeciesId::invalid();
  core::SpeciesId neg = core::SpeciesId::invalid();
  for (std::size_t s = 0; s < network.species_count(); ++s) {
    const core::SpeciesId id{static_cast<core::SpeciesId::underlying_type>(s)};
    const std::string& name = network.species_name(id);
    if (name.size() < 2 || name.substr(name.size() - 2) != "_p") continue;
    const auto other =
        network.find_species(name.substr(0, name.size() - 2) + "_n");
    if (!other) continue;
    pos = id;
    neg = *other;
    break;
  }
  ASSERT_NE(pos, core::SpeciesId::invalid());
  // One reaction depositing into both rails manufactures matched garbage.
  network.add({}, {{pos, 1}, {neg, 1}}, core::RateCategory::kFast, 0.0,
              "corrupt.copair");
  const lint::LintReport report =
      lint::run_lint(input_for(design, "first_difference"));
  EXPECT_TRUE(report.has("LINT-RAIL-01")) << report.to_text();
}

TEST(LintCorruption, UnconservedRailPairWarnsDualRail) {
  tools::BuiltDesign design = build("first_difference");
  core::ReactionNetwork& network = *design.network;
  const core::SpeciesId pos = network.add_species("drift_p", 0.0);
  network.add_species("drift_n", 0.0);
  // drift_p grows monotonically, so no conservation law can cover it, and
  // the pair is not an input port (those are exempt).
  network.add({}, {{pos, 1}}, core::RateCategory::kSlow, 0.0,
              "corrupt.drift");
  const lint::LintReport report =
      lint::run_lint(input_for(design, "first_difference"));
  EXPECT_TRUE(report.has("LINT-RAIL-02")) << report.to_text();
}

TEST(LintCorruption, OrphanAndGhostSpeciesTripReachability) {
  tools::BuiltDesign design = build("counter");
  core::ReactionNetwork& network = *design.network;
  network.add_species("orphan", 1.0);  // in no reaction at all
  const core::SpeciesId ghost = network.add_species("ghost", 0.0);
  const core::SpeciesId ghost_out = network.add_species("ghost_out", 0.0);
  // ghost is never produced and starts at zero, so this can never fire.
  network.add({{ghost, 1}}, {{ghost_out, 1}}, core::RateCategory::kSlow, 0.0,
              "corrupt.ghost");
  const lint::LintReport report =
      lint::run_lint(input_for(design, "counter"));
  EXPECT_TRUE(report.has("LINT-DEAD-01")) << report.to_text();
  EXPECT_TRUE(report.has("LINT-DEAD-02")) << report.to_text();
  EXPECT_TRUE(report.has("LINT-STUCK-01")) << report.to_text();
}

TEST(LintCorruption, UndeclaredCrossLayerCouplingTripsIss) {
  tools::BuiltDesign design = build("cascade");
  ASSERT_NE(design.composition, nullptr);
  const auto& layers = design.composition->layers;
  ASSERT_GE(layers.size(), 2u);
  const core::SpeciesId a{static_cast<core::SpeciesId::underlying_type>(
      layers[0].first_species)};
  const core::SpeciesId b{static_cast<core::SpeciesId::underlying_type>(
      layers[1].first_species)};
  // A reaction touching both layers without a declared interface breaks
  // the retroactivity-free structure the ISS certificate relies on.
  design.network->add({{a, 1}}, {{b, 1}}, core::RateCategory::kSlow, 0.0,
                      "corrupt.sneak_path");
  const lint::LintReport report =
      lint::run_lint(input_for(design, "cascade"));
  EXPECT_TRUE(report.has("LINT-ISS-01")) << report.to_text();
  EXPECT_FALSE(report.has("LINT-ISS-00")) << report.to_text();
}

// --- plumbing: filters, errors, JSON --------------------------------------

TEST(Lint, UnknownCheckNameThrows) {
  const tools::BuiltDesign design = build("counter");
  lint::LintOptions options;
  options.checks = {"banana"};
  EXPECT_THROW(
      { (void)lint::run_lint(input_for(design, "counter"), options); },
      std::invalid_argument);
}

TEST(Lint, CheckFilterRunsOnlySelected) {
  const tools::BuiltDesign design = build("counter");
  lint::LintOptions options;
  options.checks = {"timescale"};
  const lint::LintReport report =
      lint::run_lint(input_for(design, "counter"), options);
  ASSERT_EQ(report.checks_run.size(), 1u);
  EXPECT_EQ(report.checks_run.front(), "timescale");
}

TEST(Lint, JsonReportCarriesSchemaKeys) {
  const tools::BuiltDesign design = build("cascade");
  const lint::LintReport report = lint::run_lint(input_for(design, "cascade"));
  const util::json::Value json = report.to_value();
  for (const char* key : {"design", "checks_run", "checks_skipped", "errors",
                          "warnings", "diagnostics"}) {
    EXPECT_NE(json.find(key), nullptr) << "missing " << key;
  }
  const util::json::Value* diagnostics = json.find("diagnostics");
  ASSERT_NE(diagnostics, nullptr);
  ASSERT_FALSE(diagnostics->as_array().empty());
  for (const util::json::Value& diagnostic : diagnostics->as_array()) {
    EXPECT_NE(diagnostic.find("severity"), nullptr) << diagnostic.dump();
  }
}

// Escaped names, notes and every severity survive the one JSON writer: the
// dumped report parses back to the same fields.
TEST(Lint, JsonReportRoundTripsEscapedFieldsAndEverySeverity) {
  lint::LintReport report;
  report.design = "quote\"back\\slash\ttab\x01";
  report.checks_run = {"race", "conservation"};
  report.checks_skipped = {"composition: no record"};
  report.diagnostics.push_back(
      {"LINT-RACE-01", lint::Severity::kError, "race", "a \"msg\"", {"n1"}});
  report.diagnostics.push_back(
      {"LINT-DEAD-01", lint::Severity::kWarning, "dead", "m", {}});
  report.diagnostics.push_back(
      {"LINT-CONS-01", lint::Severity::kInfo, "conservation", "x", {"a", "b"}});

  const auto strings = [](const util::json::Value& array) {
    std::vector<std::string> out;
    for (const util::json::Value& item : array.as_array()) {
      out.push_back(item.as_string());
    }
    return out;
  };
  const util::json::Value parsed = util::json::parse(report.to_value().dump());
  EXPECT_EQ(parsed.get_string("design", ""), report.design);
  EXPECT_EQ(strings(*parsed.find("checks_run")), report.checks_run);
  EXPECT_EQ(strings(*parsed.find("checks_skipped")), report.checks_skipped);
  EXPECT_EQ(parsed.get_u64("errors", 0), 1u);
  EXPECT_EQ(parsed.get_u64("warnings", 0), 1u);
  const std::vector<util::json::Value>& diagnostics =
      parsed.find("diagnostics")->as_array();
  ASSERT_EQ(diagnostics.size(), report.diagnostics.size());
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const lint::Diagnostic& d = report.diagnostics[i];
    EXPECT_EQ(diagnostics[i].get_string("id", ""), d.id);
    EXPECT_EQ(diagnostics[i].get_string("severity", ""),
              lint::to_string(d.severity));
    EXPECT_EQ(diagnostics[i].get_string("check", ""), d.check);
    EXPECT_EQ(diagnostics[i].get_string("message", ""), d.message);
    EXPECT_EQ(strings(*diagnostics[i].find("notes")), d.notes);
  }
}

// --- layer 3: static-vs-dynamic cross-oracle ------------------------------

TEST(LintCrossOracle, HoldsOverSeedSweep) {
  const verify::CaseKind kinds[] = {
      verify::CaseKind::kSyncCircuit, verify::CaseKind::kDualRailCircuit,
      verify::CaseKind::kFsm, verify::CaseKind::kCounter};
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    for (const verify::CaseKind kind : kinds) {
      const verify::GeneratedCase c = verify::generate_case(kind, seed);
      const std::vector<verify::Violation> violations =
          verify::check_lint_cross(c);
      EXPECT_TRUE(violations.empty())
          << to_string(kind) << " seed " << seed << ": "
          << (violations.empty() ? std::string{} : violations.front().detail);
    }
  }
}

}  // namespace
