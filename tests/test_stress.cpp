// Fault injection and perturbation campaigns: every FaultSpec kind is
// applied to a small network and checked for effect and determinism, and a
// miniature campaign exercises the margin computation end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/io.hpp"
#include "core/network.hpp"
#include "sim/ode.hpp"
#include "stress/campaign.hpp"
#include "stress/fault.hpp"
#include "util/json.hpp"

namespace mrsc::stress {
namespace {

using core::RateCategory;
using core::ReactionNetwork;

/// A: 1.0 -> B (slow), B -> C (fast), C -> 0 (custom); labels a/b/c.
ReactionNetwork mixed_network() {
  ReactionNetwork net;
  const core::SpeciesId a = net.add_species("A", 1.0);
  const core::SpeciesId b = net.add_species("B", 0.0);
  const core::SpeciesId c = net.add_species("C", 0.5);
  net.add({{a, 1}}, {{b, 1}}, RateCategory::kSlow, 0.0, "clk.a");
  net.add({{b, 1}}, {{c, 1}}, RateCategory::kFast, 0.0, "data.b");
  net.add({{c, 1}}, {}, RateCategory::kCustom, 2.0, "data.c");
  return net;
}

std::vector<double> multipliers(const ReactionNetwork& net) {
  std::vector<double> out;
  for (std::size_t r = 0; r < net.reaction_count(); ++r) {
    out.push_back(
        net.reaction(core::ReactionId(static_cast<std::uint32_t>(r)))
            .rate_multiplier());
  }
  return out;
}

TEST(FaultSpecs, RateJitterIsSeededAndDeterministic) {
  const ReactionNetwork net = mixed_network();
  const FaultSpec spec[] = {FaultSpec::rate_jitter(0.3, 11)};
  const FaultedNetwork a = apply_faults(net, spec);
  const FaultedNetwork b = apply_faults(net, spec);
  EXPECT_EQ(core::serialize_network(a.network),
            core::serialize_network(b.network));
  EXPECT_EQ(multipliers(a.network), multipliers(b.network));
  const FaultSpec other[] = {FaultSpec::rate_jitter(0.3, 12)};
  EXPECT_NE(multipliers(a.network),
            multipliers(apply_faults(net, other).network));
  // Every reaction was touched; the original is untouched.
  for (const double m : multipliers(a.network)) EXPECT_NE(m, 1.0);
  for (const double m : multipliers(net)) EXPECT_EQ(m, 1.0);
}

TEST(FaultSpecs, CategoryJitterOnlyTouchesItsCategory) {
  const ReactionNetwork net = mixed_network();
  const FaultSpec spec[] = {
      FaultSpec::category_jitter(RateCategory::kSlow, 0.3, 11)};
  const std::vector<double> m = multipliers(apply_faults(net, spec).network);
  EXPECT_NE(m[0], 1.0);  // the slow reaction
  EXPECT_EQ(m[1], 1.0);  // fast untouched
  EXPECT_EQ(m[2], 1.0);  // custom untouched
}

TEST(FaultSpecs, ClockSkewMatchesPrefixAndRejectsEmptyMatch) {
  const ReactionNetwork net = mixed_network();
  const FaultSpec spec[] = {FaultSpec::clock_skew(0.3, 11, "clk.")};
  const std::vector<double> m = multipliers(apply_faults(net, spec).network);
  EXPECT_NE(m[0], 1.0);
  EXPECT_EQ(m[1], 1.0);
  EXPECT_EQ(m[2], 1.0);
  const FaultSpec miss[] = {FaultSpec::clock_skew(0.3, 11, "nope.")};
  EXPECT_THROW((void)apply_faults(net, miss), std::invalid_argument);
}

TEST(FaultSpecs, ReactionJitterTargetsOneLabel) {
  const ReactionNetwork net = mixed_network();
  const FaultSpec spec[] = {FaultSpec::reaction_jitter("data.b", 0.3, 11)};
  const std::vector<double> m = multipliers(apply_faults(net, spec).network);
  EXPECT_EQ(m[0], 1.0);
  EXPECT_NE(m[1], 1.0);
  EXPECT_EQ(m[2], 1.0);
  const FaultSpec miss[] = {FaultSpec::reaction_jitter("banana", 0.3, 11)};
  EXPECT_THROW((void)apply_faults(net, miss), std::invalid_argument);
}

TEST(FaultSpecs, LeakAddsOneDecayPerMatchingSpecies) {
  const ReactionNetwork net = mixed_network();
  const FaultSpec all[] = {FaultSpec::leak(0.01)};
  const FaultedNetwork leaked = apply_faults(net, all);
  EXPECT_EQ(leaked.network.reaction_count(), net.reaction_count() + 3);
  const core::Reaction& leak = leaked.network.reaction(
      core::ReactionId(static_cast<std::uint32_t>(net.reaction_count())));
  EXPECT_EQ(leak.label(), "stress.leak.A");
  EXPECT_TRUE(leak.products().empty());
  EXPECT_DOUBLE_EQ(leak.custom_rate(),
                   0.01 * net.rate_policy().k_slow);
  const FaultSpec some[] = {FaultSpec::leak(0.01, "B")};
  EXPECT_EQ(apply_faults(net, some).network.reaction_count(),
            net.reaction_count() + 1);
  const FaultSpec none[] = {FaultSpec::leak(0.01, "zzz")};
  EXPECT_THROW((void)apply_faults(net, none), std::invalid_argument);
}

TEST(FaultSpecs, InitialNoiseSkipsZeroInitials) {
  const ReactionNetwork net = mixed_network();
  const FaultSpec spec[] = {FaultSpec::initial_noise(0.3, 11)};
  const FaultedNetwork noisy = apply_faults(net, spec);
  EXPECT_NE(noisy.network.initial(core::SpeciesId{0}), 1.0);
  EXPECT_EQ(noisy.network.initial(core::SpeciesId{1}), 0.0);  // stays zero
  EXPECT_NE(noisy.network.initial(core::SpeciesId{2}), 0.5);
}

TEST(FaultSpecs, StoichiometrySpecDuplicatesFirstProduct) {
  const ReactionNetwork net = mixed_network();
  const FaultSpec spec[] = {FaultSpec::stoichiometry("clk.a")};
  const FaultedNetwork faulted = apply_faults(net, spec);
  EXPECT_EQ(faulted.network.reaction(core::ReactionId{0}).products()[0].stoich,
            2u);
  EXPECT_EQ(net.reaction(core::ReactionId{0}).products()[0].stoich, 1u);
}

TEST(FaultEvents, InjectionAndLossFireAtTheirTimes) {
  // A reaction-free network: the state only changes through fault events.
  ReactionNetwork net;
  net.add_species("X", 1.0);
  const FaultSpec specs[] = {FaultSpec::injection("X", 0.5, 1.0),
                             FaultSpec::loss("X", 0.5, 3.0)};
  FaultedNetwork faulted = apply_faults(net, specs);
  ASSERT_EQ(faulted.events.size(), 2u);
  FaultEventObserver events(std::move(faulted.events));
  sim::Observer* observers[] = {&events};
  sim::OdeOptions options;
  options.t_end = 5.0;
  const sim::OdeResult run =
      sim::simulate_ode(faulted.network, options, faulted.network.initial_state(),
                        std::span<sim::Observer* const>(observers, 1));
  EXPECT_EQ(events.applied_count(), 2u);
  // (1.0 + 0.5) * (1 - 0.5) = 0.75
  EXPECT_NEAR(run.trajectory.final_state()[0], 0.75, 1e-9);
  // reset() re-arms the observer for a fallback-ladder retry.
  events.reset();
  EXPECT_EQ(events.applied_count(), 0u);
}

TEST(FaultEvents, UnknownSpeciesThrows) {
  ReactionNetwork net;
  net.add_species("X", 1.0);
  const FaultSpec specs[] = {FaultSpec::injection("Y", 0.5, 1.0)};
  EXPECT_THROW((void)apply_faults(net, specs), std::invalid_argument);
}

// --- campaigns ------------------------------------------------------------

TEST(Campaign, DefaultGridsAreAscendingAndNonEmpty) {
  for (const FaultKind kind :
       {FaultKind::kRateJitter, FaultKind::kClockSkew, FaultKind::kLeak,
        FaultKind::kInjection, FaultKind::kLoss, FaultKind::kInitialNoise}) {
    const std::vector<double> grid = default_intensities(kind);
    ASSERT_FALSE(grid.empty());
    for (std::size_t i = 1; i < grid.size(); ++i) {
      EXPECT_LT(grid[i - 1], grid[i]);
    }
  }
}

TEST(Campaign, RejectsFaultKindsWithoutAnIntensityKnob) {
  CampaignConfig config;
  config.fault = FaultKind::kStoichiometry;
  EXPECT_THROW((void)run_campaign(config), std::invalid_argument);
  config.fault = FaultKind::kRateJitterReaction;
  EXPECT_THROW((void)run_campaign(config), std::invalid_argument);
}

TEST(Campaign, CounterRateJitterHasNonzeroMargin) {
  CampaignConfig config;
  config.design = "counter";
  config.fault = FaultKind::kRateJitter;
  config.intensities = {0.02, 0.05};
  config.trials = 1;
  const CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.design, "counter");
  ASSERT_EQ(result.intensities.size(), 2u);
  EXPECT_TRUE(result.margin_found);
  EXPECT_DOUBLE_EQ(result.margin, 0.05);
  for (const IntensityResult& point : result.intensities) {
    EXPECT_TRUE(point.all_ok());
    for (const TrialResult& trial : point.trials) {
      EXPECT_EQ(trial.status, TrialStatus::kOk);
      EXPECT_EQ(trial.attempts, 1u);
    }
  }
  // The table and JSON renderings carry the margin.
  EXPECT_NE(result.to_table().find("robustness margin"), std::string::npos);
  const util::json::Value json = result.to_value();
  ASSERT_NE(json.find("margin"), nullptr);
  EXPECT_EQ(json.find("margin")->as_number(), 0.05);
}

// Every registry design with a stimulus holds under light rate jitter: one
// family each of counters, FSMs, single-rail circuits and delay chains, at
// more than one size.
TEST(Campaign, RegistryDesignsHoldUnderLightJitter) {
  for (const char* spec :
       {"counter", "counter(2)", "counter(4)", "seqdet", "fsm_wide(4)",
        "moving_average", "iir", "delay", "delay_chain(2)",
        "delay_chain(4)"}) {
    CampaignConfig config;
    config.design = spec;
    config.intensities = {0.02};
    config.trials = 1;
    const CampaignResult result = run_campaign(config);
    EXPECT_EQ(result.design, spec);
    ASSERT_EQ(result.intensities.size(), 1u) << spec;
    EXPECT_TRUE(result.margin_found)
        << spec << "\n" << result.to_value().dump();
  }
}

TEST(Campaign, ReportsTheDesignTheSpecNames) {
  CampaignConfig config;
  config.fault = FaultKind::kClockSkew;
  config.intensities = {0.02};
  config.trials = 1;
  config.design = "fsm_wide(4)";
  EXPECT_EQ(run_campaign(config).target, "fsm_clk.");
  config.design = "seqdet";
  EXPECT_EQ(run_campaign(config).target, "seqdet_clk.");
  config.design = "counter(16)";
  EXPECT_EQ(run_campaign(config).design, "counter(16)");
  config.fault = FaultKind::kLoss;
  config.design = "delay_chain(2)";
  EXPECT_EQ(run_campaign(config).target, "dc_R3");
}

TEST(Campaign, SpellingsOfOneSpecGiveTheSameJson) {
  CampaignConfig config;
  config.intensities = {0.02};
  config.trials = 1;
  config.design = "counter( 4 )";
  const util::json::Value spaced = run_campaign(config).to_value();
  config.design = "counter(4)";
  EXPECT_EQ(spaced.dump(), run_campaign(config).to_value().dump());
  EXPECT_EQ(spaced.get_string("design", ""), "counter(4)");
}

TEST(Campaign, DesignsWithoutAStimulusAreRejectedByName) {
  // cascade has no single input/output stimulus, first_difference a
  // dual-rail output, and a non-registry spec (an inline network's text)
  // never resolves.
  for (const char* spec :
       {"cascade", "cascade(3)", "first_difference", "A -> B"}) {
    CampaignConfig config;
    config.design = spec;
    try {
      (void)run_campaign(config);
      ADD_FAILURE() << spec << " ran";
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(spec), std::string::npos) << what;
    }
  }
}

TEST(Campaign, ResultsAreIdenticalAcrossThreadCounts) {
  for (const char* spec : {"counter(4)", "fsm_wide(4)"}) {
    CampaignConfig config;
    config.design = spec;
    config.fault = FaultKind::kRateJitter;
    config.intensities = {0.02, 0.05};
    config.trials = 2;
    config.threads = 1;
    const CampaignResult serial = run_campaign(config);
    config.threads = 8;
    const CampaignResult parallel = run_campaign(config);
    EXPECT_EQ(serial.to_value().dump(), parallel.to_value().dump()) << spec;
  }
}

TEST(Campaign, AbortFailsTheCampaignInsteadOfATrial) {
  CampaignConfig config;
  config.intensities = {0.02};
  config.trials = 1;
  config.abort = [] { return true; };
  EXPECT_THROW((void)run_campaign(config), CampaignAborted);
  // Firing mid-trial (after the integrator has started polling) also fails
  // the whole campaign; the stop is never recorded as a sim failure.
  std::size_t polls = 0;
  config.abort = [&polls] { return ++polls > 50; };
  EXPECT_THROW((void)run_campaign(config), CampaignAborted);
  EXPECT_GT(polls, 50u);
}

TEST(Campaign, FaultKindParserRoundTrips) {
  for (const FaultKind kind :
       {FaultKind::kRateJitter, FaultKind::kRateJitterCategory,
        FaultKind::kRateJitterReaction, FaultKind::kClockSkew,
        FaultKind::kLeak, FaultKind::kInjection, FaultKind::kLoss,
        FaultKind::kInitialNoise, FaultKind::kStoichiometry}) {
    EXPECT_EQ(parse_fault_kind(to_string(kind)), kind);
  }
  EXPECT_FALSE(parse_fault_kind("banana").has_value());
}

}  // namespace
}  // namespace mrsc::stress
