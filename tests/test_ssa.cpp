#include "sim/ssa.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/builder.hpp"

namespace mrsc::sim {
namespace {

using core::NetworkBuilder;
using core::ReactionNetwork;
using core::SpeciesId;

ReactionNetwork decay_network(double k) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 1.0);
  b.reaction("A -> B", k);
  return net;
}

TEST(ToCounts, RoundsAndClamps) {
  const std::vector<double> conc = {1.0, 0.24, -0.5};
  const auto counts = to_counts(conc, 10.0);
  EXPECT_EQ(counts, (std::vector<std::int64_t>{10, 2, 0}));
}

TEST(ToCounts, AcceptsCountsJustBelowTwoTo63) {
  // The largest double below 2^63 is 2^63 - 1024, an exact int64.
  const std::vector<double> conc = {std::nextafter(0x1p63, 0.0)};
  EXPECT_EQ(to_counts(conc, 1.0),
            (std::vector<std::int64_t>{INT64_MAX - 1023}));
}

TEST(ToCounts, RejectsCountsFromTwoTo63WithTheSpeciesIndex) {
  // Before, llround's INT64_MIN there was clamped to 0 molecules.
  const std::pair<double, double> cases[] = {
      {0x1p63, 1.0}, {9.3e15, 1000.0}, {1e300, 1.0}};
  for (const auto& [concentration, omega] : cases) {
    const std::vector<double> conc = {1.0, concentration};
    try {
      (void)to_counts(conc, omega);
      ADD_FAILURE() << concentration << " x " << omega << " accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("species 1"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(ToCounts, RejectsNonFiniteAndClampsFiniteNegatives) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), kInf, -kInf}) {
    const std::vector<double> conc = {bad};
    EXPECT_THROW((void)to_counts(conc, 10.0), std::invalid_argument) << bad;
  }
  // A finite product overflowing to infinity is rejected too.
  const std::vector<double> overflow = {1e300};
  EXPECT_THROW((void)to_counts(overflow, 1e10), std::invalid_argument);
  const std::vector<double> negative = {-0.0, -1e-300, -3.0, -1e300};
  EXPECT_EQ(to_counts(negative, 10.0), (std::vector<std::int64_t>(4, 0)));
}

class SsaMethodTest : public ::testing::TestWithParam<SsaMethod> {};

TEST_P(SsaMethodTest, ReproducibleGivenSeed) {
  const ReactionNetwork net = decay_network(1.0);
  SsaOptions options;
  options.method = GetParam();
  options.t_end = 2.0;
  options.seed = 99;
  options.omega = 500.0;
  const SsaResult a = simulate_ssa(net, options);
  const SsaResult b = simulate_ssa(net, options);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.final_counts, b.final_counts);
}

TEST_P(SsaMethodTest, DecayMeanMatchesAnalytic) {
  const double k = 1.0;
  const ReactionNetwork net = decay_network(k);
  SsaOptions options;
  options.method = GetParam();
  options.t_end = 1.0;
  options.omega = 200.0;
  double total = 0.0;
  constexpr int kRuns = 60;
  for (int run = 0; run < kRuns; ++run) {
    options.seed = 1000 + static_cast<std::uint64_t>(run);
    const SsaResult result = simulate_ssa(net, options);
    total += static_cast<double>(result.final_counts[0]) / options.omega;
  }
  // Mean of A(1) is e^{-1} ~ 0.3679; stderr ~ sqrt(p(1-p)/N/runs) ~ 0.004.
  EXPECT_NEAR(total / kRuns, std::exp(-1.0), 0.02);
}

TEST_P(SsaMethodTest, ConservationOfTotalCount) {
  const ReactionNetwork net = decay_network(2.0);
  SsaOptions options;
  options.method = GetParam();
  options.t_end = 5.0;
  options.omega = 300.0;
  const SsaResult result = simulate_ssa(net, options);
  EXPECT_EQ(result.final_counts[0] + result.final_counts[1], 300);
}

TEST_P(SsaMethodTest, ExhaustionDetected) {
  const ReactionNetwork net = decay_network(10.0);
  SsaOptions options;
  options.method = GetParam();
  options.t_end = 1e6;
  options.omega = 50.0;
  const SsaResult result = simulate_ssa(net, options);
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.final_counts[0], 0);
  EXPECT_EQ(result.events, 50u);
}

TEST_P(SsaMethodTest, EventLimitRespected) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("0 -> A", 100.0);  // endless source
  SsaOptions options;
  options.method = GetParam();
  options.t_end = 1e9;
  options.max_events = 1000;
  const SsaResult result = simulate_ssa(net, options);
  EXPECT_TRUE(result.hit_event_limit);
  EXPECT_EQ(result.events, 1000u);
}

TEST_P(SsaMethodTest, TrajectoryInConcentrationUnits) {
  const ReactionNetwork net = decay_network(1.0);
  SsaOptions options;
  options.method = GetParam();
  options.t_end = 0.5;
  options.omega = 100.0;
  const SsaResult result = simulate_ssa(net, options);
  // First sample is the initial state: A = 1.0 concentration units.
  EXPECT_DOUBLE_EQ(result.trajectory.value(0, SpeciesId{0}), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Methods, SsaMethodTest,
                         ::testing::Values(SsaMethod::kDirect,
                                           SsaMethod::kNextReaction));

TEST(Ssa, DirectAndNextReactionAgreeInDistribution) {
  // Same model, same statistics: compare the mean of a bimolecular product.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 1.0);
  b.species("B", 1.0);
  b.reaction("A + B -> C", 3.0);
  SsaOptions options;
  options.t_end = 0.4;
  options.omega = 150.0;

  auto mean_c = [&](SsaMethod method) {
    options.method = method;
    double total = 0.0;
    constexpr int kRuns = 50;
    for (int run = 0; run < kRuns; ++run) {
      options.seed = 7000 + static_cast<std::uint64_t>(run);
      total += static_cast<double>(
          simulate_ssa(net, options).final_counts[2]);
    }
    return total / kRuns;
  };
  const double direct = mean_c(SsaMethod::kDirect);
  const double next_reaction = mean_c(SsaMethod::kNextReaction);
  EXPECT_NEAR(direct, next_reaction, 0.05 * direct + 3.0);
}

TEST(Ssa, HomodimerizationStopsAtOddLeftover) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 0.0);
  b.reaction("2 A -> B", 5.0);
  SsaOptions options;
  options.t_end = 1e5;
  options.omega = 1.0;
  const SsaResult result = simulate_ssa(
      net, options, std::vector<double>{7.0, 0.0});
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.final_counts[0], 1);  // odd molecule cannot pair
  EXPECT_EQ(result.final_counts[1], 3);
}

TEST(Ssa, ZeroOrderSourceMean) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("0 -> A", 2.0);  // concentration flux 2/unit time
  SsaOptions options;
  options.t_end = 3.0;
  options.omega = 100.0;
  double total = 0.0;
  constexpr int kRuns = 40;
  for (int run = 0; run < kRuns; ++run) {
    options.seed = 31 + static_cast<std::uint64_t>(run);
    total += static_cast<double>(simulate_ssa(net, options).final_counts[0]);
  }
  // Expected count: 2 * 3 * omega = 600; Poisson sd ~ 24.5, stderr ~ 4.
  EXPECT_NEAR(total / kRuns, 600.0, 15.0);
}

TEST(DirectSelection, ScansToFirstReactionReachingTarget) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  EXPECT_EQ(select_reaction(a, 0.5), 0u);
  EXPECT_EQ(select_reaction(a, 1.0), 0u);
  EXPECT_EQ(select_reaction(a, 1.5), 1u);
  EXPECT_EQ(select_reaction(a, 6.0), 2u);
}

TEST(DirectSelection, ZeroDrawSkipsLeadingZeroPropensities) {
  const std::vector<double> a = {0.0, 0.0, 2.0, 3.0};
  EXPECT_EQ(select_reaction(a, 0.0), 2u);
}

TEST(DirectSelection, RoundingResidualNeverFiresZeroPropensity) {
  // The largest uniform draw, 1 - 2^-53, times this sequential sum leaves
  // +2.3e-18 after subtracting every propensity in turn. The scan then ends
  // without reaching the target, and the last reaction (propensity 0) must
  // not fire: the last positive one does.
  const std::vector<double> a = {0.00032368783653411804, 0.07179676476832639,
                                 0.053929534852059736,  0.11309537029019168,
                                 0.00020391405043667976, 0.0};
  double total = 0.0;
  for (const double v : a) total += v;
  const double target = (1.0 - 0x1p-53) * total;
  double residual = target;
  for (const double v : a) residual -= v;
  ASSERT_GT(residual, 0.0) << "fixture no longer leaves a residual";
  EXPECT_EQ(select_reaction(a, target), 4u);
}

TEST(Ssa, InvalidOptionsThrow) {
  const ReactionNetwork net = decay_network(1.0);
  SsaOptions bad;
  bad.t_end = -1.0;
  EXPECT_THROW((void)simulate_ssa(net, bad), std::invalid_argument);
  SsaOptions bad_omega;
  bad_omega.omega = 0.0;
  EXPECT_THROW((void)simulate_ssa(net, bad_omega), std::invalid_argument);
}

TEST(Ssa, CountSizeMismatchThrows) {
  const ReactionNetwork net = decay_network(1.0);
  const CompiledSystem system(net);
  SsaOptions options;
  EXPECT_THROW(
      (void)simulate_ssa(system, options, std::vector<std::int64_t>{1}),
      std::invalid_argument);
}

}  // namespace
}  // namespace mrsc::sim
