#include "analysis/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/plot.hpp"
#include "analysis/sweep.hpp"
#include "core/builder.hpp"

namespace mrsc::analysis {
namespace {

TEST(Metrics, Rmse) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(rmse(a, b), 0.0);
  const std::vector<double> c = {2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(rmse(a, c), 1.0);
}

TEST(Metrics, MaxAbsError) {
  const std::vector<double> a = {1.0, 5.0, 3.0};
  const std::vector<double> b = {1.0, 2.0, 3.5};
  EXPECT_DOUBLE_EQ(max_abs_error(a, b), 3.0);
}

TEST(Metrics, SizeMismatchThrows) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW((void)rmse(a, b), std::invalid_argument);
  EXPECT_THROW((void)max_abs_error(a, b), std::invalid_argument);
}

TEST(Metrics, Digitize) {
  const std::vector<double> wave = {0.0, 0.3, 0.7, 0.9, 0.4, 0.1, 0.8};
  const auto bits = digitize(wave, 0.2, 0.6);
  const std::vector<bool> expected = {false, false, true, true,
                                      true,  false, true};
  EXPECT_EQ(bits, expected);
}

TEST(Metrics, DigitizeInitialHigh) {
  const std::vector<double> wave = {0.9, 0.5};
  const auto bits = digitize(wave, 0.2, 0.6);
  EXPECT_TRUE(bits[0]);
  EXPECT_TRUE(bits[1]);  // hysteresis holds through the band
}

TEST(Metrics, DigitizeBadThresholdsThrow) {
  const std::vector<double> wave = {0.5};
  EXPECT_THROW((void)digitize(wave, 0.6, 0.2), std::invalid_argument);
}

TEST(Metrics, MeanAndStddev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), 2.138, 1e-3);
  EXPECT_THROW((void)mean(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW((void)stddev(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Sweep, AppliesJitterWithinBounds) {
  core::ReactionNetwork net;
  core::NetworkBuilder b(net);
  for (int i = 0; i < 20; ++i) {
    b.reaction("A" + std::to_string(i) + " -> B", core::RateCategory::kSlow);
  }
  util::Rng rng(1);
  apply_rate_jitter(net, 2.0, rng);
  bool any_changed = false;
  for (std::size_t j = 0; j < net.reaction_count(); ++j) {
    const double m =
        net.reaction(core::ReactionId{static_cast<std::uint32_t>(j)})
            .rate_multiplier();
    EXPECT_GE(m, 0.5 - 1e-12);
    EXPECT_LE(m, 2.0 + 1e-12);
    if (m != 1.0) any_changed = true;
  }
  EXPECT_TRUE(any_changed);
}

TEST(Sweep, JitterFactorOneClears) {
  core::ReactionNetwork net;
  core::NetworkBuilder b(net);
  b.reaction("A -> B", core::RateCategory::kSlow);
  net.reaction_mutable(core::ReactionId{0}).set_rate_multiplier(5.0);
  util::Rng rng(1);
  apply_rate_jitter(net, 1.0, rng);
  EXPECT_DOUBLE_EQ(net.reaction(core::ReactionId{0}).rate_multiplier(), 1.0);
}

TEST(Sweep, JitterComposesWithExistingMultiplier) {
  core::ReactionNetwork net;
  core::NetworkBuilder b(net);
  b.reaction("A -> B", core::RateCategory::kSlow);
  net.reaction_mutable(core::ReactionId{0}).set_rate_multiplier(0.25);
  util::Rng rng(1);
  apply_rate_jitter(net, 1.5, rng);
  const double m = net.reaction(core::ReactionId{0}).rate_multiplier();
  EXPECT_GE(m, 0.25 / 1.5 - 1e-12);
  EXPECT_LE(m, 0.25 * 1.5 + 1e-12);
}

TEST(Sweep, RunsGridAndRecordsFailures) {
  RateSweepConfig config;
  config.ratios = {10.0, 100.0};
  config.jitter_factors = {1.0, 2.0};
  const auto points = run_rate_sweep(
      config, [](const core::RatePolicy& policy, double jitter,
                 std::uint64_t) -> double {
        if (policy.k_fast > 50.0 && jitter > 1.5) {
          throw std::runtime_error("boom");
        }
        return policy.k_fast / 1000.0;
      });
  ASSERT_EQ(points.size(), 4u);
  EXPECT_FALSE(points[0].failed);
  EXPECT_DOUBLE_EQ(points[0].error, 0.01);
  EXPECT_TRUE(points[3].failed);  // ratio 100, jitter 2
  // Seeds are distinct per point.
  EXPECT_NE(points[0].seed, points[1].seed);
}

TEST(Sweep, FormatTable) {
  const std::vector<SweepPoint> points = {
      {100.0, 1.0, 1, 0.0012, false},
      {1000.0, 2.0, 2, 0.0, true},
  };
  const std::string table = format_sweep_table(points, "max error");
  EXPECT_NE(table.find("k_fast/k_slow"), std::string::npos);
  EXPECT_NE(table.find("max error"), std::string::npos);
  EXPECT_NE(table.find("1.200e-03"), std::string::npos);
  EXPECT_NE(table.find("FAILED"), std::string::npos);
}

TEST(Plot, RendersSeries) {
  Series s;
  s.label = "wave";
  for (int i = 0; i <= 50; ++i) {
    s.x.push_back(i * 0.1);
    s.y.push_back(std::sin(i * 0.1));
  }
  const std::vector<Series> series = {s};
  const std::string chart = ascii_plot(series);
  EXPECT_NE(chart.find("wave"), std::string::npos);
  EXPECT_NE(chart.find('*'), std::string::npos);
  // Has the configured number of rows plus legend/axis lines.
  EXPECT_GT(std::count(chart.begin(), chart.end(), '\n'), 18);
}

TEST(Plot, TrajectoryPlotUsesSpeciesNames) {
  core::ReactionNetwork net;
  const core::SpeciesId a = net.add_species("alpha");
  sim::Trajectory trajectory(1);
  for (int i = 0; i <= 20; ++i) {
    const double v[] = {static_cast<double>(i) / 20.0};
    trajectory.append(i * 0.1, v);
  }
  const std::vector<core::SpeciesId> ids = {a};
  const std::string chart = plot_trajectory(trajectory, net, ids);
  EXPECT_NE(chart.find("alpha"), std::string::npos);
}

TEST(Plot, EmptySeriesThrows) {
  const std::vector<Series> none;
  EXPECT_THROW((void)ascii_plot(none), std::invalid_argument);
}

TEST(Plot, MismatchedSeriesThrows) {
  Series s;
  s.x = {1.0, 2.0};
  s.y = {1.0};
  const std::vector<Series> series = {s};
  EXPECT_THROW((void)ascii_plot(series), std::invalid_argument);
}

}  // namespace
}  // namespace mrsc::analysis
