#include "sim/trajectory.hpp"

#include <gtest/gtest.h>

#include "trajectory_window.hpp"
namespace mrsc::sim {
namespace {

using core::SpeciesId;

Trajectory sample_trajectory() {
  Trajectory t(2);
  t.append(0.0, std::vector<double>{1.0, 0.0});
  t.append(1.0, std::vector<double>{0.5, 0.5});
  t.append(2.0, std::vector<double>{0.0, 1.0});
  return t;
}

TEST(Trajectory, AppendAndQuery) {
  const Trajectory t = sample_trajectory();
  EXPECT_EQ(t.sample_count(), 3u);
  EXPECT_EQ(t.species_count(), 2u);
  EXPECT_DOUBLE_EQ(t.value(1, SpeciesId{0}), 0.5);
  EXPECT_DOUBLE_EQ(t.final_value(SpeciesId{1}), 1.0);
  EXPECT_DOUBLE_EQ(t.final_time(), 2.0);
}

TEST(Trajectory, AppendSizeMismatchThrows) {
  Trajectory t(2);
  EXPECT_THROW(t.append(0.0, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Trajectory, TimeMustNotGoBackwards) {
  Trajectory t(1);
  t.append(1.0, std::vector<double>{0.0});
  EXPECT_THROW(t.append(0.5, std::vector<double>{0.0}),
               std::invalid_argument);
  EXPECT_NO_THROW(t.append(1.0, std::vector<double>{0.0}));  // equal is OK
}

TEST(Trajectory, EmptyQueriesThrow) {
  Trajectory t(1);
  EXPECT_TRUE(t.empty());
  EXPECT_THROW((void)t.final_state(), std::logic_error);
  EXPECT_THROW((void)t.value_at(0.0, SpeciesId{0}), std::logic_error);
}

TEST(Trajectory, LinearInterpolation) {
  const Trajectory t = sample_trajectory();
  EXPECT_DOUBLE_EQ(t.value_at(0.5, SpeciesId{0}), 0.75);
  EXPECT_DOUBLE_EQ(t.value_at(1.5, SpeciesId{1}), 0.75);
}

TEST(Trajectory, InterpolationClampsOutOfRange) {
  const Trajectory t = sample_trajectory();
  EXPECT_DOUBLE_EQ(t.value_at(-5.0, SpeciesId{0}), 1.0);
  EXPECT_DOUBLE_EQ(t.value_at(99.0, SpeciesId{0}), 0.0);
}

TEST(Trajectory, WindowExtrema) {
  const Trajectory t = sample_trajectory();
  EXPECT_DOUBLE_EQ(max_in_window(t, SpeciesId{0}, 0.0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(max_in_window(t, SpeciesId{0}, 0.9, 2.0), 0.5);
  EXPECT_THROW((void)max_in_window(t, SpeciesId{0}, 5.0, 6.0),
               std::invalid_argument);
}

TEST(Trajectory, Series) {
  const Trajectory t = sample_trajectory();
  const auto s = t.series(SpeciesId{1});
  EXPECT_EQ(s, (std::vector<double>{0.0, 0.5, 1.0}));
}

TEST(Trajectory, CsvExport) {
  core::ReactionNetwork net;
  const SpeciesId a = net.add_species("alpha");
  const SpeciesId b = net.add_species("beta");
  const Trajectory t = sample_trajectory();
  const std::vector<SpeciesId> ids = {a, b};
  const std::string csv = t.to_csv(net, ids);
  EXPECT_NE(csv.find("time,alpha,beta"), std::string::npos);
  EXPECT_NE(csv.find("1,0.5,0.5"), std::string::npos);
}

}  // namespace
}  // namespace mrsc::sim
