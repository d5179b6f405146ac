#include "sim/observer.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace mrsc::sim {
namespace {

using core::SpeciesId;

// Feeds a synthetic waveform to an observer one step at a time.
void drive(Observer& observer, const std::vector<double>& times,
           const std::vector<double>& values, SpeciesId species,
           std::size_t state_size = 1) {
  std::vector<double> state(state_size, 0.0);
  for (std::size_t k = 0; k < times.size(); ++k) {
    state[species.index()] = values[k];
    observer.on_step(times[k], state);
  }
}

TEST(EdgeDetector, DetectsRisingAndFalling) {
  EdgeDetector detector(SpeciesId{0}, 0.2, 0.6);
  drive(detector, {0, 1, 2, 3, 4, 5, 6},
        {0.0, 0.3, 0.7, 0.9, 0.3, 0.1, 0.8}, SpeciesId{0});
  ASSERT_EQ(detector.rising_edges().size(), 2u);
  EXPECT_DOUBLE_EQ(detector.rising_edges()[0], 2.0);
  EXPECT_DOUBLE_EQ(detector.rising_edges()[1], 6.0);
  ASSERT_EQ(detector.falling_edges().size(), 1u);
  EXPECT_DOUBLE_EQ(detector.falling_edges()[0], 5.0);
}

TEST(EdgeDetector, HysteresisSuppressesChatter) {
  EdgeDetector detector(SpeciesId{0}, 0.2, 0.6);
  // Oscillation within the hysteresis band produces no edges.
  drive(detector, {0, 1, 2, 3, 4}, {0.0, 0.4, 0.3, 0.5, 0.35}, SpeciesId{0});
  EXPECT_TRUE(detector.rising_edges().empty());
  EXPECT_TRUE(detector.falling_edges().empty());
}

TEST(EdgeDetector, InitialHighStateIsNotAnEdge) {
  EdgeDetector detector(SpeciesId{0}, 0.2, 0.6);
  drive(detector, {0, 1}, {0.9, 0.95}, SpeciesId{0});
  EXPECT_TRUE(detector.rising_edges().empty());
}

TEST(EdgeDetector, InvalidThresholdsThrow) {
  EXPECT_THROW(EdgeDetector(SpeciesId{0}, 0.6, 0.2), std::invalid_argument);
  EXPECT_THROW(EdgeDetector(SpeciesId{0}, 0.5, 0.5), std::invalid_argument);
}

TEST(FaultEventObserver, InjectsAtTimes) {
  FaultEventObserver events(
      {{.time = 2.0, .species = SpeciesId{0}, .add = 1.5},
       {.time = 1.0, .species = SpeciesId{0}, .add = 0.5}});
  std::vector<double> state = {0.0};
  events.on_step(0.5, state);
  EXPECT_DOUBLE_EQ(state[0], 0.0);
  events.on_step(1.1, state);
  EXPECT_DOUBLE_EQ(state[0], 0.5);  // events are sorted by time
  events.on_step(3.0, state);
  EXPECT_DOUBLE_EQ(state[0], 2.0);
  EXPECT_EQ(events.applied_count(), 2u);
}

TEST(FaultEventObserver, MultipleEventsInOneStep) {
  FaultEventObserver events(
      {{.time = 1.0, .species = SpeciesId{0}, .add = 1.0},
       {.time = 1.5, .species = SpeciesId{0}, .add = 1.0}});
  std::vector<double> state = {0.0};
  events.on_step(2.0, state);
  EXPECT_DOUBLE_EQ(state[0], 2.0);
}

TEST(FaultEventObserver, EqualTimesApplyInOrderAndClampAtZero) {
  // max(0, 1 - 5) = 0, then 0.5 * 0 + 1 = 1; the other order would read 0.
  const std::vector<FaultEvent> list = {
      {.time = 1.0, .species = SpeciesId{0}, .add = -5.0},
      {.time = 1.0, .species = SpeciesId{0}, .add = 1.0, .scale = 0.5}};
  FaultEventObserver events(list);
  std::vector<double> state = {1.0};
  events.on_step(1.0, state);
  EXPECT_DOUBLE_EQ(state[0], 1.0);
  // A retry builds a fresh observer, which applies every event again.
  FaultEventObserver retry(list);
  retry.on_step(1.0, state);
  EXPECT_DOUBLE_EQ(state[0], 1.0);
  EXPECT_EQ(retry.applied_count(), 2u);
}

TEST(SteadyStateDetector, DetectsQuiescence) {
  SteadyStateDetector detector(1e-3, 1.0);
  std::vector<double> state = {1.0};
  detector.on_step(0.0, state);
  EXPECT_FALSE(detector.reached());
  // Change quickly: not steady.
  state[0] = 2.0;
  detector.on_step(1.5, state);
  EXPECT_FALSE(detector.reached());
  // Hold: steady after a window.
  state[0] = 2.0001;
  detector.on_step(3.0, state);
  EXPECT_TRUE(detector.reached());
  EXPECT_TRUE(detector.should_stop(3.0, state));
  EXPECT_DOUBLE_EQ(detector.reached_time(), 3.0);
}

TEST(SteadyStateDetector, InvalidParamsThrow) {
  EXPECT_THROW(SteadyStateDetector(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(SteadyStateDetector(1.0, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace mrsc::sim
