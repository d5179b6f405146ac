#include "core/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "compile/passes.hpp"
#include "core/builder.hpp"
#include "dsp/counter.hpp"
#include "dsp/filters.hpp"
#include "fsm/fsm.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"

namespace mrsc::core {
namespace {

ReactionNetwork sample_network() {
  ReactionNetwork net;
  net.set_rate_policy(RatePolicy{0.5, 250.0});
  NetworkBuilder builder(net);
  builder.species("X", 1.25);
  builder.reaction("0 -> r", RateCategory::kSlow, "ind.gen");
  builder.reaction("r + X -> X", RateCategory::kFast);
  builder.reaction("2 X -> Y", 3.5, "halve");
  return net;
}

TEST(NetworkIo, SerializeContainsEverything) {
  const std::string text = serialize_network(sample_network());
  EXPECT_NE(text.find("@rates slow=0.5 fast=250"), std::string::npos);
  EXPECT_NE(text.find("@species X 1.25"), std::string::npos);
  EXPECT_NE(text.find("slow : 0 -> r | ind.gen"), std::string::npos);
  EXPECT_NE(text.find("3.5 : 2 X -> Y | halve"), std::string::npos);
}

TEST(NetworkIo, RoundTripPreservesStructure) {
  const ReactionNetwork original = sample_network();
  const ReactionNetwork parsed = parse_network(serialize_network(original));

  ASSERT_EQ(parsed.species_count(), original.species_count());
  ASSERT_EQ(parsed.reaction_count(), original.reaction_count());
  EXPECT_DOUBLE_EQ(parsed.rate_policy().k_slow, 0.5);
  EXPECT_DOUBLE_EQ(parsed.rate_policy().k_fast, 250.0);

  // Species ids are stable across the round trip.
  for (std::size_t i = 0; i < original.species_count(); ++i) {
    const SpeciesId id{static_cast<SpeciesId::underlying_type>(i)};
    EXPECT_EQ(parsed.species_name(id), original.species_name(id));
    EXPECT_DOUBLE_EQ(parsed.initial(id), original.initial(id));
  }
  for (std::size_t j = 0; j < original.reaction_count(); ++j) {
    const ReactionId id{static_cast<ReactionId::underlying_type>(j)};
    EXPECT_EQ(parsed.reaction(id).category(), original.reaction(id).category());
    EXPECT_EQ(parsed.reaction(id).label(), original.reaction(id).label());
    EXPECT_EQ(parsed.reaction(id).reactants(),
              original.reaction(id).reactants());
    EXPECT_EQ(parsed.reaction(id).products(), original.reaction(id).products());
  }
}

TEST(NetworkIo, DoubleRoundTripIsIdentity) {
  const std::string once = serialize_network(sample_network());
  const std::string twice = serialize_network(parse_network(once));
  EXPECT_EQ(once, twice);
}

TEST(NetworkIo, ParseComments) {
  const ReactionNetwork net = parse_network(
      "# a comment\n"
      "@species A 1 # trailing comment\n"
      "fast : A -> 0\n");
  EXPECT_EQ(net.species_count(), 1u);
  EXPECT_EQ(net.reaction_count(), 1u);
}

TEST(NetworkIo, ParseErrorsCarryLineNumbers) {
  try {
    (void)parse_network("@species A\nnonsense without colon\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
}

TEST(NetworkIo, ParseRejectsDuplicateSpecies) {
  EXPECT_THROW((void)parse_network("@species A\n@species A\n"),
               std::invalid_argument);
}

TEST(NetworkIo, ParseRejectsBadRatesKey) {
  EXPECT_THROW((void)parse_network("@rates medium=3\n"), std::invalid_argument);
}

TEST(NetworkIo, ParseRejectsBadReaction) {
  EXPECT_THROW((void)parse_network("fast : A B\n"), std::invalid_argument);
}

// A .crn file is read by scenario::load_network_file and parsed when the
// registry resolves it, the path every CLI takes.
TEST(NetworkIo, SaveAndLoadFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mrsc_io_test.crn").string();
  const ReactionNetwork original = sample_network();
  std::ofstream(path) << serialize_network(original);
  const scenario::ResolvedScenario resolved =
      scenario::ScenarioRegistry::global().resolve(
          scenario::load_network_file(path));
  const ReactionNetwork& loaded = *resolved.design.network;
  EXPECT_EQ(loaded.species_count(), original.species_count());
  EXPECT_EQ(loaded.reaction_count(), original.reaction_count());
  std::remove(path.c_str());
}

TEST(NetworkIo, LoadMissingFileThrows) {
  EXPECT_THROW(
      (void)scenario::load_network_file("/nonexistent/path/to/net.crn"),
      std::runtime_error);
}

TEST(NetworkIo, RateMultiplierRoundTrips) {
  ReactionNetwork net;
  NetworkBuilder builder(net);
  builder.species("A", 1.0);
  const ReactionId id = builder.reaction("A -> 0", RateCategory::kSlow);
  net.reaction_mutable(id).set_rate_multiplier(0.25);
  builder.reaction("0 -> A", 3.0);

  const std::string text = serialize_network(net);
  EXPECT_NE(text.find("slow*0.25 : A -> 0"), std::string::npos) << text;
  const ReactionNetwork parsed = parse_network(text);
  EXPECT_DOUBLE_EQ(parsed.reaction(id).rate_multiplier(), 0.25);
  EXPECT_DOUBLE_EQ(parsed.reaction(ReactionId{1}).rate_multiplier(), 1.0);
  EXPECT_EQ(text, serialize_network(parsed));
}

TEST(NetworkIo, ParseRejectsBadRateMultiplier) {
  EXPECT_THROW((void)parse_network("@species A\nslow*x : A -> 0\n"),
               std::invalid_argument);
}

// Compiled circuits must survive serialize/parse with identical structure —
// including the clock's stretched-hop rate multipliers, which the text
// format's "*<multiplier>" suffix carries.
void expect_round_trip_identity(const ReactionNetwork& compiled) {
  const std::string once = serialize_network(compiled);
  const ReactionNetwork parsed = parse_network(once);
  ASSERT_EQ(parsed.species_count(), compiled.species_count());
  ASSERT_EQ(parsed.reaction_count(), compiled.reaction_count());
  for (std::size_t j = 0; j < compiled.reaction_count(); ++j) {
    const ReactionId id{static_cast<ReactionId::underlying_type>(j)};
    EXPECT_DOUBLE_EQ(parsed.reaction(id).rate_multiplier(),
                     compiled.reaction(id).rate_multiplier());
  }
  EXPECT_EQ(once, serialize_network(parsed));
}

TEST(NetworkIo, CompiledCounterRoundTrips) {
  ReactionNetwork net;
  (void)dsp::build_counter(net, dsp::CounterSpec{});
  expect_round_trip_identity(net);
}

TEST(NetworkIo, CompiledMovingAverageRoundTrips) {
  const auto design = dsp::make_moving_average();
  expect_round_trip_identity(*design.network);
}

TEST(NetworkIo, CompiledOptimizedMovingAverageRoundTrips) {
  compile::CompileOptions options;
  options.opt = compile::OptLevel::kO1;
  const auto design = dsp::make_moving_average({}, options);
  expect_round_trip_identity(*design.network);
}

TEST(NetworkIo, CompiledSequenceDetectorRoundTrips) {
  ReactionNetwork net;
  const fsm::FsmSpec spec = fsm::make_sequence_detector("101");
  (void)fsm::build_fsm(net, spec);
  expect_round_trip_identity(net);
}

}  // namespace
}  // namespace mrsc::core
