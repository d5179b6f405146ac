#include "compile/compose.hpp"

#include "compile/passes.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "async/chain.hpp"
#include "core/builder.hpp"
#include "sim/ode.hpp"
#include "sync/clock.hpp"
#include "trajectory_window.hpp"

namespace mrsc::compile {
namespace {
using core::NetworkBuilder;
using core::RateCategory;
using core::ReactionId;
using core::ReactionNetwork;
using core::SpeciesId;
}  // namespace

namespace {

ReactionNetwork small_network() {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 1.0);
  b.reaction("A -> B", RateCategory::kSlow, "decay");
  b.reaction("2 B -> C", 3.5);
  return net;
}

TEST(MergeNetwork, CopiesSpeciesWithPrefix) {
  ReactionNetwork target;
  target.add_species("X", 0.5);
  const auto map = merge_network(target, small_network(), "m1_");
  EXPECT_EQ(target.species_count(), 4u);
  EXPECT_TRUE(target.find_species("m1_A").has_value());
  EXPECT_DOUBLE_EQ(target.initial(*target.find_species("m1_A")), 1.0);
  ASSERT_EQ(map.size(), 3u);
  EXPECT_EQ(target.species_name(map[0]), "m1_A");
}

TEST(MergeNetwork, CopiesReactionsFaithfully) {
  ReactionNetwork target;
  merge_network(target, small_network(), "p_");
  ASSERT_EQ(target.reaction_count(), 2u);
  EXPECT_EQ(target.reaction(ReactionId{0}).category(), RateCategory::kSlow);
  EXPECT_EQ(target.reaction(ReactionId{0}).label(), "decay");
  EXPECT_EQ(target.reaction(ReactionId{1}).category(), RateCategory::kCustom);
  EXPECT_DOUBLE_EQ(target.reaction(ReactionId{1}).custom_rate(), 3.5);
  EXPECT_EQ(target.reaction(ReactionId{1}).reactants()[0].stoich, 2u);
}

TEST(MergeNetwork, PreservesRateMultipliers) {
  ReactionNetwork source = small_network();
  source.reaction_mutable(ReactionId{0}).set_rate_multiplier(0.25);
  ReactionNetwork target;
  merge_network(target, source, "p_");
  EXPECT_DOUBLE_EQ(target.reaction(ReactionId{0}).rate_multiplier(), 0.25);
}

TEST(MergeNetwork, NameCollisionThrows) {
  ReactionNetwork target;
  target.add_species("p_A");
  EXPECT_THROW(merge_network(target, small_network(), "p_"),
               std::invalid_argument);
}

TEST(MergeNetwork, TwoClocksCoexistAndOscillate) {
  // Build two independent clocks in separate networks, merge both into one
  // solution, and verify both oscillate.
  ReactionNetwork clock_a;
  sync::build_clock(clock_a, {});
  ReactionNetwork clock_b;
  sync::ClockSpec b_spec;
  b_spec.phase_stretch = 2.0;
  sync::build_clock(clock_b, b_spec);

  ReactionNetwork combined;
  merge_network(combined, clock_a, "a_");
  merge_network(combined, clock_b, "b_");

  sim::OdeOptions options;
  options.t_end = 200.0;
  options.record_interval = 0.2;
  const sim::OdeResult run = sim::simulate_ode(combined, options);
  const SpeciesId ga = *combined.find_species("a_clk_G");
  const SpeciesId gb = *combined.find_species("b_clk_G");
  // Minimum over the samples in t in [100, 200].
  const auto late_min = [&](SpeciesId id) {
    double low = 1e300;
    for (std::size_t k = 0; k < run.trajectory.sample_count(); ++k) {
      if (run.trajectory.time(k) >= 100.0) {
        low = std::min(low, run.trajectory.value(k, id));
      }
    }
    return low;
  };
  EXPECT_GT(max_in_window(run.trajectory, ga, 100.0, 200.0), 0.8);
  EXPECT_LT(late_min(ga), 0.1);
  EXPECT_GT(max_in_window(run.trajectory, gb, 100.0, 200.0), 0.8);
  EXPECT_LT(late_min(gb), 0.1);
}

TEST(UntouchedSpecies, FindsIsolatedSpecies) {
  ReactionNetwork net = small_network();
  const SpeciesId lonely = net.add_species("lonely", 2.0);
  const auto untouched = untouched_species(net);
  ASSERT_EQ(untouched.size(), 1u);
  EXPECT_EQ(untouched[0], lonely);
}

TEST(UntouchedSpecies, EmptyWhenAllUsed) {
  EXPECT_TRUE(untouched_species(small_network()).empty());
}

TEST(UnreachableSpecies, InitialValueMakesReachable) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 1.0);
  b.reaction("A -> B", 1.0);
  EXPECT_TRUE(unreachable_species(net).empty());
}

TEST(UnreachableSpecies, DetectsDeadBranch) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 1.0);
  b.reaction("A -> B", 1.0);
  // C -> D can never fire: C starts at 0 and nothing produces it.
  b.reaction("C -> D", 1.0);
  const auto unreachable = unreachable_species(net);
  ASSERT_EQ(unreachable.size(), 2u);
  EXPECT_EQ(net.species_name(unreachable[0]), "C");
  EXPECT_EQ(net.species_name(unreachable[1]), "D");
}

TEST(UnreachableSpecies, FixedPointPropagates) {
  // A -> B, B -> C: C reachable transitively.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.species("A", 1.0);
  b.reaction("A -> B", 1.0);
  b.reaction("B -> C", 1.0);
  EXPECT_TRUE(unreachable_species(net).empty());
}

TEST(UnreachableSpecies, ZeroOrderSourceReaches) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("0 -> A", 1.0);
  b.reaction("A -> B", 1.0);
  EXPECT_TRUE(unreachable_species(net).empty());
}

TEST(UnreachableSpecies, WholeDesignsAreFullyReachable) {
  // Sanity over a real construction: nothing the chain compiler emits is
  // dead.
  ReactionNetwork net;
  async::ChainSpec spec;
  spec.elements = 2;
  const async::ChainHandles handles = async::build_delay_chain(net, spec);
  net.set_initial(handles.input, 1.0);
  EXPECT_TRUE(unreachable_species(net).empty());
  EXPECT_TRUE(untouched_species(net).empty());
}

}  // namespace
}  // namespace mrsc::compile
