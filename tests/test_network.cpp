#include "core/network.hpp"

#include <gtest/gtest.h>

namespace mrsc::core {
namespace {

TEST(ReactionNetwork, AddAndLookupSpecies) {
  ReactionNetwork net;
  const SpeciesId x = net.add_species("X", 1.5);
  const SpeciesId y = net.add_species("Y");
  EXPECT_EQ(net.species_count(), 2u);
  EXPECT_EQ(net.species_name(x), "X");
  EXPECT_DOUBLE_EQ(net.initial(x), 1.5);
  EXPECT_DOUBLE_EQ(net.initial(y), 0.0);
  EXPECT_EQ(net.find_species("X"), x);
  EXPECT_EQ(net.find_species("nope"), std::nullopt);
}

TEST(ReactionNetwork, DuplicateSpeciesNameThrows) {
  ReactionNetwork net;
  net.add_species("X");
  EXPECT_THROW(net.add_species("X"), std::invalid_argument);
}

TEST(ReactionNetwork, EmptySpeciesNameThrows) {
  ReactionNetwork net;
  EXPECT_THROW(net.add_species(""), std::invalid_argument);
}

TEST(ReactionNetwork, EnsureSpeciesIdempotent) {
  ReactionNetwork net;
  const SpeciesId a = net.ensure_species("A");
  const SpeciesId b = net.ensure_species("A");
  EXPECT_EQ(a, b);
  EXPECT_EQ(net.species_count(), 1u);
}

TEST(ReactionNetwork, InitialStateVector) {
  ReactionNetwork net;
  net.add_species("A", 1.0);
  net.add_species("B", 2.0);
  const auto state = net.initial_state();
  ASSERT_EQ(state.size(), 2u);
  EXPECT_DOUBLE_EQ(state[0], 1.0);
  EXPECT_DOUBLE_EQ(state[1], 2.0);
}

TEST(ReactionNetwork, SetInitial) {
  ReactionNetwork net;
  const SpeciesId a = net.add_species("A");
  net.set_initial(a, 3.0);
  EXPECT_DOUBLE_EQ(net.initial(a), 3.0);
  EXPECT_THROW(net.set_initial(SpeciesId{5}, 1.0), std::out_of_range);
}

TEST(ReactionNetwork, AddReactionValidatesSpecies) {
  ReactionNetwork net;
  net.add_species("A");
  EXPECT_THROW(
      net.add({{SpeciesId{4}, 1}}, {}, RateCategory::kFast),
      std::invalid_argument);
}

TEST(ReactionNetwork, AddReactionRejectsZeroStoich) {
  ReactionNetwork net;
  const SpeciesId a = net.add_species("A");
  EXPECT_THROW(net.add({{a, 0}}, {}, RateCategory::kFast),
               std::invalid_argument);
}

TEST(ReactionNetwork, CustomRateMustBePositive) {
  ReactionNetwork net;
  const SpeciesId a = net.add_species("A");
  EXPECT_THROW(net.add({{a, 1}}, {}, RateCategory::kCustom, 0.0),
               std::invalid_argument);
  EXPECT_THROW(net.add({{a, 1}}, {}, RateCategory::kCustom, -1.0),
               std::invalid_argument);
  EXPECT_NO_THROW(net.add({{a, 1}}, {}, RateCategory::kCustom, 0.5));
}

TEST(ReactionNetwork, EmptyReactionThrows) {
  ReactionNetwork net;
  EXPECT_THROW(net.add({}, {}, RateCategory::kFast), std::invalid_argument);
}

TEST(ReactionNetwork, EffectiveRateUsesPolicyAndMultiplier) {
  ReactionNetwork net;
  const SpeciesId a = net.add_species("A");
  const ReactionId slow = net.add({{a, 1}}, {}, RateCategory::kSlow);
  const ReactionId fast = net.add({{a, 1}}, {}, RateCategory::kFast);
  const ReactionId custom =
      net.add({{a, 1}}, {}, RateCategory::kCustom, 7.0);
  net.set_rate_policy(RatePolicy{2.0, 800.0});
  EXPECT_DOUBLE_EQ(net.effective_rate(slow), 2.0);
  EXPECT_DOUBLE_EQ(net.effective_rate(fast), 800.0);
  EXPECT_DOUBLE_EQ(net.effective_rate(custom), 7.0);

  net.reaction_mutable(slow).set_rate_multiplier(0.5);
  EXPECT_DOUBLE_EQ(net.effective_rate(slow), 1.0);
}

TEST(ReactionNetwork, StoichiometricMatrix) {
  ReactionNetwork net;
  const SpeciesId a = net.add_species("A");
  const SpeciesId b = net.add_species("B");
  const SpeciesId c = net.add_species("C");
  net.add({{a, 2}, {b, 1}}, {{c, 1}}, RateCategory::kFast);  // 2A+B -> C
  net.add({{c, 1}}, {{a, 1}}, RateCategory::kSlow);          // C -> A
  const auto s = net.stoichiometric_matrix();
  ASSERT_EQ(s.rows(), 3u);
  ASSERT_EQ(s.cols(), 2u);
  EXPECT_DOUBLE_EQ(s(a.index(), 0), -2.0);
  EXPECT_DOUBLE_EQ(s(b.index(), 0), -1.0);
  EXPECT_DOUBLE_EQ(s(c.index(), 0), 1.0);
  EXPECT_DOUBLE_EQ(s(a.index(), 1), 1.0);
  EXPECT_DOUBLE_EQ(s(c.index(), 1), -1.0);
}

TEST(ReactionNetwork, ReactionsTouching) {
  ReactionNetwork net;
  const SpeciesId a = net.add_species("A");
  const SpeciesId b = net.add_species("B");
  const SpeciesId c = net.add_species("C");
  const ReactionId r0 = net.add({{a, 1}}, {{b, 1}}, RateCategory::kFast);
  const ReactionId r1 = net.add({{b, 1}}, {{c, 1}}, RateCategory::kFast);
  const auto touching_b = net.reactions_touching(b);
  ASSERT_EQ(touching_b.size(), 2u);
  EXPECT_EQ(touching_b[0], r0);
  EXPECT_EQ(touching_b[1], r1);
  EXPECT_EQ(net.reactions_touching(a).size(), 1u);
}

TEST(ReactionNetwork, MaxOrder) {
  ReactionNetwork net;
  const SpeciesId a = net.add_species("A");
  net.add({}, {{a, 1}}, RateCategory::kSlow);
  EXPECT_EQ(net.max_order(), 0u);
  net.add({{a, 2}}, {}, RateCategory::kFast);
  EXPECT_EQ(net.max_order(), 2u);
}

TEST(ReactionNetwork, ReactionToString) {
  ReactionNetwork net;
  const SpeciesId a = net.add_species("A");
  const SpeciesId b = net.add_species("B");
  const ReactionId r =
      net.add({{a, 2}}, {{b, 1}}, RateCategory::kFast, 0.0, "halve");
  const std::string text = net.reaction_to_string(r);
  EXPECT_NE(text.find("2 A"), std::string::npos);
  EXPECT_NE(text.find("fast"), std::string::npos);
  EXPECT_NE(text.find("halve"), std::string::npos);
}

TEST(ReactionNetwork, ZeroOrderRendersAsZero) {
  ReactionNetwork net;
  const SpeciesId a = net.add_species("A");
  const ReactionId r = net.add({}, {{a, 1}}, RateCategory::kSlow);
  EXPECT_NE(net.reaction_to_string(r).find("0 ->"), std::string::npos);
}

TEST(ReactionNetwork, InvalidIdsThrow) {
  ReactionNetwork net;
  EXPECT_THROW((void)net.species(SpeciesId{0}), std::out_of_range);
  EXPECT_THROW((void)net.reaction(ReactionId{0}), std::out_of_range);
  EXPECT_THROW((void)net.species(SpeciesId::invalid()), std::out_of_range);
}

TEST(NetworkStats, CountsByCategory) {
  ReactionNetwork net;
  const SpeciesId a = net.add_species("A");
  net.add({}, {{a, 1}}, RateCategory::kSlow);
  net.add({{a, 1}}, {}, RateCategory::kFast);
  net.add({{a, 2}}, {}, RateCategory::kCustom, 1.0);
  const NetworkStats stats = compute_stats(net);
  EXPECT_EQ(stats.species, 1u);
  EXPECT_EQ(stats.reactions, 3u);
  EXPECT_EQ(stats.slow_reactions, 1u);
  EXPECT_EQ(stats.fast_reactions, 1u);
  EXPECT_EQ(stats.custom_reactions, 1u);
  EXPECT_EQ(stats.max_order, 2u);
  EXPECT_EQ(stats.zero_order_sources, 1u);
}

}  // namespace
}  // namespace mrsc::core
