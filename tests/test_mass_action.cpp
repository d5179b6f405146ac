#include "sim/engine/compiled_system.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/builder.hpp"
#include "util/rng.hpp"

namespace mrsc::sim {
namespace {

using core::NetworkBuilder;
using core::RateCategory;
using core::ReactionNetwork;
using core::SpeciesId;

TEST(MassAction, FluxOfUnimolecular) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("A -> B", 2.0);
  const CompiledSystem system(net);
  const std::vector<double> x = {3.0, 0.0};
  EXPECT_DOUBLE_EQ(system.flux(0, x), 6.0);
}

TEST(MassAction, FluxOfBimolecularAndSecondOrder) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("A + B -> C", 2.0);
  b.reaction("2 A -> C", 3.0);
  const CompiledSystem system(net);
  const std::vector<double> x = {2.0, 5.0, 0.0};
  EXPECT_DOUBLE_EQ(system.flux(0, x), 2.0 * 2.0 * 5.0);
  EXPECT_DOUBLE_EQ(system.flux(1, x), 3.0 * 2.0 * 2.0);
}

TEST(MassAction, FluxOfZeroOrder) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("0 -> A", 0.7);
  const CompiledSystem system(net);
  const std::vector<double> x = {0.0};
  EXPECT_DOUBLE_EQ(system.flux(0, x), 0.7);
}

TEST(MassAction, RhsOfDecay) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("A -> B", 2.0);
  const CompiledSystem system(net);
  const std::vector<double> x = {3.0, 1.0};
  std::vector<double> dxdt(2);
  system.rhs(x, dxdt);
  EXPECT_DOUBLE_EQ(dxdt[0], -6.0);
  EXPECT_DOUBLE_EQ(dxdt[1], 6.0);
}

TEST(MassAction, RhsMergesDuplicateTerms) {
  // A + A -> B written as two single terms must behave like 2A -> B.
  ReactionNetwork net;
  const SpeciesId a = net.add_species("A");
  const SpeciesId bb = net.add_species("B");
  net.add({{a, 1}, {a, 1}}, {{bb, 1}}, RateCategory::kCustom, 1.0);
  const CompiledSystem system(net);
  const std::vector<double> x = {3.0, 0.0};
  std::vector<double> dxdt(2);
  system.rhs(x, dxdt);
  EXPECT_DOUBLE_EQ(dxdt[0], -18.0);  // -2 * k * A^2
  EXPECT_DOUBLE_EQ(dxdt[1], 9.0);
}

TEST(MassAction, CatalystHasZeroNetChange) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("C + A -> C + B", 1.0);
  const CompiledSystem system(net);
  const std::vector<double> x = {2.0, 3.0, 0.0};  // C, A, B
  std::vector<double> dxdt(3);
  system.rhs(x, dxdt);
  EXPECT_DOUBLE_EQ(dxdt[0], 0.0);
  EXPECT_DOUBLE_EQ(dxdt[1], -6.0);
  EXPECT_DOUBLE_EQ(dxdt[2], 6.0);
}

TEST(MassAction, UsesEffectivePolicyRates) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("A -> B", RateCategory::kFast);
  net.set_rate_policy(core::RatePolicy{1.0, 123.0});
  const CompiledSystem system(net);
  const std::vector<double> x = {1.0, 0.0};
  EXPECT_DOUBLE_EQ(system.flux(0, x), 123.0);
}

// Property: the analytic Jacobian matches central finite differences on
// randomly generated networks.
class JacobianTest : public ::testing::TestWithParam<int> {};

TEST_P(JacobianTest, MatchesFiniteDifferences) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  ReactionNetwork net;
  const std::size_t n_species = 3 + rng.uniform_below(4);
  for (std::size_t i = 0; i < n_species; ++i) {
    net.add_species("S" + std::to_string(i));
  }
  const std::size_t n_reactions = 4 + rng.uniform_below(6);
  for (std::size_t j = 0; j < n_reactions; ++j) {
    std::vector<core::Term> reactants;
    const std::size_t order = rng.uniform_below(3);  // 0..2
    for (std::size_t o = 0; o < order; ++o) {
      reactants.push_back(
          {SpeciesId{static_cast<SpeciesId::underlying_type>(
               rng.uniform_below(n_species))},
           static_cast<std::uint32_t>(1 + rng.uniform_below(2))});
    }
    std::vector<core::Term> products = {
        {SpeciesId{static_cast<SpeciesId::underlying_type>(
             rng.uniform_below(n_species))},
         1}};
    if (reactants.empty() && products.empty()) continue;
    if (reactants.empty()) {
      net.add({}, std::move(products), RateCategory::kCustom,
              rng.uniform(0.1, 5.0));
    } else {
      net.add(std::move(reactants), std::move(products),
              RateCategory::kCustom, rng.uniform(0.1, 5.0));
    }
  }
  const CompiledSystem system(net);
  std::vector<double> x(n_species);
  for (double& v : x) v = rng.uniform(0.1, 2.0);

  util::Matrix jac;
  system.jacobian(x, jac);

  const double h = 1e-6;
  std::vector<double> plus(n_species), minus(n_species);
  for (std::size_t col = 0; col < n_species; ++col) {
    std::vector<double> xp = x, xm = x;
    xp[col] += h;
    xm[col] -= h;
    system.rhs(xp, plus);
    system.rhs(xm, minus);
    for (std::size_t row = 0; row < n_species; ++row) {
      const double fd = (plus[row] - minus[row]) / (2.0 * h);
      EXPECT_NEAR(jac(row, col), fd, 1e-5)
          << "d f[" << row << "] / d x[" << col << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JacobianTest, ::testing::Range(0, 10));

TEST(MassAction, PropensityUnimolecular) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("A -> B", 2.0);
  const CompiledSystem system(net);
  const std::vector<std::int64_t> n = {5, 0};
  // Unimolecular: a = k * n_A (independent of omega).
  EXPECT_DOUBLE_EQ(system.propensity(0, n, 100.0), 10.0);
}

TEST(MassAction, PropensityBimolecularScalesWithVolume) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("A + B -> C", 2.0);
  const CompiledSystem system(net);
  const std::vector<std::int64_t> n = {5, 4, 0};
  EXPECT_DOUBLE_EQ(system.propensity(0, n, 10.0), 2.0 * 5.0 * 4.0 / 10.0);
}

TEST(MassAction, PropensityHomodimerCombinatorics) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("2 A -> B", 3.0);
  const CompiledSystem system(net);
  const std::vector<std::int64_t> n = {5, 0};
  // falling factorial: 5 * 4.
  EXPECT_DOUBLE_EQ(system.propensity(0, n, 10.0), 3.0 * 5.0 * 4.0 / 10.0);
  const std::vector<std::int64_t> one = {1, 0};
  EXPECT_DOUBLE_EQ(system.propensity(0, one, 10.0), 0.0);
}

TEST(MassAction, PropensityZeroOrder) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("0 -> A", 0.5);
  const CompiledSystem system(net);
  const std::vector<std::int64_t> n = {0};
  EXPECT_DOUBLE_EQ(system.propensity(0, n, 20.0), 0.5 * 20.0);
}

TEST(MassAction, ApplyFiring) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("2 A -> B", 1.0);
  const CompiledSystem system(net);
  std::vector<std::int64_t> n = {5, 1};
  system.apply(0, n);
  EXPECT_EQ(n[0], 3);
  EXPECT_EQ(n[1], 2);
}

TEST(MassAction, DependencyGraph) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("A -> B", 1.0);   // r0 changes A, B
  b.reaction("B -> C", 1.0);   // r1 reads B
  b.reaction("C -> A", 1.0);   // r2 reads C
  const CompiledSystem system(net);
  // Firing r0 changes A (read by r0) and B (read by r1).
  const auto affected = [&](std::size_t j) {
    const auto span = system.affected_reactions(j);
    return std::vector<std::uint32_t>(span.begin(), span.end());
  };
  EXPECT_EQ(affected(0), (std::vector<std::uint32_t>{0, 1}));
  // Firing r1 changes B (r1) and C (r2).
  EXPECT_EQ(affected(1), (std::vector<std::uint32_t>{1, 2}));
}

}  // namespace
}  // namespace mrsc::sim
