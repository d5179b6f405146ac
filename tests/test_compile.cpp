// Tests for the shared compile pipeline: canonicalization, duplicate
// coalescing, dead-species elimination, the -O1 == -O0 trajectory guarantee,
// and the per-pass report.
#include "compile/passes.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "compile/context.hpp"
#include "compile/report.hpp"
#include "core/builder.hpp"
#include "dsp/filters.hpp"
#include "sim/ode.hpp"
#include "util/json.hpp"

namespace mrsc::compile {
namespace {

using core::NetworkBuilder;
using core::RateCategory;
using core::ReactionNetwork;
using core::SpeciesId;

TEST(Canonicalize, SortsAndMergesTerms) {
  ReactionNetwork net;
  NetworkBuilder builder(net);
  builder.species("A", 1.0);
  builder.species("B", 1.0);
  // Written backwards and with a repeated reactant.
  builder.reaction("B + A + A -> B + A", RateCategory::kFast);

  const auto result = optimize_network(net, {});
  ASSERT_EQ(net.reaction_count(), 1u);
  const core::Reaction& r = net.reactions()[0];
  ASSERT_EQ(r.reactants().size(), 2u);
  // Terms sorted by species id: A (2x) before B.
  EXPECT_EQ(r.reactants()[0].species, *net.find_species("A"));
  EXPECT_EQ(r.reactants()[0].stoich, 2u);
  EXPECT_EQ(r.reactants()[1].species, *net.find_species("B"));
  EXPECT_EQ(r.reactants()[1].stoich, 1u);
  EXPECT_FALSE(result.report.passes.empty());
}

TEST(CoalesceDuplicates, MergesIdenticalReactionsSummingMultipliers) {
  ReactionNetwork net;
  NetworkBuilder builder(net);
  builder.species("X", 2.0);
  builder.species("Y", 0.0);
  // Three copies of the same slow transfer (one spelled with the reactants
  // reversed, so canonicalization has to run first), one with a multiplier.
  builder.species("C", 1.0);
  builder.reaction("C + X -> C + Y", RateCategory::kSlow);
  builder.reaction("X + C -> Y + C", RateCategory::kSlow);
  const core::ReactionId third =
      builder.reaction("C + X -> C + Y", RateCategory::kSlow);
  net.reaction_mutable(third).set_rate_multiplier(0.5);
  // A different reaction that must NOT be merged (other category).
  builder.reaction("C + X -> C + Y", RateCategory::kFast);

  optimize_network(net, {});
  ASSERT_EQ(net.reaction_count(), 2u);
  double slow_multiplier = 0.0;
  for (const core::Reaction& r : net.reactions()) {
    if (r.category() == RateCategory::kSlow) {
      slow_multiplier = r.rate_multiplier();
    }
  }
  // 1.0 + 1.0 + 0.5: the merged reaction fires at the summed propensity.
  EXPECT_DOUBLE_EQ(slow_multiplier, 2.5);
}

TEST(DeadSpeciesElim, DropsUnreachableConeButKeepsRoots) {
  ReactionNetwork net;
  NetworkBuilder builder(net);
  builder.species("live", 1.0);
  builder.species("dead_in", 0.0);   // never produced, initial 0
  builder.species("dead_out", 0.0);  // only produced from dead_in
  builder.species("pinned", 0.0);    // same, but declared a root
  builder.reaction("live -> live + live", RateCategory::kSlow);
  builder.reaction("dead_in -> dead_out", RateCategory::kFast);

  const SpeciesId pinned = *net.find_species("pinned");
  const std::vector<SpeciesId> roots = {pinned};
  const auto result = optimize_network(net, roots);

  EXPECT_EQ(net.species_count(), 2u);  // live + pinned survive
  EXPECT_EQ(net.reaction_count(), 1u);
  EXPECT_TRUE(net.find_species("live").has_value());
  EXPECT_TRUE(net.find_species("pinned").has_value());
  EXPECT_FALSE(net.find_species("dead_in").has_value());
  // The remap reports the eliminations (original ids 1 and 2).
  ASSERT_EQ(result.remap.size(), 4u);
  EXPECT_NE(result.remap[0], SpeciesId::invalid());
  EXPECT_EQ(result.remap[1], SpeciesId::invalid());
  EXPECT_EQ(result.remap[2], SpeciesId::invalid());
  EXPECT_EQ(net.species_name(result.remap[3]), "pinned");
}

TEST(DeadSpeciesElim, RemapTracksSurvivors) {
  ReactionNetwork net;
  NetworkBuilder builder(net);
  builder.species("gone", 0.0);
  builder.species("kept", 1.0);
  builder.reaction("kept -> 2 kept", RateCategory::kSlow);

  const auto result = optimize_network(net, {});
  ASSERT_EQ(result.remap.size(), 2u);
  EXPECT_EQ(result.remap[0], SpeciesId::invalid());
  EXPECT_EQ(net.species_name(result.remap[1]), "kept");
}

// The headline pipeline guarantee: compiling a real design at kO1 must give
// the same deterministic trajectory for every interface species as kO0.
TEST(Pipeline, MovingAverageO1MatchesO0Trajectory) {
  auto plain = dsp::make_moving_average();
  compile::CompileOptions o1;
  o1.opt = compile::OptLevel::kO1;
  auto optimized = dsp::make_moving_average({}, o1);

  EXPECT_LE(optimized.network->species_count(), plain.network->species_count());

  sim::OdeOptions ode;
  ode.method = sim::OdeMethod::kRk4Fixed;
  ode.t_end = 40.0;
  ode.dt = 1e-3;
  ode.record_interval = 0.5;
  const auto base = sim::simulate_ode(*plain.network, ode);
  const auto opt = sim::simulate_ode(*optimized.network, ode);

  ASSERT_EQ(base.trajectory.sample_count(), opt.trajectory.sample_count());
  for (const auto& [name, plain_id] : plain.circuit.outputs) {
    const SpeciesId opt_id = optimized.circuit.output(name);
    for (std::size_t k = 0; k < base.trajectory.sample_count(); ++k) {
      ASSERT_NEAR(base.trajectory.value(k, plain_id),
                  opt.trajectory.value(k, opt_id), 1e-9)
          << name << " diverges at sample " << k;
    }
  }
}

// assume_zero_inputs: promising the unused negative input rail of the
// first-difference filter stays zero lets DSE delete its whole cone.
TEST(Pipeline, AssumeZeroInputShrinksFirstDifference) {
  compile::CompileOptions o1;
  o1.opt = compile::OptLevel::kO1;
  auto base = dsp::make_first_difference({}, o1);

  compile::CompileOptions assume = o1;
  assume.assume_zero_inputs = {"x_n"};
  compile::CompileReport report;
  assume.report = &report;
  auto shrunk = dsp::make_first_difference({}, assume);

  EXPECT_LT(shrunk.network->reaction_count(), base.network->reaction_count());
  EXPECT_LT(shrunk.network->species_count(), base.network->species_count());
  // The assumed-zero port vanishes from the handle map...
  EXPECT_EQ(shrunk.circuit.inputs.count("x_n"), 0u);
  // ...while the live interface stays addressable.
  EXPECT_TRUE(shrunk.circuit.inputs.count("x_p"));
  EXPECT_TRUE(shrunk.circuit.outputs.count("y_p"));
  EXPECT_TRUE(shrunk.circuit.outputs.count("y_n"));
  EXPECT_GT(report.before.reactions, report.after.reactions);

  // Trajectory equivalence still holds when x_n really is never driven.
  sim::OdeOptions ode;
  ode.method = sim::OdeMethod::kRk4Fixed;
  ode.t_end = 40.0;
  ode.dt = 1e-3;
  ode.record_interval = 0.5;
  const auto full = sim::simulate_ode(*base.network, ode);
  const auto cut = sim::simulate_ode(*shrunk.network, ode);
  for (const std::string name : {"y_p", "y_n"}) {
    const SpeciesId a = base.circuit.output(name);
    const SpeciesId b = shrunk.circuit.output(name);
    for (std::size_t k = 0; k < full.trajectory.sample_count(); ++k) {
      ASSERT_NEAR(full.trajectory.value(k, a), cut.trajectory.value(k, b),
                  1e-9);
    }
  }
}

TEST(Validate, UngatedSlowTransferThrows) {
  ReactionNetwork net;
  LoweringContext ctx(net, "bad");
  const SpeciesId from = ctx.species("from", 1.0);
  const SpeciesId to = ctx.species("to");
  const SpeciesId gate = ctx.species("gate", 1.0);
  // A gated transfer whose gate was never declared a clock root: the
  // validation pass cannot prove the slow transfer is phase-gated.
  ctx.gated_transfer(from, to, gate, "bad.hop");
  CompileOptions options;  // validate = true
  EXPECT_THROW((void)ctx.finalize(options), std::logic_error);
}

TEST(Validate, GatedTransferWithClockRootPasses) {
  ReactionNetwork net;
  LoweringContext ctx(net, "ok");
  const SpeciesId from = ctx.species("from", 1.0);
  const SpeciesId to = ctx.species("to");
  const SpeciesId gate = ctx.species("gate", 1.0);
  ctx.declare_root(gate, PortRole::kClock);
  ctx.declare_root(from, PortRole::kInput);
  ctx.declare_root(to, PortRole::kOutput);
  ctx.gated_transfer(from, to, gate, "ok.hop");
  CompileOptions options;
  EXPECT_NO_THROW((void)ctx.finalize(options));
}

TEST(Report, RecordsEveryPassAndSerializes) {
  compile::CompileOptions options;
  options.opt = compile::OptLevel::kO1;
  compile::CompileReport report;
  options.report = &report;
  auto design = dsp::make_moving_average({}, options);

  EXPECT_EQ(report.design, "ma");
  EXPECT_GE(report.passes.size(), 4u);  // validate + the kO1 passes
  EXPECT_GT(report.before.reactions, 0u);
  EXPECT_LE(report.after.species, report.before.species);

  const util::json::Value json = report.to_value();
  EXPECT_EQ(json.get_string("design", ""), "ma");
  const util::json::Value* passes = json.find("passes");
  ASSERT_NE(passes, nullptr);
  ASSERT_EQ(passes->type(), util::json::Value::Type::kArray);
  bool dead_species_elim = false;
  for (const util::json::Value& pass : passes->as_array()) {
    dead_species_elim |= pass.get_string("name", "") == "dead-species-elim";
  }
  EXPECT_TRUE(dead_species_elim);
  const std::string table = report.to_table();
  EXPECT_NE(table.find("total:"), std::string::npos);
}

}  // namespace
}  // namespace mrsc::compile
