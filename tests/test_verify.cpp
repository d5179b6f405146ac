// The verification subsystem, verified: generator determinism, oracles on
// healthy and deliberately corrupted networks, and the shrinker's guarantee
// of a minimal reproducing network.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/builder.hpp"
#include "core/io.hpp"
#include "stress/fault.hpp"
#include "verify/generator.hpp"
#include "verify/oracles.hpp"
#include "verify/shrink.hpp"
#include "verify/verify.hpp"

namespace mrsc::verify {
namespace {

using core::ReactionNetwork;

/// Cheap settings for tests: short circuits, no ensembles.
VerifyOptions fast_options() {
  VerifyOptions options;
  options.generator.cycles = 2;
  options.differential = false;
  options.robustness = false;
  return options;
}

TEST(ParseKinds, EmptyMeansAllFive) {
  const auto kinds = parse_kinds("");
  ASSERT_EQ(kinds.size(), 5u);
  EXPECT_EQ(kinds[0], CaseKind::kRawNetwork);
  EXPECT_EQ(kinds[4], CaseKind::kCounter);
}

TEST(ParseKinds, SubsetAndOrderPreserved) {
  const auto kinds = parse_kinds("dual,raw");
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], CaseKind::kDualRailCircuit);
  EXPECT_EQ(kinds[1], CaseKind::kRawNetwork);
}

TEST(ParseKinds, UnknownKindThrows) {
  EXPECT_THROW((void)parse_kinds("sync,banana"), std::invalid_argument);
  EXPECT_THROW((void)parse_kinds("fsm,,raw"), std::invalid_argument);
  EXPECT_THROW((void)parse_kinds(","), std::invalid_argument);
}

TEST(ParseKinds, OneTrailingCommaIsDropped) {
  // The shared util::split_commas rule, as for every other CLI list.
  const auto kinds = parse_kinds("fsm,");
  ASSERT_EQ(kinds.size(), 1u);
  EXPECT_EQ(kinds[0], CaseKind::kFsm);
}

TEST(Generator, SameSeedSameNetwork) {
  for (const CaseKind kind :
       {CaseKind::kRawNetwork, CaseKind::kSyncCircuit,
        CaseKind::kDualRailCircuit, CaseKind::kFsm, CaseKind::kCounter}) {
    const GeneratedCase a = generate_case(kind, 11, {});
    const GeneratedCase b = generate_case(kind, 11, {});
    EXPECT_EQ(core::serialize_network(a.network()),
              core::serialize_network(b.network()))
        << "kind " << to_string(kind);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  const GeneratedCase a = generate_case(CaseKind::kSyncCircuit, 1, {});
  const GeneratedCase b = generate_case(CaseKind::kSyncCircuit, 2, {});
  EXPECT_NE(core::serialize_network(a.network()),
            core::serialize_network(b.network()));
}

TEST(Generator, KindsAreDifferentStreams) {
  // The per-kind salt must decorrelate the streams: the same seed used for
  // two kinds should not produce the same reaction count by construction.
  const GeneratedCase raw = generate_case(CaseKind::kRawNetwork, 7, {});
  const GeneratedCase fsm = generate_case(CaseKind::kFsm, 7, {});
  EXPECT_NE(core::serialize_network(raw.network()),
            core::serialize_network(fsm.network()));
}

TEST(CheckCase, HealthyCasesPassEveryOracle) {
  const VerifyOptions options = fast_options();
  for (const CaseKind kind :
       {CaseKind::kRawNetwork, CaseKind::kSyncCircuit,
        CaseKind::kDualRailCircuit, CaseKind::kFsm, CaseKind::kCounter}) {
    const GeneratedCase c = generate_case(kind, 5, options.generator);
    const auto violations = check_case(c, options);
    EXPECT_TRUE(violations.empty())
        << "kind " << to_string(kind) << ": " << violations.front().oracle
        << ": " << violations.front().detail;
  }
}

TEST(FaultInjection, IncrementsFirstProductStoichiometry) {
  ReactionNetwork net;
  core::NetworkBuilder b(net);
  b.species("A", 1.0);
  b.species("B", 0.0);
  b.reaction("A -> B", 1.0);
  const ReactionNetwork faulted =
      stress::with_stoichiometry_fault(net, core::ReactionId{0});
  ASSERT_EQ(faulted.reaction(core::ReactionId{0}).products().size(), 1u);
  EXPECT_EQ(faulted.reaction(core::ReactionId{0}).products()[0].stoich, 2u);
  // The original is untouched.
  EXPECT_EQ(net.reaction(core::ReactionId{0}).products()[0].stoich, 1u);
}

TEST(FaultInjection, SinkGainsItsReactantAsProduct) {
  ReactionNetwork net;
  core::NetworkBuilder b(net);
  b.species("A", 1.0);
  b.reaction("A -> 0", 1.0);
  const ReactionNetwork faulted =
      stress::with_stoichiometry_fault(net, core::ReactionId{0});
  ASSERT_EQ(faulted.reaction(core::ReactionId{0}).products().size(), 1u);
  EXPECT_EQ(faulted.reaction(core::ReactionId{0}).products()[0].species,
            core::SpeciesId{0});
}

/// The ISSUE's acceptance scenario: corrupt one clock hop reaction of a
/// generated synchronous circuit (token duplication — the molecular analogue
/// of a single defective gate) and require the oracles to flag it and the
/// shrinker to reduce it to a minimal repro.
TEST(FaultInjection, CorruptedClockIsCaughtAndShrunk) {
  const VerifyOptions options = fast_options();
  GeneratedCase c =
      generate_case(CaseKind::kSyncCircuit, 3, options.generator);

  const core::ReactionId target = stress::find_reaction_by_label(
      c.network(), "f_clk.hop.r2g.seed");
  ReactionNetwork faulted =
      stress::with_stoichiometry_fault(c.network(), target);
  std::get<SyncCase>(c.payload).network = std::move(faulted);

  const auto violations = check_case(c, options);
  ASSERT_FALSE(violations.empty());
  bool clock_flagged = false;
  for (const Violation& v : violations) {
    if (v.oracle == "clock_phase_token") clock_flagged = true;
  }
  EXPECT_TRUE(clock_flagged)
      << "first violation: " << violations.front().oracle << ": "
      << violations.front().detail;

  const auto shrunk = shrink_case(c, "clock_phase_token", options);
  ASSERT_TRUE(shrunk.has_value());
  EXPECT_TRUE(shrunk->reproduced);
  EXPECT_LT(shrunk->final_reactions, shrunk->original_reactions);
  // The corrupted hop must survive shrinking (dropping it would lose the
  // violation), and the repro must still be a valid, serializable network.
  bool kept_faulted_hop = false;
  for (std::size_t i = 0; i < shrunk->network.reaction_count(); ++i) {
    if (shrunk->network.reaction(
            core::ReactionId{static_cast<std::uint32_t>(i)}).label() ==
        "f_clk.hop.r2g.seed") {
      kept_faulted_hop = true;
    }
  }
  EXPECT_TRUE(kept_faulted_hop);
  EXPECT_FALSE(core::serialize_network(shrunk->network).empty());
}

TEST(Shrink, ReducesToTheOneGuiltyReaction) {
  // Ten independent decays; the predicate only cares about reaction 7.
  ReactionNetwork net;
  core::NetworkBuilder b(net);
  for (int i = 0; i < 10; ++i) {
    b.species("A" + std::to_string(i), 1.0);
    b.species("B" + std::to_string(i), 0.0);
    b.reaction("A" + std::to_string(i) + " -> B" + std::to_string(i), 1.0);
  }
  const std::string guilty = net.reaction(core::ReactionId{7}).label();
  auto violates = [&](const ReactionNetwork& candidate) {
    for (std::size_t i = 0; i < candidate.reaction_count(); ++i) {
      const auto& r =
          candidate.reaction(core::ReactionId{static_cast<std::uint32_t>(i)});
      if (r.reactants() == net.reaction(core::ReactionId{7}).reactants() &&
          r.products() == net.reaction(core::ReactionId{7}).products()) {
        return true;
      }
    }
    return false;
  };
  (void)guilty;
  const ShrinkResult result = shrink_network(net, violates, {});
  EXPECT_TRUE(result.reproduced);
  EXPECT_EQ(result.final_reactions, 1u);
  EXPECT_EQ(result.original_reactions, 10u);
}

TEST(Shrink, NonReproducingPredicateReportsItself) {
  ReactionNetwork net;
  core::NetworkBuilder b(net);
  b.species("A", 1.0);
  b.reaction("A -> A", 1.0);
  const ShrinkResult result =
      shrink_network(net, [](const ReactionNetwork&) { return false; }, {});
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(result.final_reactions, result.original_reactions);
}

TEST(Shrink, PruneDropsOnlyUntouchedZeroSpecies) {
  ReactionNetwork net;
  core::NetworkBuilder b(net);
  b.species("used", 1.0);
  b.species("unused_zero", 0.0);
  b.species("unused_initial", 0.5);  // kept: nonzero initial affects laws
  b.reaction("used -> used", 1.0);
  const ReactionNetwork pruned = prune_unreferenced_species(net);
  EXPECT_EQ(pruned.species_count(), 2u);
  EXPECT_TRUE(pruned.find_species("used").has_value());
  EXPECT_TRUE(pruned.find_species("unused_initial").has_value());
  EXPECT_FALSE(pruned.find_species("unused_zero").has_value());
}

TEST(Oracles, SeriesMismatchNamesTheCycle) {
  const std::vector<double> actual = {1.0, 2.0, 9.0};
  const std::vector<double> expected = {1.0, 2.0, 3.0};
  const auto v =
      check_series_match("demo", actual, expected, SeriesTolerance{0.1, 0.1});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->oracle, "demo");
  EXPECT_NE(v->detail.find("2"), std::string::npos);  // failing index
}

TEST(Oracles, MatchingSeriesPasses) {
  const std::vector<double> actual = {1.0, 2.001, 3.0};
  const std::vector<double> expected = {1.0, 2.0, 3.0};
  EXPECT_FALSE(check_series_match("demo", actual, expected,
                                  SeriesTolerance{0.01, 0.01})
                   .has_value());
}

TEST(RunFuzz, CleanSweepOverAllKinds) {
  VerifyOptions options = fast_options();
  options.seeds = 10;  // two per kind
  const FuzzReport report = run_fuzz(options);
  EXPECT_EQ(report.checked, 10u);
  EXPECT_EQ(report.failed, 0u) << describe(report.cases.front());
  for (const CaseResult& result : report.cases) {
    EXPECT_TRUE(result.violations.empty()) << describe(result);
  }
}

TEST(RunFuzz, ParallelSweepMatchesSerial) {
  VerifyOptions options = fast_options();
  options.seeds = 5;
  options.kinds = {CaseKind::kRawNetwork, CaseKind::kFsm};
  const FuzzReport serial = run_fuzz(options);
  options.threads = 4;
  const FuzzReport parallel = run_fuzz(options);
  ASSERT_EQ(serial.cases.size(), parallel.cases.size());
  for (std::size_t i = 0; i < serial.cases.size(); ++i) {
    EXPECT_EQ(serial.cases[i].seed, parallel.cases[i].seed);
    EXPECT_EQ(serial.cases[i].kind, parallel.cases[i].kind);
    EXPECT_EQ(serial.cases[i].violations.size(),
              parallel.cases[i].violations.size());
  }
}

}  // namespace
}  // namespace mrsc::verify
