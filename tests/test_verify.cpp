// The verification subsystem, verified: generator determinism, oracles on
// healthy and deliberately corrupted networks, and the shrinker's guarantee
// of a minimal reproducing network.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/decode.hpp"
#include "core/builder.hpp"
#include "core/io.hpp"
#include "sim/trajectory.hpp"
#include "stress/fault.hpp"
#include "sync/clock.hpp"
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
  const ShrinkResult result = shrink_network(net, violates);
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
      shrink_network(net, [](const ReactionNetwork&) { return false; });
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
      check_series_match("demo", actual, expected, 0.1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->oracle, "demo");
  EXPECT_NE(v->detail.find("2"), std::string::npos);  // failing index
}

TEST(Oracles, MatchingSeriesPasses) {
  const std::vector<double> actual = {1.0, 2.001, 3.0};
  const std::vector<double> expected = {1.0, 2.0, 3.0};
  EXPECT_FALSE(
      check_series_match("demo", actual, expected, 0.01).has_value());
}

/// A decoder with nothing to drive: check_decoded only reads `exact` and
/// `columns`.
class StubDecoder final : public analysis::Decoder {
 public:
  void inject(std::span<double> /*state*/, double /*sample*/) const override {}
  void read(std::span<double> /*state*/,
            std::span<double> /*row*/) const override {}
  [[nodiscard]] analysis::Columns reference(
      std::span<const double> /*stimulus*/) const override {
    return {};
  }
};

/// One sample per row, at unit time steps.
sim::Trajectory trajectory_of(const std::vector<std::vector<double>>& rows) {
  sim::Trajectory trajectory(rows.front().size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    trajectory.append(static_cast<double>(k), rows[k]);
  }
  return trajectory;
}

// Each trajectory-oracle threshold, probed 1% inside and 1% outside its value
// (docs/VERIFY.md gives the rationale of each). The literals below are
// derived from the thresholds, so moving any one of them fails this test.
TEST(Oracles, InvariantThresholdsHoldAtTheirBoundaries) {
  ReactionNetwork net;
  core::NetworkBuilder b(net);
  b.species("A", 0.0);
  b.species("B", 0.0);
  b.species("C", 0.0);
  b.reaction("A -> B", 1.0);  // laws: A + B and C

  // Negativity floor: -1e-6.
  EXPECT_FALSE(
      check_non_negative(net, trajectory_of({{-0.99e-6, 0, 0}})).has_value());
  EXPECT_TRUE(
      check_non_negative(net, trajectory_of({{-1.01e-6, 0, 0}})).has_value());

  // Conservation band: 1e-3 * |initial| + 1e-6. A law starting at 0 probes
  // the absolute slack, one starting at 1000 the relative part.
  const auto drifts = [&](double initial, double later) {
    return check_conservation(net,
                              trajectory_of({{initial, 0, 0}, {later, 0, 0}}))
        .has_value();
  };
  EXPECT_FALSE(drifts(0.0, 0.99e-6));
  EXPECT_TRUE(drifts(0.0, 1.01e-6));
  EXPECT_FALSE(drifts(1000.0, 1000.99));
  EXPECT_TRUE(drifts(1000.0, 1001.01));

  // Clock phase token at token 2: a phase is high above 0.6 * 2 = 1.2, the
  // one-phase-high duty floor is 0.3, and the first 15% of the samples are
  // warm-up. 1176 samples leave samples 176.. (1000 of them) after it.
  using Rows = std::vector<std::vector<double>>;
  sync::ClockHandles clock;
  clock.phase_r = core::SpeciesId{0};
  clock.phase_g = core::SpeciesId{1};
  clock.phase_b = core::SpeciesId{2};
  clock.token = 2.0;
  const auto clock_fails = [&](const auto& edit) {
    Rows rows(1176, {2.0, 0.0, 0.0});
    edit(rows);
    return check_clock_phase_token(clock, trajectory_of(rows)).has_value();
  };
  EXPECT_FALSE(clock_fails([](Rows& rows) { rows[600][1] = 1.188; }));
  EXPECT_TRUE(clock_fails([](Rows& rows) { rows[600][1] = 1.212; }));
  EXPECT_FALSE(clock_fails([](Rows& rows) { rows[175][1] = 2.0; }));
  EXPECT_TRUE(clock_fails([](Rows& rows) { rows[176][1] = 2.0; }));
  const auto single_phase_tail = [](std::size_t tail) {
    return [tail](Rows& rows) {
      for (std::size_t k = 0; k + tail < rows.size(); ++k) rows[k][0] = 0.0;
    };
  };
  EXPECT_FALSE(clock_fails(single_phase_tail(301)));  // duty 0.301
  EXPECT_TRUE(clock_fails(single_phase_tail(299)));   // duty 0.299

  // Rail exclusivity: a pair overlaps where min(p, n) > 0.1, and fails when
  // it overlaps on more than 60% of the post-warm-up samples.
  const std::vector<std::pair<core::SpeciesId, core::SpeciesId>> pairs = {
      {core::SpeciesId{0}, core::SpeciesId{1}}};
  const auto rails_fail = [&](std::size_t overlapping, double common) {
    Rows rows(1176, {1.0, 0.0, 0.0});
    for (std::size_t k = rows.size() - overlapping; k < rows.size(); ++k) {
      rows[k] = {common, common, 0.0};
    }
    return check_dual_rail_exclusive(net, trajectory_of(rows), pairs)
        .has_value();
  };
  EXPECT_FALSE(rails_fail(1000, 0.099));
  EXPECT_TRUE(rails_fail(1000, 0.101));
  EXPECT_FALSE(rails_fail(599, 0.2));
  EXPECT_TRUE(rails_fail(601, 0.2));

  // Functional series: |a - e| <= tol + tol * |e|, tol = 0.06 for
  // single-rail decoders (bands 0.06 at e = 0 and 0.66 at e = 10) and 0 for
  // exact ones.
  StubDecoder decoder;
  decoder.columns = {"out"};
  analysis::DecodedRun run;
  run.expected = {{0.0, 10.0}};
  const auto series_fails = [&](double at_zero, double at_ten, bool exact) {
    run.outputs = {{at_zero, at_ten}};
    decoder.exact = exact;
    return check_decoded("demo", run, decoder, kFunctionalTolerance)
        .has_value();
  };
  EXPECT_FALSE(series_fails(0.0594, 10.6534, false));
  EXPECT_TRUE(series_fails(0.0606, 10.0, false));
  EXPECT_TRUE(series_fails(0.0, 10.6666, false));
  EXPECT_FALSE(series_fails(0.0, 10.0, true));
  EXPECT_TRUE(series_fails(0.0, 10.0 + 1e-9, true));
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
