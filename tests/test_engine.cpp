// Harness for the compiled simulation engine.
//
// `CompiledSystem` is the one form every simulator runs against, so this file
// pins both how it is built and how it evaluates:
//
//   * the CSR tables built straight from the network (rates, orders, kernel
//     tags, merged reactants, net changes, species incidence, the
//     next-reaction dependency graph and the pure-catalysis flags) equal an
//     in-test reference build over ordered maps and sets, on every built-in
//     design, the scale catalog, and fuzz-generated networks;
//   * the shape-specialized kernels are bitwise equal to the generic
//     mass-action formulas (flux, rhs, propensity, apply), the two-pass RHS
//     is bytewise the reaction-major loop it replaced, and the footprint
//     charges every compiled array;
//   * the next-reaction stale-propensity skip, regressed against an in-test
//     reference NRM that always recomputes (identical RNG draw order);
//   * the incremental direct method, regressed bitwise against an in-test
//     copy of the full-recompute loop, and its propensity-evaluation count;
//   * the direct method's active set: its cached totals against the dense
//     sum, its selection against the dense scan, and the entries each
//     per-event total visits;
//   * a shared CompiledSystem across an ensemble gives the same bits at any
//     worker count as compiling per replicate.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/builder.hpp"
#include "core/network.hpp"
#include "runtime/ensemble.hpp"
#include "scenario/registry.hpp"
#include "sim/engine/active_set.hpp"
#include "sim/engine/arena.hpp"
#include "sim/engine/compiled_system.hpp"
#include "sim/ssa.hpp"
#include "util/rng.hpp"
#include "verify/generator.hpp"

namespace mrsc::sim {
namespace {

using core::NetworkBuilder;
using core::ReactionNetwork;
using core::SpeciesId;

const std::vector<std::string> kBuiltinDesigns = {
    "counter", "moving_average", "iir",    "first_difference",
    "delay",   "seqdet",         "cascade"};

ReactionNetwork builtin_network(const std::string& name) {
  scenario::BuiltDesign design =
      scenario::ScenarioRegistry::global().resolve(name).design;
  return *design.network;
}

template <class T>
std::vector<T> to_vector(std::span<const T> span) {
  return {span.begin(), span.end()};
}

// ---------------------------------------------------------------------------
// Reference build: the textbook construction over ordered containers.

struct ReferenceReaction {
  double rate = 0.0;
  std::uint32_t order = 0;
  std::map<std::uint32_t, std::uint32_t> reactants;  // merged, species-sorted
  std::map<std::uint32_t, std::int32_t> net;         // nonzero deltas only
};

struct ReferenceSystem {
  std::vector<ReferenceReaction> reactions;
  std::vector<std::set<std::uint32_t>> species_dependents;
  std::vector<std::set<std::uint32_t>> affected;
};

ReferenceSystem reference_build(const ReactionNetwork& network) {
  ReferenceSystem ref;
  ref.species_dependents.resize(network.species_count());
  for (const core::Reaction& r : network.reactions()) {
    ReferenceReaction rr;
    rr.rate = network.effective_rate(r);
    rr.order = r.order();
    for (const core::Term& t : r.reactants()) {
      const auto idx = static_cast<std::uint32_t>(t.species.index());
      rr.reactants[idx] += t.stoich;
      rr.net[idx] -= static_cast<std::int32_t>(t.stoich);
    }
    for (const core::Term& t : r.products()) {
      rr.net[static_cast<std::uint32_t>(t.species.index())] +=
          static_cast<std::int32_t>(t.stoich);
    }
    std::erase_if(rr.net, [](const auto& entry) { return entry.second == 0; });
    const auto j = static_cast<std::uint32_t>(ref.reactions.size());
    for (const auto& [idx, stoich] : rr.reactants) {
      ref.species_dependents[idx].insert(j);
    }
    ref.reactions.push_back(std::move(rr));
  }
  // j -> k iff j == k or j changes the count of one of k's reactants.
  ref.affected.resize(ref.reactions.size());
  for (std::uint32_t j = 0; j < ref.reactions.size(); ++j) {
    ref.affected[j].insert(j);
    for (const auto& [idx, delta] : ref.reactions[j].net) {
      ref.affected[j].insert(ref.species_dependents[idx].begin(),
                             ref.species_dependents[idx].end());
    }
  }
  return ref;
}

ReactionKernel reference_kernel(const ReferenceReaction& rr) {
  if (rr.reactants.size() == 1) {
    const std::uint32_t stoich = rr.reactants.begin()->second;
    if (stoich == 1) return ReactionKernel::kUnimolecular;
    if (stoich == 2) return ReactionKernel::kDimer;
  } else if (rr.reactants.size() == 2 &&
             std::ranges::all_of(rr.reactants, [](const auto& entry) {
               return entry.second == 1;
             })) {
    return ReactionKernel::kBimolecular;
  }
  return ReactionKernel::kGeneric;
}

void expect_tables_match_reference(const ReactionNetwork& network,
                                   const std::string& context) {
  const CompiledSystem sys(network);
  const ReferenceSystem ref = reference_build(network);
  ASSERT_EQ(sys.species_count(), network.species_count()) << context;
  ASSERT_EQ(sys.reaction_count(), ref.reactions.size()) << context;
  for (std::size_t j = 0; j < ref.reactions.size(); ++j) {
    const ReferenceReaction& rr = ref.reactions[j];
    const std::string where = context + " reaction " + std::to_string(j);
    EXPECT_EQ(sys.rate(j), rr.rate) << where;
    EXPECT_EQ(sys.order(j), rr.order) << where;
    EXPECT_EQ(sys.kernel(j), reference_kernel(rr)) << where;

    std::vector<std::uint32_t> species, stoich;
    for (const auto& [idx, s] : rr.reactants) {
      species.push_back(idx);
      stoich.push_back(s);
    }
    EXPECT_EQ(to_vector(sys.reactant_species(j)), species) << where;
    EXPECT_EQ(to_vector(sys.reactant_stoich(j)), stoich) << where;

    std::vector<std::uint32_t> net_species;
    std::vector<std::int32_t> net_delta;
    bool own = false;
    for (const auto& [idx, delta] : rr.net) {
      net_species.push_back(idx);
      net_delta.push_back(delta);
      own = own || rr.reactants.contains(idx);
    }
    EXPECT_EQ(to_vector(sys.net_species(j)), net_species) << where;
    EXPECT_EQ(to_vector(sys.net_delta(j)), net_delta) << where;
    EXPECT_EQ(sys.affects_own_reactants(j), own) << where;

    EXPECT_EQ(to_vector(sys.affected_reactions(j)),
              std::vector<std::uint32_t>(ref.affected[j].begin(),
                                         ref.affected[j].end()))
        << where;
  }
  for (std::size_t i = 0; i < network.species_count(); ++i) {
    const std::set<std::uint32_t>& deps = ref.species_dependents[i];
    EXPECT_EQ(to_vector(sys.dependents_of_species(i)),
              std::vector<std::uint32_t>(deps.begin(), deps.end()))
        << context << " species " << i;
  }
}

TEST(CompiledTables, MatchReferenceOnBuiltins) {
  for (const std::string& name : kBuiltinDesigns) {
    expect_tables_match_reference(builtin_network(name), name);
  }
}

TEST(CompiledTables, MatchReferenceOnScaleCatalog) {
  // The sizes bench_scale sweeps, including delay_chain(16): ~1000 reactions
  // and the densest dependency graph in the catalog.
  for (const char* spec :
       {"counter(2)", "counter(8)", "delay_chain(2)", "delay_chain(16)",
        "fsm_wide(4)", "fsm_wide(32)", "cascade(2)", "cascade(5)"}) {
    expect_tables_match_reference(builtin_network(spec), spec);
  }
}

TEST(CompiledTables, MatchReferenceOnFuzzedNetworks) {
  const std::vector<verify::CaseKind> kinds = {
      verify::CaseKind::kRawNetwork, verify::CaseKind::kSyncCircuit,
      verify::CaseKind::kDualRailCircuit, verify::CaseKind::kFsm,
      verify::CaseKind::kCounter};
  for (const verify::CaseKind kind : kinds) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const verify::GeneratedCase c = verify::generate_case(kind, seed);
      expect_tables_match_reference(c.network(),
                                    std::string(verify::to_string(kind)) +
                                        " seed " + std::to_string(seed));
    }
  }
}

TEST(CompiledTables, MergesDuplicateTermsAndDropsZeroNetChanges) {
  ReactionNetwork net;
  const SpeciesId a = net.add_species("A");
  const SpeciesId b = net.add_species("B");
  const SpeciesId c = net.add_species("C");
  // B + A + A -> A + C: reactants merge to {A:2, B:1}; A's net change is -1,
  // and a term listed on both sides with equal weight cancels out of the
  // net-change table entirely (C + B -> C + B changes nothing).
  net.add({{b, 1}, {a, 1}, {a, 1}}, {{a, 1}, {c, 1}},
          core::RateCategory::kCustom, 1.0);
  net.add({{c, 1}, {b, 1}}, {{c, 1}, {b, 1}}, core::RateCategory::kCustom,
          1.0);
  expect_tables_match_reference(net, "handcrafted");
  const CompiledSystem sys(net);
  EXPECT_EQ(to_vector(sys.reactant_species(0)),
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(to_vector(sys.reactant_stoich(0)),
            (std::vector<std::uint32_t>{2, 1}));
  EXPECT_EQ(to_vector(sys.net_delta(0)), (std::vector<std::int32_t>{-1, -1, 1}));
  EXPECT_TRUE(sys.net_species(1).empty());
  // A reaction that changes nothing re-evaluates only itself.
  EXPECT_EQ(to_vector(sys.affected_reactions(1)),
            (std::vector<std::uint32_t>{1}));
}

TEST(DependencyGraph, NoSpuriousEdgesBetweenIndependentReactions) {
  // A -> B and C -> D share no species at all: each reaction's dependency
  // list must be exactly its self-edge.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("A -> B", 1.0);
  b.reaction("C -> D", 2.0);
  const CompiledSystem sys{net};
  ASSERT_EQ(sys.reaction_count(), 2u);
  EXPECT_EQ(to_vector(sys.affected_reactions(0)),
            (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(to_vector(sys.affected_reactions(1)),
            (std::vector<std::uint32_t>{1}));
}

TEST(DependencyGraph, CatalysisSetsAffectsOwnReactantsFalse) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("C -> C + A", 1.0);  // pure catalysis: C's count is unchanged
  b.reaction("A -> B", 1.0);      // consumes its own reactant
  const CompiledSystem sys{net};
  EXPECT_FALSE(sys.affects_own_reactants(0));
  EXPECT_TRUE(sys.affects_own_reactants(1));
  // The catalytic reaction still appears in the dependents of the reaction
  // reading A (it produces A), but A -> B does not feed back into C -> C + A.
  const auto dep0 = sys.affected_reactions(0);
  EXPECT_TRUE(std::find(dep0.begin(), dep0.end(), 1u) != dep0.end());
  const auto dep1 = sys.affected_reactions(1);
  EXPECT_TRUE(std::find(dep1.begin(), dep1.end(), 0u) == dep1.end());
}

// ---------------------------------------------------------------------------
// Kernel classification and pointwise bitwise evaluation.

TEST(CompiledSystem, KernelClassification) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("A -> B", 1.0);        // 0: unimolecular
  b.reaction("2 A -> B", 1.0);      // 1: dimer
  b.reaction("A + B -> C", 1.0);    // 2: bimolecular
  b.reaction("0 -> A", 1.0);        // 3: source -> generic
  b.reaction("C + A -> C + B", 1.0);  // 4: two distinct reactants -> bimol
  const SpeciesId a = *net.find_species("A");
  const SpeciesId bb = *net.find_species("B");
  const SpeciesId cc = *net.find_species("C");
  net.add({{a, 1}, {bb, 2}}, {{cc, 1}}, core::RateCategory::kCustom,
          1.0);  // 5: order 3 -> generic
  const CompiledSystem sys{net};
  ASSERT_EQ(sys.reaction_count(), 6u);
  EXPECT_EQ(sys.kernel(0), ReactionKernel::kUnimolecular);
  EXPECT_EQ(sys.kernel(1), ReactionKernel::kDimer);
  EXPECT_EQ(sys.kernel(2), ReactionKernel::kBimolecular);
  EXPECT_EQ(sys.kernel(3), ReactionKernel::kGeneric);
  EXPECT_EQ(sys.kernel(4), ReactionKernel::kBimolecular);
  EXPECT_EQ(sys.kernel(5), ReactionKernel::kGeneric);
  EXPECT_EQ(sys.order(0), 1u);
  EXPECT_EQ(sys.order(1), 2u);
  EXPECT_EQ(sys.order(5), 3u);
}

// The generic mass-action formulas, evaluated left to right over the
// species-sorted reactant list: the operation order every kernel must keep.
double reference_flux(const ReferenceReaction& rr, std::span<const double> x) {
  double f = rr.rate;
  for (const auto& [idx, stoich] : rr.reactants) {
    for (std::uint32_t s = 0; s < stoich; ++s) f *= x[idx];
  }
  return f;
}

double reference_propensity(const ReferenceReaction& rr,
                            std::span<const std::int64_t> n, double omega) {
  double a = rr.rate * std::pow(omega, 1.0 - static_cast<double>(rr.order));
  for (const auto& [idx, stoich] : rr.reactants) {
    std::int64_t count = n[idx];
    for (std::uint32_t s = 0; s < stoich; ++s) {
      if (count <= 0) return 0.0;
      a *= static_cast<double>(count);
      --count;
    }
  }
  return a;
}

void expect_pointwise_bitwise(const ReactionNetwork& network,
                              std::uint64_t seed,
                              const std::string& context) {
  const CompiledSystem compiled(network);
  const ReferenceSystem ref = reference_build(network);
  const std::size_t ns = network.species_count();
  const std::size_t m = ref.reactions.size();
  util::Rng rng(seed);

  for (int trial = 0; trial < 5; ++trial) {
    // Random concentrations, including exact zeros (the early-out paths).
    std::vector<double> x(ns);
    for (double& v : x) {
      v = rng.uniform() < 0.25 ? 0.0 : rng.uniform(0.0, 3.0);
    }
    std::vector<double> dxdt_ref(ns, 0.0), dxdt(ns);
    for (std::size_t j = 0; j < m; ++j) {
      const double f = reference_flux(ref.reactions[j], x);
      EXPECT_EQ(compiled.flux(j, x), f) << context << " flux reaction " << j;
      if (f == 0.0) continue;
      for (const auto& [idx, delta] : ref.reactions[j].net) {
        dxdt_ref[idx] += static_cast<double>(delta) * f;
      }
    }
    compiled.rhs(x, dxdt);
    for (std::size_t i = 0; i < ns; ++i) {
      EXPECT_EQ(dxdt[i], dxdt_ref[i]) << context << " rhs species " << i;
    }

    // Random counts, including 0 and 1 (the dimer/bimolecular early-outs).
    std::vector<std::int64_t> n(ns);
    for (std::int64_t& v : n) {
      v = static_cast<std::int64_t>(rng.uniform_below(50));
      if (rng.uniform() < 0.3) v = static_cast<std::int64_t>(
          rng.uniform_below(2));
    }
    for (const double omega : {1.0, 200.0, 1e4}) {
      std::vector<double> scaled(m);
      compiled.scaled_rates(omega, scaled);
      for (std::size_t j = 0; j < m; ++j) {
        const double expected = reference_propensity(ref.reactions[j], n, omega);
        EXPECT_EQ(compiled.propensity(j, n, omega), expected)
            << context << " propensity reaction " << j << " omega " << omega;
        EXPECT_EQ(compiled.propensity_scaled(j, n, scaled[j]), expected)
            << context << " propensity_scaled reaction " << j << " omega "
            << omega;
      }
    }

    for (std::size_t j = 0; j < m; ++j) {
      std::vector<std::int64_t> expected = n, got = n;
      for (const auto& [idx, delta] : ref.reactions[j].net) {
        expected[idx] += delta;
      }
      compiled.apply(j, got);
      EXPECT_EQ(got, expected) << context << " apply reaction " << j;
    }
  }
}

TEST(CompiledSystem, PointwiseBitwiseOnHandcraftedShapes) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("A -> B", 0.7);
  b.reaction("2 A -> B", 1.3);
  b.reaction("A + B -> C", 2.1);
  b.reaction("0 -> A", 0.4);
  b.reaction("C + A -> C + B", 5.0);
  const SpeciesId a = *net.find_species("A");
  const SpeciesId bb = *net.find_species("B");
  const SpeciesId cc = *net.find_species("C");
  net.add({{a, 1}, {bb, 2}}, {{cc, 1}}, core::RateCategory::kCustom, 0.9);
  expect_pointwise_bitwise(net, 3, "handcrafted");
}

TEST(CompiledSystem, PointwiseBitwiseOnFuzzedNetworks) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const verify::GeneratedCase c =
        verify::generate_case(verify::CaseKind::kRawNetwork, seed);
    expect_pointwise_bitwise(c.network(), seed,
                             "raw seed " + std::to_string(seed));
  }
}

TEST(CompiledSystem, PointwiseBitwiseOnBuiltins) {
  for (const std::string& name : kBuiltinDesigns) {
    expect_pointwise_bitwise(builtin_network(name), 5, name);
  }
}

// ---------------------------------------------------------------------------
// The RHS runs as a flux pass and a species-major gather. It must equal the
// reaction-major scatter it replaced, zero-flux skip included, bit for bit:
// the gather also adds the ±0.0 products the scatter skipped, which changes
// nothing because a sum that starts at +0.0 is never -0.0.

/// The reaction-major RHS loop as it was before the two-pass split.
void reference_rhs_reaction_major(const CompiledSystem& system,
                                  std::span<const double> x,
                                  std::span<double> dxdt) {
  std::ranges::fill(dxdt, 0.0);
  for (std::size_t j = 0; j < system.reaction_count(); ++j) {
    const double f = system.flux(j, x);
    if (f == 0.0) continue;
    const auto species = system.net_species(j);
    const auto delta = system.net_delta(j);
    for (std::size_t k = 0; k < species.size(); ++k) {
      dxdt[species[k]] += static_cast<double>(delta[k]) * f;
    }
  }
}

/// The NaN this machine's invalid operations (inf - inf, 0 * inf) produce.
double default_nan() {
  volatile double inf = std::numeric_limits<double>::infinity();
  return inf - inf;
}

/// States mixing ordinary concentrations with every value that could tell
/// the two loops apart: signed zeros, NaN, ±inf, products that overflow,
/// subnormals and negatives. `nan` is the NaN the states carry.
std::vector<std::vector<double>> adversarial_states(std::size_t species,
                                                    double nan,
                                                    util::Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0,
                             -0.0,
                             nan,
                             kInf,
                             -kInf,
                             1e200,
                             -1e200,
                             std::numeric_limits<double>::denorm_min(),
                             1e-310,
                             -1e-310,
                             std::numeric_limits<double>::min(),
                             -1.5};
  std::vector<std::vector<double>> states;
  for (const double special_share : {0.0, 0.1, 0.5, 1.0}) {
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<double> x(species);
      for (double& v : x) {
        v = rng.uniform() < special_share
                ? specials[rng.uniform_below(std::size(specials))]
                : rng.uniform(0.0, 3.0);
      }
      states.push_back(std::move(x));
    }
  }
  for (const double special : specials) {
    states.emplace_back(species, special);
  }
  return states;
}

/// Compares the two-pass RHS with the reaction-major reference at
/// adversarial states.
///
/// With the machine's default NaN as the only NaN, every NaN either loop
/// forms has that one bit pattern, and the outputs must match byte for
/// byte. IEEE 754 leaves to the implementation which operand's payload and
/// sign a NaN + NaN sum keeps, and the compiler orders the operands of the
/// two loops' additions differently, so with a second NaN pattern (a
/// positive quiet NaN next to the default NaN that inf - inf makes) only the
/// NaN positions and every other value's bits must match. No integrator
/// output carries a NaN's bits: a non-finite step ends the run.
void expect_rhs_matches_reaction_major(const ReactionNetwork& network,
                                       std::uint64_t seed,
                                       const std::string& context) {
  const CompiledSystem system(network);
  const std::size_t ns = system.species_count();
  util::Rng rng(seed);
  std::vector<double> expected(ns), got(ns), flux(system.reaction_count());
  for (const std::vector<double>& x :
       adversarial_states(ns, default_nan(), rng)) {
    reference_rhs_reaction_major(system, x, expected);
    std::ranges::fill(got, 42.0);
    system.rhs(x, got, flux);
    ASSERT_EQ(std::memcmp(got.data(), expected.data(), ns * sizeof(double)),
              0)
        << context;
    std::ranges::fill(got, -7.0);
    system.rhs(x, got);
    ASSERT_EQ(std::memcmp(got.data(), expected.data(), ns * sizeof(double)),
              0)
        << context << " (allocating overload)";
  }
  for (const std::vector<double>& x : adversarial_states(
           ns, std::numeric_limits<double>::quiet_NaN(), rng)) {
    reference_rhs_reaction_major(system, x, expected);
    system.rhs(x, got, flux);
    for (std::size_t i = 0; i < ns; ++i) {
      if (std::isnan(expected[i])) {
        ASSERT_TRUE(std::isnan(got[i])) << context << " species " << i;
      } else {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(expected[i]))
            << context << " species " << i;
      }
    }
  }
}

TEST(RhsGather, BitwiseEqualToReactionMajorOnBuiltins) {
  for (const std::string& name : kBuiltinDesigns) {
    expect_rhs_matches_reaction_major(builtin_network(name), 17, name);
  }
}

TEST(RhsGather, BitwiseEqualToReactionMajorOnScaleCatalog) {
  for (const char* spec :
       {"counter(2)", "counter(4)", "counter(8)", "delay_chain(2)",
        "delay_chain(16)", "fsm_wide(4)", "fsm_wide(16)", "fsm_wide(32)",
        "cascade(2)", "cascade(4)", "cascade(5)"}) {
    expect_rhs_matches_reaction_major(builtin_network(spec), 19, spec);
  }
}

TEST(RhsGather, BitwiseEqualToReactionMajorOnFuzzedNetworks) {
  const std::vector<verify::CaseKind> kinds = {
      verify::CaseKind::kRawNetwork, verify::CaseKind::kSyncCircuit,
      verify::CaseKind::kDualRailCircuit, verify::CaseKind::kFsm,
      verify::CaseKind::kCounter};
  for (const verify::CaseKind kind : kinds) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      expect_rhs_matches_reaction_major(
          verify::generate_case(kind, seed).network(), seed,
          std::string(verify::to_string(kind)) + " seed " +
              std::to_string(seed));
    }
  }
}

TEST(RhsGather, EveryRowLengthMatchesReactionMajor) {
  // Y<k> has exactly k changers, k = 0..11: every fixed-length gather
  // (0-8 changers) and the runtime-length fallback run. The catalysts X<a>
  // have none. The changers cycle through every flux loop: source,
  // unimolecular, bimolecular, dimer and generic, producing and consuming.
  ReactionNetwork net;
  NetworkBuilder b(net);
  for (int a = 0; a < 3; ++a) b.species("X" + std::to_string(a));
  const char* shapes[] = {"0 -> #",
                          "X0 -> X0 + #",
                          "X0 + X1 -> X0 + X1 + 2 #",
                          "2 X2 -> 2 X2 + #",
                          "X0 + X1 + X2 -> X0 + X1 + X2 + 3 #",
                          "# -> 0",
                          "# + X1 -> X1",
                          "2 # -> #"};
  int reaction = 0;
  for (int k = 0; k <= 11; ++k) {
    const std::string y = "Y" + std::to_string(k);
    b.species(y);
    for (int c = 0; c < k; ++c, ++reaction) {
      std::string text = shapes[reaction % std::size(shapes)];
      for (std::size_t at; (at = text.find('#')) != std::string::npos;) {
        text.replace(at, 1, y);
      }
      b.reaction(text, 0.5 + 0.25 * reaction);
    }
  }
  const CompiledSystem system(net);
  std::set<std::size_t> lengths;
  std::vector<std::size_t> changers(system.species_count());
  for (std::size_t j = 0; j < system.reaction_count(); ++j) {
    for (const std::uint32_t i : system.net_species(j)) ++changers[i];
  }
  lengths.insert(changers.begin(), changers.end());
  ASSERT_EQ(lengths.size(), 12u);
  ASSERT_EQ(*lengths.rbegin(), 11u);
  expect_rhs_matches_reaction_major(net, 23, "row lengths 0..11");
}

TEST(RhsGather, ZeroFluxProductsLeaveSignedZeroSumsAlone) {
  // A -> B at x_A = -0.0 has flux -0.0; the gather adds 1 * -0.0 to B's
  // +0.0 sum and -1 * -0.0 to A's. Both stay +0.0, as in the scatter that
  // skipped them.
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("A -> B", 1.0);
  const CompiledSystem system(net);
  const std::vector<double> x = {-0.0, 0.0};
  std::vector<double> dxdt(2, 1.0);
  system.rhs(x, dxdt);
  EXPECT_FALSE(std::signbit(dxdt[0]));
  EXPECT_FALSE(std::signbit(dxdt[1]));
  EXPECT_EQ(dxdt[0], 0.0);
  EXPECT_EQ(dxdt[1], 0.0);
}

TEST(CompiledSystem, FootprintChargesEveryArray) {
  // The bytes of every compiled array at its exact size (the build shrinks
  // each one), derived from the public tables: what DesignCache charges.
  for (const char* spec : {"counter", "seqdet", "cascade(4)",
                           "delay_chain(16)", "fsm_wide(16)"}) {
    const CompiledSystem system(builtin_network(spec));
    const std::size_t r = system.reaction_count();
    const std::size_t s = system.species_count();
    std::size_t reactant_terms = 0, net_terms = 0, dep_edges = 0, readers = 0;
    std::size_t sources = 0;
    std::map<ReactionKernel, std::size_t> kernels;
    for (std::size_t j = 0; j < r; ++j) {
      if (system.reactant_species(j).empty()) ++sources;
      reactant_terms += system.reactant_species(j).size();
      net_terms += system.net_species(j).size();
      dep_edges += system.affected_reactions(j).size();
      ++kernels[system.kernel(j)];
    }
    std::vector<std::size_t> changers(s);
    for (std::size_t j = 0; j < r; ++j) {
      for (const std::uint32_t i : system.net_species(j)) ++changers[i];
    }
    for (std::size_t i = 0; i < s; ++i) {
      readers += system.dependents_of_species(i).size();
    }
    // The gather groups species by changer count, one group per count.
    const std::size_t groups =
        std::set<std::size_t>(changers.begin(), changers.end()).size();
    constexpr std::size_t u32 = sizeof(std::uint32_t);
    const std::size_t expected =
        r * (sizeof(double) + u32 + sizeof(ReactionKernel) +
             sizeof(std::uint8_t))                       // rates .. own
        + (r + 1) * u32 + reactant_terms * 2 * u32       // reactant CSR
        + (r + 1) * u32 + net_terms * 2 * u32            // net-change CSR
        + (r + 1) * u32 + dep_edges * u32                // dependency graph
        + (s + 1) * u32 + readers * u32                  // species readers
        + kernels[ReactionKernel::kUnimolecular] * (sizeof(double) + u32)
        + kernels[ReactionKernel::kBimolecular] * (sizeof(double) + 2 * u32)
        + kernels[ReactionKernel::kDimer] * (sizeof(double) + u32)
        + sources * sizeof(double)                       // source rates
        + (kernels[ReactionKernel::kGeneric] - sources) * u32  // flux pass
        + s * u32 + groups * 2 * u32                     // gather order
        + net_terms * (u32 + sizeof(double));            // gather rows
    EXPECT_EQ(system.footprint_bytes(), expected) << spec;
  }
}

// ---------------------------------------------------------------------------
// In-test SSA references: straightforward reimplementations with the same RNG
// draw order as the production loops, minus their shortcuts. `fired_log`,
// when given, receives the index of every reaction fired, in order.

/// Zero-order-hold sampler with the production recorder's grid semantics.
class ReferenceRecorder {
 public:
  ReferenceRecorder(const SsaOptions& options, std::size_t species_count)
      : options_(options), scratch_(species_count), trajectory_(species_count) {}

  void record_initial(std::span<const std::int64_t> counts) {
    sample(0.0, counts);
    next_sample_ = options_.record_interval;
  }
  void before_event(double t_event, std::span<const std::int64_t> counts) {
    while (next_sample_ < t_event && next_sample_ <= options_.t_end) {
      sample(next_sample_, counts);
      next_sample_ += options_.record_interval;
    }
  }
  Trajectory finish(double t_final, std::span<const std::int64_t> counts) {
    before_event(t_final, counts);
    sample(t_final, counts);
    return std::move(trajectory_);
  }

 private:
  void sample(double t, std::span<const std::int64_t> counts) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      scratch_[i] = static_cast<double>(counts[i]) / options_.omega;
    }
    trajectory_.append(t, scratch_);
  }

  const SsaOptions& options_;
  std::vector<double> scratch_;
  Trajectory trajectory_;
  double next_sample_ = 0.0;
};

/// Propensity evaluations the production direct method and NRM perform for
/// a given firing sequence: R up front, then each fired reaction's
/// dependents, less the pure-catalysis self-edge.
std::uint64_t expected_dependent_evaluations(
    const CompiledSystem& system, const std::vector<std::uint32_t>& fired) {
  std::uint64_t evaluations = system.reaction_count();
  for (const std::uint32_t j : fired) {
    evaluations += system.affected_reactions(j).size();
    if (!system.affects_own_reactants(j)) --evaluations;
  }
  return evaluations;
}

SsaResult reference_nrm_always_recompute(
    const CompiledSystem& system, const SsaOptions& options,
    std::vector<std::int64_t> counts,
    std::vector<std::uint32_t>* fired_log = nullptr) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  util::Rng rng(options.seed);
  const std::size_t m = system.reaction_count();
  SsaResult result;
  ReferenceRecorder recorder(options, system.species_count());
  recorder.record_initial(counts);

  std::vector<double> propensities(m);
  std::vector<double> firing_times(m);
  for (std::size_t j = 0; j < m; ++j) {
    propensities[j] = system.propensity(j, counts, options.omega);
    firing_times[j] =
        propensities[j] > 0.0 ? rng.exponential(propensities[j]) : kInf;
  }

  double t = 0.0;
  while (result.events < options.max_events) {
    std::size_t fired = 0;
    double t_next = firing_times[0];
    for (std::size_t j = 1; j < m; ++j) {
      if (firing_times[j] < t_next) {
        t_next = firing_times[j];
        fired = j;
      }
    }
    if (t_next == kInf) {
      result.exhausted = true;
      break;
    }
    if (t_next > options.t_end) {
      t = options.t_end;
      break;
    }
    recorder.before_event(t_next, counts);
    system.apply(fired, counts);
    t = t_next;
    ++result.events;
    if (fired_log) fired_log->push_back(static_cast<std::uint32_t>(fired));
    for (const std::uint32_t dep : system.affected_reactions(fired)) {
      // The production loop skips this recompute for pure catalysis; the
      // reference never does. RNG consumption is identical either way.
      const double a_new = system.propensity(dep, counts, options.omega);
      double new_time;
      if (dep == fired) {
        new_time = a_new > 0.0 ? t + rng.exponential(a_new) : kInf;
      } else {
        const double a_old = propensities[dep];
        const double old_time = firing_times[dep];
        if (a_new <= 0.0) {
          new_time = kInf;
        } else if (a_old <= 0.0 || old_time == kInf) {
          new_time = t + rng.exponential(a_new);
        } else {
          new_time = t + (a_old / a_new) * (old_time - t);
        }
      }
      propensities[dep] = a_new;
      firing_times[dep] = new_time;
    }
  }
  result.hit_event_limit =
      result.events >= options.max_events && t < options.t_end;
  result.end_time = std::min(t, options.t_end);
  result.trajectory = recorder.finish(result.end_time, counts);
  result.final_counts = std::move(counts);
  return result;
}

/// The direct method as it was before it became incremental: every
/// propensity re-evaluated on every event, then summed and scanned.
SsaResult reference_direct_full_recompute(
    const CompiledSystem& system, const SsaOptions& options,
    std::vector<std::int64_t> counts,
    std::vector<std::uint32_t>* fired_log = nullptr) {
  util::Rng rng(options.seed);
  const std::size_t m = system.reaction_count();
  std::vector<double> scaled(m);
  system.scaled_rates(options.omega, scaled);
  SsaResult result;
  ReferenceRecorder recorder(options, system.species_count());
  recorder.record_initial(counts);
  const std::uint64_t abort_stride =
      std::max<std::uint64_t>(options.abort_check_events, 1);

  std::vector<double> propensities(m);
  double t = 0.0;
  while (t < options.t_end && result.events < options.max_events) {
    if (options.abort && result.events % abort_stride == 0 &&
        options.abort()) {
      result.aborted = true;
      break;
    }
    double total = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      propensities[j] = system.propensity_scaled(j, counts, scaled[j]);
      total += propensities[j];
    }
    if (total <= 0.0) {
      result.exhausted = true;
      break;
    }
    const double t_next = t + rng.exponential(total);
    if (t_next > options.t_end) {
      t = options.t_end;
      break;
    }
    const std::size_t chosen =
        select_reaction(propensities, rng.uniform() * total);
    recorder.before_event(t_next, counts);
    system.apply(chosen, counts);
    t = t_next;
    ++result.events;
    if (fired_log) fired_log->push_back(static_cast<std::uint32_t>(chosen));
  }
  result.hit_event_limit =
      result.events >= options.max_events && t < options.t_end;
  result.end_time = std::min(t, options.t_end);
  result.trajectory = recorder.finish(result.end_time, counts);
  result.final_counts = std::move(counts);
  return result;
}

void expect_trajectories_bitwise(const Trajectory& a, const Trajectory& b,
                                 const std::string& context) {
  ASSERT_EQ(a.sample_count(), b.sample_count()) << context;
  ASSERT_EQ(a.species_count(), b.species_count()) << context;
  for (std::size_t k = 0; k < a.sample_count(); ++k) {
    ASSERT_EQ(a.time(k), b.time(k)) << context << " sample " << k;
    const auto sa = a.state(k);
    const auto sb = b.state(k);
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(sa[i], sb[i])
          << context << " sample " << k << " species " << i;
    }
  }
}

void expect_runs_bitwise(const SsaResult& run, const SsaResult& reference,
                         const std::string& context) {
  EXPECT_EQ(run.events, reference.events) << context;
  EXPECT_EQ(run.end_time, reference.end_time) << context;
  EXPECT_EQ(run.exhausted, reference.exhausted) << context;
  EXPECT_EQ(run.hit_event_limit, reference.hit_event_limit) << context;
  EXPECT_EQ(run.aborted, reference.aborted) << context;
  ASSERT_EQ(run.final_counts, reference.final_counts) << context;
  expect_trajectories_bitwise(run.trajectory, reference.trajectory, context);
}

// Catalysis-heavy fixture: the first two reactions leave their own reactant
// counts untouched, so the pure-catalysis skips fire on most events.
ReactionNetwork catalysis_network() {
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("C -> C + A", 4.0);
  b.reaction("D -> D + B", 3.0);
  b.reaction("A + B -> C", 1.0);
  b.reaction("A -> B", 0.5);
  b.reaction("2 B -> D", 0.8);
  net.set_initial(*net.find_species("C"), 1.0);
  net.set_initial(*net.find_species("D"), 1.0);
  net.set_initial(*net.find_species("A"), 0.5);
  return net;
}

TEST(NextReactionStaleSkip, MatchesAlwaysRecomputeReference) {
  const ReactionNetwork net = catalysis_network();
  SsaOptions options;
  options.method = SsaMethod::kNextReaction;
  options.t_end = 2.0;
  options.omega = 400.0;
  options.record_interval = 0.1;
  options.max_events = 200'000;

  const CompiledSystem system(net);
  // The fixture must actually exercise the skip: the catalytic reactions
  // carry affects_own_reactants == false.
  ASSERT_FALSE(system.affects_own_reactants(0));
  ASSERT_FALSE(system.affects_own_reactants(1));
  ASSERT_TRUE(system.affects_own_reactants(2));

  for (const std::uint64_t seed : {1ull, 9ull, 42ull}) {
    options.seed = seed;
    std::vector<std::uint32_t> fired;
    const SsaResult reference = reference_nrm_always_recompute(
        system, options, to_counts(net.initial_state(), options.omega),
        &fired);
    ASSERT_GT(reference.events, 100u) << "fixture too quiet to regress";
    const SsaResult run = simulate_ssa(net, options);
    const std::string context = "seed " + std::to_string(seed);
    expect_runs_bitwise(run, reference, context);
    EXPECT_EQ(run.propensity_evaluations,
              expected_dependent_evaluations(system, fired))
        << context;
  }
}

// ---------------------------------------------------------------------------
// The incremental direct method refreshes only the fired reaction's
// dependents. Every propensity is a pure function of its reactant counts and
// the total is still re-summed in index order, so it must reproduce the
// full-recompute loop bit for bit: same RNG draws, same selections.

struct DirectCase {
  std::string name;
  ReactionNetwork network;
};

void set_count(ReactionNetwork& net, const std::string& name,
               std::int64_t count, double omega) {
  net.set_initial(*net.find_species(name), static_cast<double>(count) / omega);
}

/// Reactions that never fire: their reactant is never produced.
void add_dead_reactions(NetworkBuilder& b, std::size_t count,
                        const std::string& prefix) {
  for (std::size_t k = 0; k < count; ++k) {
    b.reaction(prefix + std::to_string(k) + " -> " + prefix + "sink", 1.0);
  }
}

/// A single molecule hopping A <-> B: the two reactions swap between zero
/// and nonzero propensity on every firing.
void add_toggle(NetworkBuilder& b, const std::string& a, const std::string& c,
                double k) {
  b.reaction(a + " -> " + c, k);
  b.reaction(c + " -> " + a, k);
}

// 130 reactions, nearly all dead, with toggling pairs at indices 63/64 and
// 127/128: each pair straddles an active-set word boundary.
ReactionNetwork word_boundary_network() {
  constexpr double kOmega = 200.0;
  ReactionNetwork net;
  NetworkBuilder b(net);
  b.reaction("E -> E + F", 5.0);  // 0: always active
  add_dead_reactions(b, 62, "Z");  // 1..62
  add_toggle(b, "A", "B", 40.0);   // 63, 64
  add_dead_reactions(b, 62, "Y");  // 65..126
  add_toggle(b, "C", "D", 30.0);   // 127, 128
  b.reaction("F -> 0", 1.0);       // 129
  set_count(net, "E", 1, kOmega);
  set_count(net, "A", 1, kOmega);
  set_count(net, "C", 1, kOmega);
  return net;
}

// `species` pools in a ring, molecules hopping to both neighbours: with
// `count` molecules per pool every one of the 2 * species propensities stays
// nonzero, so every active-set word is walked densely.
ReactionNetwork dense_ring_network(std::size_t species, double rate,
                                   std::int64_t count, double omega) {
  ReactionNetwork net;
  NetworkBuilder b(net);
  auto name = [&](std::size_t i) { return "R" + std::to_string(i % species); };
  for (std::size_t i = 0; i < species; ++i) {
    b.reaction(name(i) + " -> " + name(i + 1), rate);
    b.reaction(name(i) + " -> " + name(i + species - 1), rate);
  }
  for (std::size_t i = 0; i < species; ++i) {
    set_count(net, name(i), count, omega);
  }
  return net;
}

// Takes both walk paths in one run: a fully active 64-reaction ring (dense
// word), 64 one-molecule decays whose word thins from 64 members through the
// dense threshold to none, and a sparse word of toggles among dead reactions.
ReactionNetwork mixed_density_network() {
  constexpr double kOmega = 200.0;
  ReactionNetwork net = dense_ring_network(32, 0.05, 200, kOmega);
  NetworkBuilder b(net);
  for (std::size_t k = 0; k < 64; ++k) {
    b.reaction("D" + std::to_string(k) + " -> Dsink", 0.4);
  }
  add_toggle(b, "P", "Q", 20.0);
  add_dead_reactions(b, 20, "Z");
  add_toggle(b, "S", "T", 10.0);
  for (std::size_t k = 0; k < 64; ++k) {
    set_count(net, "D" + std::to_string(k), 1, kOmega);
  }
  set_count(net, "P", 1, kOmega);
  set_count(net, "S", 1, kOmega);
  return net;
}

std::vector<DirectCase> direct_cases() {
  std::vector<DirectCase> cases;
  for (const std::string& name : kBuiltinDesigns) {
    cases.push_back({name, builtin_network(name)});
  }
  for (const char* spec : {"cascade(4)", "delay_chain(16)"}) {
    cases.push_back({spec, builtin_network(spec)});
  }
  cases.push_back({"catalysis", catalysis_network()});
  cases.push_back({"word boundary", word_boundary_network()});
  cases.push_back({"dense ring", dense_ring_network(500, 0.005, 200, 200.0)});
  cases.push_back({"mixed density", mixed_density_network()});
  const std::vector<verify::CaseKind> kinds = {
      verify::CaseKind::kRawNetwork, verify::CaseKind::kSyncCircuit,
      verify::CaseKind::kDualRailCircuit, verify::CaseKind::kFsm,
      verify::CaseKind::kCounter};
  for (const verify::CaseKind kind : kinds) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      cases.push_back({std::string(verify::to_string(kind)) + " seed " +
                           std::to_string(seed),
                       verify::generate_case(kind, seed).network()});
    }
  }
  return cases;
}

SsaOptions direct_options() {
  SsaOptions options;
  options.method = SsaMethod::kDirect;
  options.t_end = 10.0;
  options.omega = 200.0;
  options.record_interval = 0.1;
  options.max_events = 100'000;
  return options;
}

/// Runs production and reference on one case and compares them bitwise;
/// returns the reference run.
SsaResult expect_direct_matches_reference(const DirectCase& c,
                                          const SsaOptions& options,
                                          const std::string& context) {
  const CompiledSystem system(c.network);
  const std::vector<std::int64_t> initial =
      to_counts(c.network.initial_state(), options.omega);
  std::vector<std::uint32_t> fired;
  SsaResult reference =
      reference_direct_full_recompute(system, options, initial, &fired);
  const SsaResult run = simulate_ssa(system, options, initial);
  expect_runs_bitwise(run, reference, context);
  EXPECT_EQ(run.propensity_evaluations,
            expected_dependent_evaluations(system, fired))
      << context;
  return reference;
}

TEST(DirectIncremental, MatchesFullRecomputeReference) {
  const std::vector<DirectCase> cases = direct_cases();
  ASSERT_EQ(cases.size(), kBuiltinDesigns.size() + 6 + 50);
  SsaOptions options = direct_options();
  std::uint64_t total_events = 0;
  std::size_t exhausted = 0;
  for (const DirectCase& c : cases) {
    for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
      options.seed = seed;
      const SsaResult reference = expect_direct_matches_reference(
          c, options, c.name + " seed " + std::to_string(seed));
      total_events += reference.events;
      if (reference.exhausted) ++exhausted;
    }
  }
  EXPECT_GT(total_events, 1'000'000u) << "cases too quiet to regress";
  EXPECT_GT(exhausted, 0u) << "the exhaustion exit must be taken too";
}

TEST(DirectIncremental, MatchesFullRecomputeReferenceAtEventLimit) {
  SsaOptions options = direct_options();
  options.max_events = 300;
  std::size_t limited = 0;
  for (const DirectCase& c : direct_cases()) {
    for (const std::uint64_t seed : {3ull, 11ull}) {
      options.seed = seed;
      const SsaResult reference = expect_direct_matches_reference(
          c, options, c.name + " seed " + std::to_string(seed));
      if (reference.hit_event_limit) ++limited;
    }
  }
  EXPECT_GT(limited, 10u) << "the event limit must actually be reached";
}

TEST(DirectIncremental, MatchesFullRecomputeReferenceOnAbort) {
  SsaOptions options = direct_options();
  options.abort_check_events = 16;
  std::size_t aborted = 0;
  for (const DirectCase& c : direct_cases()) {
    for (const std::uint64_t seed : {5ull, 13ull}) {
      options.seed = seed;
      const std::string context = c.name + " seed " + std::to_string(seed);
      // Each run polls a fresh hook; the fifth poll (event 64) stops it.
      auto fresh_hook = [] {
        return [polls = 0]() mutable { return ++polls >= 5; };
      };
      options.abort = fresh_hook();
      const CompiledSystem system(c.network);
      const std::vector<std::int64_t> initial =
          to_counts(c.network.initial_state(), options.omega);
      const SsaResult reference =
          reference_direct_full_recompute(system, options, initial);
      options.abort = fresh_hook();
      const SsaResult run = simulate_ssa(system, options, initial);
      expect_runs_bitwise(run, reference, context);
      if (reference.aborted) {
        EXPECT_EQ(reference.events, 64u) << context;
        ++aborted;
      }
    }
  }
  EXPECT_GT(aborted, 10u) << "the abort exit must actually be taken";
}

TEST(DirectIncremental, CountsOnlyDependentRefreshes) {
  // delay_chain(16): ~68 dependents per reaction out of ~1000, so refreshing
  // dependents must cost a small fraction of re-evaluating all R per event.
  const ReactionNetwork net = builtin_network("delay_chain(16)");
  const CompiledSystem system(net);
  const std::size_t m = system.reaction_count();
  SsaOptions options = direct_options();
  options.t_end = 5.0;
  const std::vector<std::int64_t> initial =
      to_counts(net.initial_state(), options.omega);
  std::vector<std::uint32_t> fired;
  const SsaResult reference =
      reference_direct_full_recompute(system, options, initial, &fired);
  const SsaResult run = simulate_ssa(system, options, initial);
  ASSERT_GT(run.events, 1000u);
  ASSERT_EQ(run.events, reference.events);
  EXPECT_EQ(run.propensity_evaluations,
            expected_dependent_evaluations(system, fired));
  EXPECT_LT(run.propensity_evaluations, run.events * m / 10);
}

/// Entries one total visits when it re-adds from index `from` under the
/// nonzero pattern of `propensities`: per 64-entry word, the nonzero
/// entries at or after `from`; when they number at least the dense
/// threshold, the word is walked from the first of them to the last.
std::uint64_t reference_suffix_terms(std::span<const double> propensities,
                                     std::size_t from) {
  std::uint64_t terms = 0;
  for (std::size_t base = from / 64 * 64; base < propensities.size();
       base += 64) {
    const std::size_t end = std::min(base + 64, propensities.size());
    std::size_t members = 0, first = end, last = end;
    for (std::size_t j = std::max(base, from); j < end; ++j) {
      if (propensities[j] == 0.0) continue;
      ++members;
      if (first == end) first = j;
      last = j;
    }
    if (members == 0) continue;
    terms += members >= ActiveSet::kDenseWordThreshold ? last - first + 1
                                                        : members;
  }
  return terms;
}

/// The `selection_terms` the direct method reports for `run`, which fired
/// `fired` from `counts`: replays the firings, recomputing every propensity
/// before each total. A total re-adds from the lowest propensity that
/// differs from the one the previous total saw (from 0 for the first) and
/// visits nothing when none does.
std::uint64_t expected_selection_terms(const CompiledSystem& system,
                                       const SsaOptions& options,
                                       std::vector<std::int64_t> counts,
                                       const std::vector<std::uint32_t>& fired,
                                       const SsaResult& run) {
  const std::size_t m = system.reaction_count();
  std::vector<double> previous, propensities(m);
  const auto total_terms = [&] {
    for (std::size_t j = 0; j < m; ++j) {
      propensities[j] = system.propensity(j, counts, options.omega);
    }
    std::size_t from = 0;
    if (!previous.empty()) {
      from = m;
      for (std::size_t j = 0; j < m; ++j) {
        if (propensities[j] != previous[j]) {
          from = j;
          break;
        }
      }
    }
    previous = propensities;
    return from == m ? 0 : reference_suffix_terms(propensities, from);
  };
  std::uint64_t terms = 0;
  for (const std::uint32_t j : fired) {
    terms += total_terms();
    system.apply(j, counts);
  }
  // Exhaustion and a step past t_end both end the run after one more total;
  // the event limit and an abort end it before.
  if (!run.hit_event_limit && !run.aborted) terms += total_terms();
  return terms;
}

/// Runs the direct method, logging the firings of the full-recompute
/// reference (which must fire as often).
SsaResult run_direct_logged(const CompiledSystem& system,
                            const SsaOptions& options,
                            const std::vector<std::int64_t>& initial,
                            std::vector<std::uint32_t>& fired) {
  const SsaResult reference =
      reference_direct_full_recompute(system, options, initial, &fired);
  SsaResult run = simulate_ssa(system, options, initial);
  EXPECT_EQ(run.events, reference.events);
  return run;
}

TEST(DirectActiveSet, DenseRingReAddsFromFirstChangedEntry) {
  // Every propensity of the ring stays nonzero and each firing changes a
  // few neighbouring ones, so a total re-adds from the lowest of them:
  // about half of R on average, where a full re-sum would visit all R.
  const ReactionNetwork net = dense_ring_network(500, 0.005, 200, 200.0);
  const CompiledSystem system(net);
  const std::size_t m = system.reaction_count();
  SsaOptions options = direct_options();
  options.t_end = 2.0;
  const std::vector<std::int64_t> initial =
      to_counts(net.initial_state(), options.omega);
  std::vector<std::uint32_t> fired;
  const SsaResult run = run_direct_logged(system, options, initial, fired);
  ASSERT_GT(run.events, 1000u);
  ASSERT_FALSE(run.exhausted);
  ASSERT_FALSE(run.hit_event_limit);
  EXPECT_EQ(run.selection_terms,
            expected_selection_terms(system, options, initial, fired, run));
  EXPECT_LT(run.selection_terms, (run.events + 1) * m * 3 / 4);
  EXPECT_GT(run.selection_terms, (run.events + 1) * m / 4);
}

TEST(DirectActiveSet, GatedDesignReusesEveryTotalAtItsDefaultState) {
  // delay_chain(16) idles at its default state: about 3 of its 1019
  // propensities are nonzero, and no firing changes any of them. Only the
  // first total adds anything; every later one is reused outright.
  const ReactionNetwork net = builtin_network("delay_chain(16)");
  const CompiledSystem system(net);
  SsaOptions options = direct_options();
  options.t_end = 5.0;
  const std::vector<std::int64_t> initial =
      to_counts(net.initial_state(), options.omega);
  std::vector<std::uint32_t> fired;
  const SsaResult run = run_direct_logged(system, options, initial, fired);
  ASSERT_GT(run.events, 1000u);
  std::vector<double> propensities(system.reaction_count());
  for (std::size_t j = 0; j < propensities.size(); ++j) {
    propensities[j] = system.propensity(j, initial, options.omega);
  }
  const std::uint64_t first_total = reference_suffix_terms(propensities, 0);
  EXPECT_GT(first_total, 0u);
  EXPECT_LT(first_total, 10u);
  EXPECT_EQ(run.selection_terms, first_total);
  EXPECT_EQ(run.selection_terms,
            expected_selection_terms(system, options, initial, fired, run));
}

TEST(DirectActiveSet, SelectionTermsMatchReplayedReference) {
  // Exact, so a set that misses a member switching off (or on), or re-adds
  // from the wrong entry, shows up as a different count even where it would
  // not change the result.
  std::vector<DirectCase> cases;
  cases.push_back({"word boundary", word_boundary_network()});
  cases.push_back({"mixed density", mixed_density_network()});
  cases.push_back({"cascade(4)", builtin_network("cascade(4)")});
  // delay_chain(16) idles at its default state; a token on its input makes
  // the handshakes switch reactions off and on along the chain.
  const scenario::BuiltDesign chain =
      scenario::ScenarioRegistry::global().resolve("delay_chain(16)").design;
  ReactionNetwork pulsed = *chain.network;
  for (const auto& [id, role] : chain.info.roots) {
    if (role == compile::PortRole::kInput) pulsed.set_initial(id, 1.0);
  }
  cases.push_back({"delay_chain(16) pulsed", std::move(pulsed)});

  SsaOptions options = direct_options();
  for (const DirectCase& c : cases) {
    const CompiledSystem system(c.network);
    const std::vector<std::int64_t> initial =
        to_counts(c.network.initial_state(), options.omega);
    for (const std::uint64_t seed : {1ull, 7ull}) {
      options.seed = seed;
      const std::string context = c.name + " seed " + std::to_string(seed);
      std::vector<std::uint32_t> fired;
      const SsaResult run = run_direct_logged(system, options, initial, fired);
      ASSERT_GT(run.events, 100u) << context;
      EXPECT_EQ(run.selection_terms,
                expected_selection_terms(system, options, initial, fired, run))
          << context;
    }
  }
}

TEST(DirectActiveSet, OtherMethodsLeaveSelectionTermsZero) {
  const ReactionNetwork net = catalysis_network();
  SsaOptions options = direct_options();
  options.t_end = 1.0;
  for (const SsaMethod method :
       {SsaMethod::kNextReaction, SsaMethod::kTauLeaping}) {
    options.method = method;
    EXPECT_EQ(simulate_ssa(net, options).selection_terms, 0u);
  }
}

// The active-set selector mirrors `select_reaction` (DirectSelection.* in
// test_ssa.cpp) over the nonzero entries only.
ActiveSet active_set_of(const std::vector<double>& values) {
  ActiveSet set(values.size());
  for (std::size_t j = 0; j < values.size(); ++j) set.assign(j, values[j]);
  return set;
}

TEST(ActiveSetSelection, ScansToFirstMemberReachingTarget) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const ActiveSet set = active_set_of(a);
  EXPECT_EQ(set.select(a, 0.5), 0u);
  EXPECT_EQ(set.select(a, 1.0), 0u);
  EXPECT_EQ(set.select(a, 1.5), 1u);
  EXPECT_EQ(set.select(a, 6.0), 2u);
}

TEST(ActiveSetSelection, ZeroDrawSkipsLeadingZeroPropensities) {
  const std::vector<double> a = {0.0, 0.0, 2.0, 3.0};
  const ActiveSet set = active_set_of(a);
  EXPECT_FALSE(set.contains(0));
  EXPECT_FALSE(set.contains(1));
  EXPECT_EQ(set.select(a, 0.0), 2u);
}

TEST(ActiveSetSelection, RoundingResidualNeverFiresZeroPropensity) {
  // The residual fixture of DirectSelection: the largest uniform draw times
  // the sequential sum leaves +2.3e-18 after the full scan. The trailing
  // zero is not a member, and the last positive member fires.
  const std::vector<double> a = {0.00032368783653411804, 0.07179676476832639,
                                 0.053929534852059736,  0.11309537029019168,
                                 0.00020391405043667976, 0.0};
  ActiveSet set = active_set_of(a);
  EXPECT_FALSE(set.contains(5));
  std::uint64_t terms = 0;
  const double total = set.total(a, terms);
  EXPECT_EQ(terms, 5u);
  double dense_total = 0.0;
  for (const double v : a) dense_total += v;
  ASSERT_EQ(total, dense_total);
  const double target = (1.0 - 0x1p-53) * total;
  double residual = target;
  for (const double v : a) residual -= v;
  ASSERT_GT(residual, 0.0) << "fixture no longer leaves a residual";
  EXPECT_EQ(set.select(a, target), 4u);
}

TEST(ActiveSetSelection, MatchesDenseScanBitwiseOnRandomPatterns) {
  // Random vectors whose 64-entry words range from empty through the dense
  // threshold to full, with signed zeros among the skipped entries. The sum
  // must be the dense sum's exact bits and every selection the dense one.
  util::Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t size = 1 + rng.uniform_below(300);
    std::vector<double> a(size);
    double density = 0.0;
    for (std::size_t j = 0; j < size; ++j) {
      if (j % 64 == 0) {  // per word; some words come out full
        density = rng.uniform() < 0.2 ? 1.0 : rng.uniform();
      }
      if (rng.uniform() < density) {
        const int scale = static_cast<int>(rng.uniform_below(40));
        a[j] = std::ldexp(rng.uniform() + 0.5, -scale);
      } else {
        a[j] = rng.uniform() < 0.5 ? 0.0 : -0.0;
      }
    }
    ActiveSet set = active_set_of(a);
    double dense_total = 0.0;
    for (const double v : a) dense_total += v;
    std::uint64_t terms = 0;
    const double total = set.total(a, terms);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(total),
              std::bit_cast<std::uint64_t>(dense_total))
        << "trial " << trial;
    ASSERT_LE(terms, size);
    if (!(dense_total > 0.0)) continue;
    for (const double u : {0.0, rng.uniform(), rng.uniform(), 1.0 - 0x1p-53}) {
      ASSERT_EQ(set.select(a, u * total), select_reaction(a, u * total))
          << "trial " << trial << " u " << u;
    }
  }
}

// The cached total re-adds only from the lowest entry assigned since the
// previous total, starting from the running total stored at the last member
// before it. After any sequence of assignments it must still be the dense
// index-order sum's exact bits.
TEST(ActiveSetTotal, CachedTotalEqualsDenseSumAfterRandomAssignments) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  util::Rng rng(77);
  const auto random_value = [&](double density) {
    const double u = rng.uniform();
    if (u >= density) return rng.uniform() < 0.5 ? 0.0 : -0.0;
    switch (rng.uniform_below(40)) {
      case 0:
        return std::numeric_limits<double>::quiet_NaN();
      case 1:
        return kInf;
      case 2:
        return -kInf;
      case 3:
        return std::numeric_limits<double>::denorm_min();
      case 4:
        return -rng.uniform();  // sums may cancel to exactly zero
      default:
        return std::ldexp(rng.uniform() + 0.5,
                          -static_cast<int>(rng.uniform_below(40)));
    }
  };
  // Sizes straddling the word boundaries, plus random ones.
  std::vector<std::size_t> sizes = {1, 63, 64, 65, 127, 128, 129, 192};
  for (int k = 0; k < 40; ++k) sizes.push_back(1 + rng.uniform_below(300));
  std::uint64_t reused = 0;
  for (std::size_t trial = 0; trial < sizes.size(); ++trial) {
    const std::size_t size = sizes[trial];
    // Per-word densities from empty through the dense threshold to full.
    std::vector<double> density((size + 63) / 64);
    for (double& d : density) {
      const double u = rng.uniform();
      d = u < 0.25 ? 1.0 : u < 0.35 ? 0.0 : rng.uniform();
    }
    std::vector<double> values(size);
    ActiveSet set(size);
    for (std::size_t j = 0; j < size; ++j) {
      values[j] = random_value(density[j / 64]);
      set.assign(j, values[j]);
    }
    for (int round = 0; round < 200; ++round) {
      const std::size_t changes = rng.uniform_below(4);
      for (std::size_t c = 0; c < changes; ++c) {
        // Favour the entries at the word boundaries.
        std::size_t j = rng.uniform_below(size);
        if (rng.uniform() < 0.3) {
          const std::size_t edges[] = {0, 62, 63, 64, 65, 127, 128};
          j = std::min(edges[rng.uniform_below(7)], size - 1);
        }
        const double fresh = random_value(density[j / 64]);
        // Assigning an unchanged value is allowed and only costs time.
        if (fresh != values[j] || rng.uniform() < 0.2) {
          values[j] = fresh;
          set.assign(j, fresh);
        }
        // Occasionally switch a whole word between empty and full.
        if (rng.uniform() < 0.02) {
          const double fill = rng.uniform() < 0.5 ? 0.0 : 1.0;
          const std::size_t base = j / 64 * 64;
          for (std::size_t i = base; i < std::min(base + 64, size); ++i) {
            values[i] = random_value(fill);
            set.assign(i, values[i]);
          }
        }
      }
      double dense = 0.0;
      for (const double v : values) dense += v;
      std::uint64_t terms = 0;
      const double total = set.total(values, terms);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(total),
                std::bit_cast<std::uint64_t>(dense))
          << "size " << size << " round " << round;
      for (std::size_t j = 0; j < size; ++j) {
        ASSERT_EQ(set.contains(j), values[j] != 0.0) << j;
      }
      if (changes == 0 && round > 0) {
        EXPECT_EQ(terms, 0u) << "nothing assigned, nothing to re-add";
        ++reused;
      }
    }
  }
  EXPECT_GT(reused, 100u) << "the unchanged-total path must be taken";
}

// ---------------------------------------------------------------------------
// Shared CompiledSystem across an ensemble: bitwise independent of the worker
// count, and equal to compiling the network per replicate.

TEST(SharedCompiledSystem, EnsembleBitwiseAcrossWorkersAndPerReplicateBuild) {
  const ReactionNetwork network = builtin_network("counter");
  SsaOptions ssa;
  ssa.t_end = 0.3;
  ssa.omega = 100.0;
  ssa.method = SsaMethod::kNextReaction;
  ssa.record_interval = 0.05;
  ssa.max_events = 40'000;

  auto run = [&](std::size_t threads) {
    runtime::EnsembleOptions ensemble;
    ensemble.replicates = 8;
    ensemble.base_seed = 11;
    ensemble.batch.threads = threads;
    return runtime::run_ssa_ensemble(network, ssa, ensemble);
  };
  const runtime::EnsembleResult serial = run(1);
  const runtime::EnsembleResult parallel = run(8);

  ASSERT_EQ(serial.ok, serial.replicates.size());
  ASSERT_EQ(parallel.replicates.size(), serial.replicates.size());
  for (std::size_t i = 0; i < serial.replicates.size(); ++i) {
    const runtime::JobResult& ref = serial.replicates[i];
    SsaOptions single = ssa;
    single.seed = ref.seed;
    const SsaResult alone = simulate_ssa(network, single);
    EXPECT_GT(ref.ssa_events, 0u) << "replicate " << i;
    EXPECT_EQ(alone.events, ref.ssa_events) << "replicate " << i;
    ASSERT_EQ(alone.final_counts.size(), ref.final_state.size());
    for (std::size_t s = 0; s < ref.final_state.size(); ++s) {
      EXPECT_EQ(static_cast<double>(alone.final_counts[s]) / ssa.omega,
                ref.final_state[s])
          << "replicate " << i << " species " << s;
    }

    const runtime::JobResult& got = parallel.replicates[i];
    EXPECT_EQ(got.status, ref.status) << "replicate " << i;
    EXPECT_EQ(got.seed, ref.seed) << "replicate " << i;
    EXPECT_EQ(got.ssa_events, ref.ssa_events) << "replicate " << i;
    EXPECT_EQ(got.end_time, ref.end_time) << "replicate " << i;
    EXPECT_EQ(got.final_state, ref.final_state) << "replicate " << i;
  }
}

// ---------------------------------------------------------------------------
// Arena allocator.

TEST(Arena, SpansAreValueInitializedAndAligned) {
  Arena arena;
  const std::span<double> d = arena.alloc<double>(17);
  ASSERT_EQ(d.size(), 17u);
  for (const double v : d) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % alignof(double), 0u);
  const std::span<std::uint8_t> bytes = arena.alloc<std::uint8_t>(3);
  const std::span<double> d2 = arena.alloc<double>(5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d2.data()) % alignof(double),
            0u);
  EXPECT_EQ(bytes.size(), 3u);
}

TEST(Arena, EarlierSpansSurviveBlockGrowth) {
  Arena arena(256);
  const std::span<double> first = arena.alloc<double>(8);
  first[0] = 1.5;
  first[7] = -2.5;
  // Force several new blocks; earlier spans must stay intact (blocks are
  // never reallocated).
  for (int i = 0; i < 20; ++i) (void)arena.alloc<double>(100);
  EXPECT_EQ(first[0], 1.5);
  EXPECT_EQ(first[7], -2.5);
  EXPECT_GE(arena.bytes_allocated(), 8 * sizeof(double) +
                                         20 * 100 * sizeof(double));
}

TEST(Arena, ZeroCountAllocIsEmpty) {
  Arena arena;
  EXPECT_TRUE(arena.alloc<double>(0).empty());
  EXPECT_EQ(arena.bytes_allocated(), 0u);
}

}  // namespace
}  // namespace mrsc::sim
