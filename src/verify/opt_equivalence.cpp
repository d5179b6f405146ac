#include "verify/opt_equivalence.hpp"

#include <cmath>
#include <map>
#include <string>

#include "compile/passes.hpp"
#include "runtime/ensemble.hpp"
#include "sim/ode.hpp"
#include "util/strings.hpp"

namespace mrsc::verify {
namespace {

using core::ReactionNetwork;
using core::SpeciesId;

using util::format;

/// Pointwise tolerance for surviving-species trajectories. The networks are
/// mathematically identical, so only floating-point re-association from
/// coalesced rate sums separates them.
constexpr double kSurvivorTolerance = 1e-6;
/// Eliminated species must stay below this in the original run (they are
/// provably identically zero; RK4 keeps exact zeros exact).
constexpr double kRemovedTolerance = 1e-9;

sim::OdeResult fixed_grid_run(const ReactionNetwork& network,
                              const OptEquivalenceOptions& o) {
  sim::OdeOptions ode;
  ode.method = sim::OdeMethod::kRk4Fixed;
  ode.t_end = o.t_end;
  ode.record_interval = o.record_interval;
  return sim::simulate_ode(network, ode);
}

}  // namespace

std::vector<Violation> check_optimization_equivalence(
    const ReactionNetwork& network, std::span<const SpeciesId> roots,
    const OptEquivalenceOptions& options) {
  constexpr const char* kOracle = "opt_equivalence";
  std::vector<Violation> out;

  ReactionNetwork optimized = network;
  compile::OptimizeResult opt;
  try {
    opt = compile::optimize_network(optimized, roots, compile::OptLevel::kO1);
  } catch (const std::exception& e) {
    out.push_back({kOracle, format("pipeline threw: %s", e.what())});
    return out;
  }

  // 1. Structural: the exact passes only ever shrink, and roots survive
  // untouched (same name, same initial concentration).
  if (optimized.species_count() > network.species_count() ||
      optimized.reaction_count() > network.reaction_count()) {
    out.push_back(
        {kOracle,
         format("pipeline grew the network: %zu sp / %zu rx -> %zu sp / "
                "%zu rx",
                network.species_count(), network.reaction_count(),
                optimized.species_count(), optimized.reaction_count())});
    return out;
  }
  for (const SpeciesId root : roots) {
    const SpeciesId mapped = opt.remap[root.index()];
    if (!mapped.valid()) {
      out.push_back({kOracle, format("root species '%s' was eliminated",
                                     network.species_name(root).c_str())});
      return out;
    }
    if (optimized.species_name(mapped) != network.species_name(root)) {
      out.push_back({kOracle,
                     format("root '%s' renamed to '%s'",
                            network.species_name(root).c_str(),
                            optimized.species_name(mapped).c_str())});
      return out;
    }
    if (optimized.initial(mapped) != network.initial(root)) {
      out.push_back({kOracle,
                     format("root '%s' initial changed: %g -> %g",
                            network.species_name(root).c_str(),
                            network.initial(root),
                            optimized.initial(mapped))});
      return out;
    }
  }

  // 2. Deterministic leg: identical fixed-step RK4 grids, pointwise
  // comparison of every surviving species; removed species must never leave
  // zero in the original run.
  const sim::OdeResult original_run = fixed_grid_run(network, options);
  const sim::OdeResult optimized_run = fixed_grid_run(optimized, options);
  for (std::size_t s = 0; s < network.species_count(); ++s) {
    const SpeciesId id(static_cast<std::uint32_t>(s));
    const SpeciesId mapped = opt.remap[s];
    if (!mapped.valid()) {
      for (std::size_t k = 0; k < original_run.trajectory.sample_count();
           ++k) {
        const double v = original_run.trajectory.value(k, id);
        if (std::abs(v) > kRemovedTolerance) {
          out.push_back(
              {kOracle,
               format("eliminated species '%s' reaches %.3e at t=%.3f in "
                      "the original network (claimed unreachable)",
                      network.species_name(id).c_str(), v,
                      original_run.trajectory.times()[k])});
          break;
        }
      }
      continue;
    }
    double worst = 0.0;
    double worst_t = 0.0;
    for (std::size_t k = 0; k < original_run.trajectory.sample_count(); ++k) {
      const double a = original_run.trajectory.value(k, id);
      const double b = optimized_run.trajectory.value(k, mapped);
      const double gap = std::abs(a - b);
      if (gap > worst) {
        worst = gap;
        worst_t = original_run.trajectory.times()[k];
      }
    }
    if (worst > kSurvivorTolerance) {
      out.push_back(
          {kOracle,
           format("species '%s' diverges by %.3e at t=%.3f between the "
                  "original and kO1 networks (tol %.1e)",
                  network.species_name(id).c_str(), worst, worst_t,
                  kSurvivorTolerance)});
    }
  }
  if (!out.empty() || !options.ssa) return out;

  // 3. Stochastic leg: per-species final means of matched SSA ensembles
  // must agree within the CLT band. The optimized network has a different
  // propensity layout, so the random streams diverge; only the distribution
  // is comparable, hence the band. Both sides are SSA at the same omega, so
  // the band has no bias term.
  sim::SsaOptions ssa;
  ssa.t_end = options.t_end;
  ssa.omega = options.omega;
  ssa.record_interval = options.t_end;  // final state only
  ssa.method = sim::SsaMethod::kNextReaction;
  runtime::EnsembleOptions ensemble;
  ensemble.replicates = options.replicates;
  ensemble.base_seed = options.base_seed;
  ensemble.batch.threads = 1;  // callers own the outer parallelism
  const auto original_ensemble =
      runtime::run_ssa_ensemble(network, ssa, ensemble);
  const auto optimized_ensemble =
      runtime::run_ssa_ensemble(optimized, ssa, ensemble);
  if (original_ensemble.ok == 0 || optimized_ensemble.ok == 0) {
    out.push_back({kOracle, "SSA ensembles produced no successful replicate"});
    return out;
  }
  std::map<std::string, const runtime::SpeciesStats*> by_name;
  for (const auto& stats : optimized_ensemble.final_stats) {
    by_name[stats.name] = &stats;
  }
  const double n_a = static_cast<double>(original_ensemble.ok);
  const double n_b = static_cast<double>(optimized_ensemble.ok);
  for (const auto& a : original_ensemble.final_stats) {
    const auto it = by_name.find(a.name);
    if (it == by_name.end()) continue;  // eliminated species
    const auto& b = *it->second;
    const double spread = kCltZ * std::sqrt(a.stddev * a.stddev / n_a +
                                            b.stddev * b.stddev / n_b);
    if (std::abs(a.mean - b.mean) > spread) {
      out.push_back(
          {kOracle,
           format("SSA mean of '%s' shifts %.4f -> %.4f under kO1 "
                  "(band %.4f)",
                  a.name.c_str(), a.mean, b.mean, spread)});
    }
  }
  return out;
}

}  // namespace mrsc::verify
