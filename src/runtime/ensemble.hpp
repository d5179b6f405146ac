// N-replicate SSA ensembles with summary statistics.
//
// One stochastic trajectory says little; the paper-style claim is about the
// distribution over realizations ("the counter reads 5 in 98% of runs").
// `run_ssa_ensemble` fans `replicates` independent SSA jobs over a
// `BatchRunner` — replicate i seeded with `Rng::stream_seed(base_seed, i)`,
// so the ensemble is reproducible and bitwise independent of the worker
// count — and reduces the final states to per-species mean / stddev /
// quantiles.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "runtime/batch.hpp"
#include "sim/ssa.hpp"

namespace mrsc::runtime {

struct EnsembleOptions {
  std::size_t replicates = 32;
  std::uint64_t base_seed = 1;  ///< replicate i runs stream_seed(base, i)
  BatchOptions batch;           ///< threads / per-job timeout
};

/// Distribution of one species' final concentration over the ensemble.
struct SpeciesStats {
  std::string name;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1)
  double min = 0.0;
  double max = 0.0;
  double q05 = 0.0;  ///< 5th percentile
  double q50 = 0.0;  ///< median
  double q95 = 0.0;  ///< 95th percentile

  /// {"name","mean","stddev","min","max","q05","q50","q95"}, in that order:
  /// the species entry of mrsc_batch's and the fleet's ensemble reports.
  [[nodiscard]] util::json::Value to_value() const;
};

struct EnsembleResult {
  std::vector<JobResult> replicates;  ///< per-replicate outcomes, in order
  /// Per-species stats over the *successful* replicates only.
  std::vector<SpeciesStats> final_stats;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t timed_out = 0;
  std::size_t cancelled = 0;
  std::size_t quarantined = 0;  ///< persistent failures set aside by retries
  double wall_seconds = 0.0;  ///< whole-ensemble wall time
};

/// Builds the replicate jobs for `network` under `ssa` (whose `seed` field is
/// overridden per replicate as described above).
[[nodiscard]] std::vector<SimJob> make_ensemble_jobs(
    const core::ReactionNetwork& network, const sim::SsaOptions& ssa,
    std::size_t replicates, std::uint64_t base_seed);

/// Runs the ensemble and reduces final states to per-species statistics.
[[nodiscard]] EnsembleResult run_ssa_ensemble(
    const core::ReactionNetwork& network, const sim::SsaOptions& ssa,
    const EnsembleOptions& options);

/// Linear-interpolation quantile of `sorted` (ascending); q in [0, 1].
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted,
                                     double q);

/// Reduces one species' final values (any order; sorted internally) to the
/// ensemble statistics. This is THE reduction — run_ssa_ensemble and the
/// fleet merge (src/fleet) both call it, which is what makes a sharded
/// ensemble bitwise-identical to a local one: the merge re-assembles the
/// same value multiset and hands it to the same floating-point expression.
[[nodiscard]] SpeciesStats reduce_species(std::string name,
                                          std::vector<double> values);

}  // namespace mrsc::runtime
