#include "runtime/ensemble.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "sim/engine/compiled_system.hpp"
#include "util/rng.hpp"

namespace mrsc::runtime {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  q = std::clamp(q, 0.0, 1.0);
  const double position = q * static_cast<double>(sorted.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  if (lower + 1 >= sorted.size()) return sorted.back();
  const double fraction = position - static_cast<double>(lower);
  return sorted[lower] + fraction * (sorted[lower + 1] - sorted[lower]);
}

util::json::Value SpeciesStats::to_value() const {
  using util::json::Value;
  Value out;
  out.set("name", Value(name));
  for (const auto& [key, value] :
       {std::pair{"mean", mean}, {"stddev", stddev}, {"min", min},
        {"max", max}, {"q05", q05}, {"q50", q50}, {"q95", q95}}) {
    out.set(key, Value(value));
  }
  return out;
}

SpeciesStats reduce_species(std::string name, std::vector<double> values) {
  SpeciesStats stats;
  stats.name = std::move(name);
  if (values.empty()) return stats;
  std::sort(values.begin(), values.end());
  stats.min = values.front();
  stats.max = values.back();
  stats.q05 = quantile_sorted(values, 0.05);
  stats.q50 = quantile_sorted(values, 0.50);
  stats.q95 = quantile_sorted(values, 0.95);
  double sum = 0.0;
  for (const double v : values) sum += v;
  stats.mean = sum / static_cast<double>(values.size());
  if (values.size() > 1) {
    double sq = 0.0;
    for (const double v : values) {
      sq += (v - stats.mean) * (v - stats.mean);
    }
    stats.stddev = std::sqrt(sq / static_cast<double>(values.size() - 1));
  }
  return stats;
}

std::vector<SimJob> make_ensemble_jobs(const core::ReactionNetwork& network,
                                       const sim::SsaOptions& ssa,
                                       std::size_t replicates,
                                       std::uint64_t base_seed) {
  std::vector<SimJob> jobs(replicates);
  for (std::size_t i = 0; i < replicates; ++i) {
    SimJob& job = jobs[i];
    job.network = &network;
    job.kind = SimKind::kSsa;
    job.ssa = ssa;
    job.ssa.seed = util::Rng::stream_seed(base_seed, i);
  }
  return jobs;
}

EnsembleResult run_ssa_ensemble(const core::ReactionNetwork& network,
                                const sim::SsaOptions& ssa,
                                const EnsembleOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<SimJob> jobs = make_ensemble_jobs(
      network, ssa, options.replicates, options.base_seed);

  // Compile the design once and share it read-only across every replicate
  // (and every ladder rung) instead of re-deriving the reaction structure
  // per job. Results are unchanged: the compiled form is a pure function of
  // the network.
  const sim::CompiledSystem shared(network);
  for (SimJob& job : jobs) job.compiled = &shared;

  BatchRunner runner(options.batch);
  EnsembleResult result;
  result.replicates = runner.run(jobs);
  for (const JobResult& job : result.replicates) {
    switch (job.status) {
      case JobStatus::kOk:
        ++result.ok;
        break;
      case JobStatus::kFailed:
        ++result.failed;
        break;
      case JobStatus::kTimeout:
        ++result.timed_out;
        break;
      case JobStatus::kCancelled:
        ++result.cancelled;
        break;
      case JobStatus::kQuarantined:
        ++result.quarantined;
        break;
    }
  }

  const std::size_t species = network.species_count();
  result.final_stats.resize(species);
  std::vector<double> values;
  values.reserve(result.ok);
  for (std::size_t s = 0; s < species; ++s) {
    values.clear();
    for (const JobResult& job : result.replicates) {
      if (job.status == JobStatus::kOk && s < job.final_state.size()) {
        values.push_back(job.final_state[s]);
      }
    }
    result.final_stats[s] = reduce_species(
        network.species_name(core::SpeciesId{
            static_cast<core::SpeciesId::underlying_type>(s)}),
        values);
  }
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  return result;
}

}  // namespace mrsc::runtime
