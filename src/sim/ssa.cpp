#include "sim/ssa.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/engine/active_set.hpp"
#include "sim/engine/arena.hpp"
#include "util/rng.hpp"

namespace mrsc::sim {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Cancellation polling for the exact methods: the hook is called before
/// events 0, stride, 2·stride, … (stride `abort_check_events`), counted down
/// so the per-event hot path pays no division.
class AbortPoll {
 public:
  explicit AbortPoll(const SsaOptions& options)
      : abort_(options.abort),
        stride_(std::max<std::uint64_t>(options.abort_check_events, 1)) {}

  /// Called once before each event; true when the hook requests a stop.
  bool requested() {
    if (--countdown_ != 0) return false;
    countdown_ = stride_;
    return abort_ && abort_();
  }

 private:
  const std::function<bool()>& abort_;
  std::uint64_t stride_;
  std::uint64_t countdown_ = 1;
};

/// Indexed binary min-heap over (reaction, absolute firing time); supports
/// decrease/increase-key by reaction index, as the next-reaction method needs.
class IndexedTimeHeap {
 public:
  explicit IndexedTimeHeap(std::span<const double> initial_times)
      : times_(initial_times.begin(), initial_times.end()),
        heap_(initial_times.size()),
        position_(initial_times.size()) {
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      heap_[i] = i;
      position_[i] = i;
    }
    for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t top_reaction() const { return heap_.front(); }
  [[nodiscard]] double top_time() const { return times_[heap_.front()]; }

  void update(std::size_t reaction, double new_time) {
    const double old_time = times_[reaction];
    times_[reaction] = new_time;
    const std::size_t pos = position_[reaction];
    if (new_time < old_time) {
      sift_up(pos);
    } else if (new_time > old_time) {
      sift_down(pos);
    }
  }

 private:
  void sift_up(std::size_t pos) {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (times_[heap_[parent]] <= times_[heap_[pos]]) break;
      swap_nodes(parent, pos);
      pos = parent;
    }
  }

  void sift_down(std::size_t pos) {
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t left = 2 * pos + 1;
      const std::size_t right = left + 1;
      std::size_t smallest = pos;
      if (left < n && times_[heap_[left]] < times_[heap_[smallest]]) {
        smallest = left;
      }
      if (right < n && times_[heap_[right]] < times_[heap_[smallest]]) {
        smallest = right;
      }
      if (smallest == pos) break;
      swap_nodes(smallest, pos);
      pos = smallest;
    }
  }

  void swap_nodes(std::size_t a, std::size_t b) {
    std::swap(heap_[a], heap_[b]);
    position_[heap_[a]] = a;
    position_[heap_[b]] = b;
  }

  std::vector<double> times_;       // keyed by reaction index
  std::vector<std::size_t> heap_;   // heap of reaction indices
  std::vector<std::size_t> position_;  // reaction -> heap slot
};

/// Shared recording helper: samples counts (as concentrations) on a fixed
/// time grid using zero-order hold between events.
class SsaRecorder {
 public:
  SsaRecorder(const SsaOptions& options, std::size_t species_count)
      : options_(options),
        scratch_(species_count),
        trajectory_(species_count) {}

  void record_initial(std::span<const std::int64_t> counts) {
    sample(0.0, counts);
    next_sample_ = options_.record_interval;
  }

  /// Fills the sampling grid up to (but not including) `t_event` with the
  /// pre-event counts, implementing zero-order hold.
  void before_event(double t_event, std::span<const std::int64_t> counts) {
    while (next_sample_ < t_event && next_sample_ <= options_.t_end) {
      sample(next_sample_, counts);
      next_sample_ += options_.record_interval;
    }
  }

  void finish(double t_final, std::span<const std::int64_t> counts) {
    before_event(t_final, counts);
    sample(t_final, counts);
  }

  [[nodiscard]] Trajectory take() { return std::move(trajectory_); }

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

/// Propensity evaluator for one run: CSR tables plus per-run hoisted scale
/// factors carved from the run arena. The referenced CompiledSystem is
/// strictly read-only, so one instance is safely shared across concurrent
/// replicates.
class CompiledEval {
 public:
  CompiledEval(const CompiledSystem& system, double omega, Arena& arena)
      : system_(system),
        scaled_(arena.alloc<double>(system.reaction_count())) {
    system_.scaled_rates(omega, scaled_);
  }

  [[nodiscard]] std::size_t reaction_count() const {
    return system_.reaction_count();
  }
  [[nodiscard]] std::size_t species_count() const {
    return system_.species_count();
  }
  [[nodiscard]] double propensity(std::size_t j,
                                  std::span<const std::int64_t> n) const {
    return system_.propensity_scaled(j, n, scaled_[j]);
  }
  void apply(std::size_t j, std::span<std::int64_t> n) const {
    system_.apply(j, n);
  }
  [[nodiscard]] std::span<const std::uint32_t> affected(std::size_t j) const {
    return system_.affected_reactions(j);
  }
  [[nodiscard]] bool affects_own_reactants(std::size_t j) const {
    return system_.affects_own_reactants(j);
  }
  template <class F>
  void for_each_reactant(std::size_t j, F&& f) const {
    const auto species = system_.reactant_species(j);
    const auto stoich = system_.reactant_stoich(j);
    for (std::size_t k = 0; k < species.size(); ++k) {
      f(species[k], stoich[k]);
    }
  }

 private:
  const CompiledSystem& system_;
  std::span<double> scaled_;
};

SsaResult run_direct(const CompiledEval& eval, const SsaOptions& options,
                     std::vector<std::int64_t> counts) {
  util::Rng rng(options.seed);
  const std::size_t m = eval.reaction_count();
  SsaResult result;
  SsaRecorder recorder(options, eval.species_count());
  recorder.record_initial(counts);

  AbortPoll abort(options);
  std::vector<double> propensities(m);
  ActiveSet active(m);
  for (std::size_t j = 0; j < m; ++j) {
    propensities[j] = eval.propensity(j, counts);
    active.assign(j, propensities[j]);
  }
  result.propensity_evaluations = m;
  double t = 0.0;
  while (t < options.t_end && result.events < options.max_events) {
    if (abort.requested()) {
      result.aborted = true;
      break;
    }
    // The index-order sum a full recompute would form, bitwise: the set
    // re-adds only from the lowest propensity that changed, and skips the
    // exact zeros, neither of which moves a partial sum.
    const double total = active.total(propensities, result.selection_terms);
    if (total <= 0.0) {
      result.exhausted = true;
      break;
    }
    const double dt = rng.exponential(total);
    const double t_next = t + dt;
    if (t_next > options.t_end) {
      t = options.t_end;
      break;
    }
    const std::size_t chosen =
        active.select(propensities, rng.uniform() * total);
    recorder.before_event(t_next, counts);
    eval.apply(chosen, counts);
    t = t_next;
    ++result.events;

    // Only reactions reading a species `chosen` changed can have a new
    // propensity; a pure-catalysis self-edge keeps its stored value. Only a
    // value that differs (a NaN always does) invalidates the cached totals.
    const auto deps = eval.affected(chosen);
    const bool skip_self = !eval.affects_own_reactants(chosen);
    for (const std::uint32_t dep : deps) {
      if (skip_self && dep == chosen) continue;
      const double a = eval.propensity(dep, counts);
      const double previous = propensities[dep];
      propensities[dep] = a;
      if (a != previous) active.assign(dep, a);
    }
    result.propensity_evaluations += deps.size() - (skip_self ? 1 : 0);
  }
  result.hit_event_limit =
      result.events >= options.max_events && t < options.t_end;
  result.end_time = std::min(t, options.t_end);
  recorder.finish(result.end_time, counts);
  result.trajectory = recorder.take();
  result.final_counts = std::move(counts);
  return result;
}

SsaResult run_next_reaction(const CompiledEval& eval, const SsaOptions& options,
                            std::vector<std::int64_t> counts) {
  util::Rng rng(options.seed);
  const std::size_t m = eval.reaction_count();
  SsaResult result;
  SsaRecorder recorder(options, eval.species_count());
  recorder.record_initial(counts);

  AbortPoll abort(options);
  std::vector<double> propensities(m);
  std::vector<double> firing_times(m);
  for (std::size_t j = 0; j < m; ++j) {
    propensities[j] = eval.propensity(j, counts);
    firing_times[j] = propensities[j] > 0.0
                          ? rng.exponential(propensities[j])
                          : kInfinity;
  }
  result.propensity_evaluations = m;
  IndexedTimeHeap heap(firing_times);

  double t = 0.0;
  while (result.events < options.max_events) {
    if (abort.requested()) {
      result.aborted = true;
      break;
    }
    const std::size_t fired = heap.top_reaction();
    const double t_next = heap.top_time();
    if (t_next == kInfinity) {
      result.exhausted = true;
      break;
    }
    if (t_next > options.t_end) {
      t = options.t_end;
      break;
    }
    recorder.before_event(t_next, counts);
    eval.apply(fired, counts);
    t = t_next;
    ++result.events;

    // Update every dependent reaction's propensity and firing time.
    const auto deps = eval.affected(fired);
    const bool skip_self = !eval.affects_own_reactants(fired);
    for (std::uint32_t dep : deps) {
      double a_new;
      if (skip_self && dep == fired) {
        // Pure catalysis: firing left fired's own reactant counts untouched,
        // so its propensity is exactly the stored value — skip the recompute.
        // (It still needs a fresh exponential draw below.)
        a_new = propensities[fired];
      } else {
        a_new = eval.propensity(dep, counts);
      }
      double new_time;
      if (dep == fired) {
        new_time = a_new > 0.0 ? t + rng.exponential(a_new) : kInfinity;
      } else {
        const double a_old = propensities[dep];
        const double old_time = firing_times[dep];
        if (a_new <= 0.0) {
          new_time = kInfinity;
        } else if (a_old <= 0.0 || old_time == kInfinity) {
          new_time = t + rng.exponential(a_new);
        } else {
          // Gibson-Bruck reuse: rescale the residual waiting time.
          new_time = t + (a_old / a_new) * (old_time - t);
        }
      }
      propensities[dep] = a_new;
      firing_times[dep] = new_time;
      heap.update(dep, new_time);
    }
    result.propensity_evaluations += deps.size() - (skip_self ? 1 : 0);
  }
  result.hit_event_limit =
      result.events >= options.max_events && t < options.t_end;
  result.end_time = std::min(t, options.t_end);
  recorder.finish(result.end_time, counts);
  result.trajectory = recorder.take();
  result.final_counts = std::move(counts);
  return result;
}

SsaResult run_tau_leaping(const CompiledEval& eval, const SsaOptions& options,
                          std::vector<std::int64_t> counts) {
  util::Rng rng(options.seed);
  const std::size_t m = eval.reaction_count();
  SsaResult result;
  SsaRecorder recorder(options, eval.species_count());
  recorder.record_initial(counts);

  double t = 0.0;
  while (t < options.t_end && result.events < options.max_events) {
    if (options.abort && options.abort()) {  // every leap is coarse enough
      result.aborted = true;
      break;
    }
    const double tau = std::min(options.tau, options.t_end - t);
    if (t + tau <= t) break;  // leap below one ulp of t: cannot advance
    bool any_active = false;
    std::uint64_t fired_this_leap = 0;
    for (std::size_t j = 0; j < m; ++j) {
      const double a = eval.propensity(j, counts);
      if (a <= 0.0) continue;
      any_active = true;
      std::uint64_t firings = rng.poisson(a * tau);
      // Cap the batch by the available reactants: an uncapped overshoot
      // would drive counts negative, and naive clamping *mints* molecules —
      // a fast reversible pair (e.g. the feedback dimers 2G <-> I) then
      // amplifies the surplus into a runaway.
      eval.for_each_reactant(j, [&](std::uint32_t idx, std::uint32_t stoich) {
        const std::uint64_t cap =
            static_cast<std::uint64_t>(counts[idx] / stoich);
        firings = std::min(firings, cap);
      });
      for (std::uint64_t f = 0; f < firings; ++f) {
        eval.apply(j, counts);
      }
      fired_this_leap += firings;
    }
    if (!any_active) {
      result.exhausted = true;
      break;
    }
    recorder.before_event(t + tau, counts);
    t += tau;
    result.events += fired_this_leap;
  }
  result.hit_event_limit =
      result.events >= options.max_events && t < options.t_end;
  result.end_time = std::min(t, options.t_end);
  recorder.finish(result.end_time, counts);
  result.trajectory = recorder.take();
  result.final_counts = std::move(counts);
  return result;
}

void validate_options(std::size_t species_count, const SsaOptions& options,
                      const std::vector<std::int64_t>& initial_counts) {
  if (initial_counts.size() != species_count) {
    throw std::invalid_argument("simulate_ssa: initial counts size mismatch");
  }
  if (options.t_end <= 0.0 || options.omega <= 0.0 ||
      options.record_interval <= 0.0) {
    throw std::invalid_argument(
        "simulate_ssa: t_end, omega, record_interval must be positive");
  }
  if (options.method == SsaMethod::kTauLeaping && options.tau <= 0.0) {
    throw std::invalid_argument("simulate_ssa: tau must be positive");
  }
}

SsaResult dispatch_method(const CompiledEval& eval, const SsaOptions& options,
                          std::vector<std::int64_t> counts) {
  switch (options.method) {
    case SsaMethod::kDirect:
      return run_direct(eval, options, std::move(counts));
    case SsaMethod::kNextReaction:
      return run_next_reaction(eval, options, std::move(counts));
    case SsaMethod::kTauLeaping:
      return run_tau_leaping(eval, options, std::move(counts));
  }
  throw std::logic_error("simulate_ssa: unknown method");
}

}  // namespace

std::size_t select_reaction(std::span<const double> propensities,
                            double target) {
  for (std::size_t j = 0; j < propensities.size(); ++j) {
    target -= propensities[j];
    // The positivity test matters only for a zero draw (target == 0), which
    // would otherwise pick a leading zero-propensity reaction.
    if (target <= 0.0 && propensities[j] > 0.0) return j;
  }
  // Rounding in the sequential subtraction can leave target a few ulps above
  // zero after the full scan.
  for (std::size_t j = propensities.size(); j-- > 0;) {
    if (propensities[j] > 0.0) return j;
  }
  throw std::logic_error("select_reaction: no positive propensity");
}

std::vector<std::int64_t> to_counts(std::span<const double> concentrations,
                                    double omega) {
  // 2^63: the first double an int64 cannot hold (llround's result there is
  // unspecified, in practice INT64_MIN).
  constexpr double kCountLimit = 0x1p63;
  std::vector<std::int64_t> counts(concentrations.size());
  for (std::size_t i = 0; i < concentrations.size(); ++i) {
    const double scaled = concentrations[i] * omega;
    if (!std::isfinite(scaled) || scaled >= kCountLimit) {
      char amount[32];
      std::snprintf(amount, sizeof amount, "%g", scaled);
      throw std::invalid_argument(
          "to_counts: species " + std::to_string(i) + ": concentration x "
          "omega = " + amount + " molecules has no int64 count");
    }
    counts[i] = scaled <= 0.0 ? 0 : static_cast<std::int64_t>(
                                         std::llround(scaled));
  }
  return counts;
}

SsaResult simulate_ssa(const core::ReactionNetwork& network,
                       const SsaOptions& options,
                       std::vector<double> initial_concentrations) {
  if (initial_concentrations.empty()) {
    initial_concentrations = network.initial_state();
  }
  const CompiledSystem system(network);
  return simulate_ssa(system, options,
                      to_counts(initial_concentrations, options.omega));
}

SsaResult simulate_ssa(const CompiledSystem& system, const SsaOptions& options,
                       std::vector<std::int64_t> initial_counts) {
  validate_options(system.species_count(), options, initial_counts);
  Arena arena;
  const CompiledEval eval(system, options.omega, arena);
  return dispatch_method(eval, options, std::move(initial_counts));
}

}  // namespace mrsc::sim
