#include "analysis/decode.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/fallback.hpp"
#include "sync/dual_rail.hpp"

namespace mrsc::analysis {

namespace {

/// Detects the decoder's edges, injects, reads, and stops the run once
/// every cycle is read.
class Drive final : public sim::Observer {
 public:
  Drive(const Decoder& decoder, std::span<const double> stimulus,
        const DecodeOptions& options, DecodedRun& run)
      : decoder_(decoder),
        stimulus_(stimulus),
        warmup_(options.warmup_edges),
        run_(run),
        row_(decoder.columns.size()) {
    const double low = 0.2 * decoder.token;
    const double high = 0.6 * decoder.token;
    if (decoder.inject_on.valid()) {
      inject_.emplace(decoder.inject_on, low, high);
    }
    if (decoder.read_on.valid()) read_.emplace(decoder.read_on, low, high);
    run_.outputs.resize(row_.size());
  }

  void on_step(double t, std::span<double> state) override {
    if (decoder_.inject_first) inject(t, state);
    read(t, state);
    if (!decoder_.inject_first) inject(t, state);
  }

  bool should_stop(double, std::span<const double>) override {
    return read_ && run_.read_times.size() >= stimulus_.size();
  }

  void record(double t, std::span<double> state) {
    decoder_.read(state, row_);
    for (std::size_t c = 0; c < row_.size(); ++c) {
      run_.outputs[c].push_back(row_[c]);
    }
    run_.read_times.push_back(t);
  }

 private:
  /// The count of rising edges so far when this step added one, else 0.
  static std::size_t rose(std::optional<sim::EdgeDetector>& edge, double t,
                          std::span<double> state) {
    if (!edge) return 0;
    const std::size_t before = edge->rising_edges().size();
    edge->on_step(t, state);
    return edge->rising_edges().size() != before ? before + 1 : 0;
  }

  void inject(double t, std::span<double> state) {
    const std::size_t edge = rose(inject_, t, state);
    if (edge <= warmup_ || next_ >= stimulus_.size()) return;
    decoder_.inject(state, stimulus_[next_++]);
    run_.inject_times.push_back(t);
  }

  void read(double t, std::span<double> state) {
    const std::size_t edge = rose(read_, t, state);
    if (edge == 0) return;
    if (edge <= warmup_ + decoder_.read_lag) {
      decoder_.discard(state);
      return;
    }
    if (run_.read_times.size() < stimulus_.size()) record(t, state);
  }

  const Decoder& decoder_;
  std::span<const double> stimulus_;
  std::size_t warmup_;
  DecodedRun& run_;
  std::vector<double> row_;
  std::optional<sim::EdgeDetector> inject_;
  std::optional<sim::EdgeDetector> read_;
  std::size_t next_ = 0;
};

void clocked_plan(Decoder& decoder, const sync::ClockHandles& clock,
                  core::SpeciesId inject_on, core::SpeciesId read_on,
                  const sync::ClockSpec& spec = {}) {
  decoder.inject_on = inject_on;
  decoder.read_on = read_on;
  decoder.token = clock.token;
  decoder.clock = clock;
  decoder.clock_spec = spec;
}

}  // namespace

double Decoder::t_end(const core::RatePolicy& policy,
                      std::size_t cycles) const {
  // Empirically the period is ~15 * stretch / k_slow; provision 2.5x.
  const double period_guess = 15.0 * clock_spec.phase_stretch / policy.k_slow;
  return 2.5 * period_guess * static_cast<double>(cycles + 3);
}

std::string Decoder::skew_prefix(const core::ReactionNetwork& network) const {
  if (!clock) return "";
  // Builders label a clock's reactions "<prefix>.hop.*" and "<prefix>.ind.*",
  // so the hops that consume the red phase name the prefix ("ctr_clk.").
  // Composition prefixes a layer's species but keeps its labels: a cascade's
  // prefix retimes every layer's clock.
  for (const core::Reaction& reaction : network.reactions()) {
    const std::size_t hop = reaction.label().find(".hop.");
    const bool from_red = std::ranges::any_of(
        reaction.reactants(),
        [&](const core::Term& t) { return t.species == clock->phase_r; });
    if (hop != std::string::npos && from_red) {
      return reaction.label().substr(0, hop + 1);
    }
  }
  throw std::logic_error("Decoder::skew_prefix: no clock hop consumes '" +
                         network.species_name(clock->phase_r) + "'");
}

// --- circuits ----------------------------------------------------------------

CircuitDecoder::CircuitDecoder(std::vector<core::SpeciesId> in,
                               std::vector<core::SpeciesId> out,
                               Reference reference)
    : in_(std::move(in)), out_(std::move(out)),
      reference_(std::move(reference)) {
  if (in_.empty() || in_.size() > 2 || in_.size() != out_.size()) {
    throw std::invalid_argument(
        "CircuitDecoder: need one input and one output species, or a "
        "dual-rail pair of each");
  }
  name = in_.size() == 1 ? "run_clocked_circuit" : "run_dual_rail_circuit";
  columns = {"y"};
  driven = in_;
  driven.insert(driven.end(), out_.begin(), out_.end());
  fault_target = out_.front();
  // Read edge k+1 reads the sample injected at edge k; the read edge at
  // t ~ 0 comes before the first injecting edge.
  read_lag = 1;
  stimulus = in_.size() == 1
                 ? std::vector<double>{1.0, 0.0, 1.0, 1.0, 0.0, 2.0}
                 : std::vector<double>{1.0, -0.5, 0.0, 1.5, -1.0, 0.5};
}

CircuitDecoder CircuitDecoder::clocked(const sync::CompiledCircuit& circuit,
                                       Reference reference,
                                       const std::string& in,
                                       const std::string& out) {
  CircuitDecoder decoder({circuit.input(in)}, {circuit.output(out)},
                         std::move(reference));
  clocked_plan(decoder, circuit.clock, circuit.clock.phase_r,
               circuit.clock.phase_g);
  return decoder;
}

CircuitDecoder CircuitDecoder::dual_rail(const sync::CompiledCircuit& circuit,
                                         Reference reference) {
  CircuitDecoder decoder(
      {circuit.input(sync::rail_pos("x")), circuit.input(sync::rail_neg("x"))},
      {circuit.output(sync::rail_pos("y")),
       circuit.output(sync::rail_neg("y"))},
      std::move(reference));
  clocked_plan(decoder, circuit.clock, circuit.clock.phase_r,
               circuit.clock.phase_g);
  return decoder;
}

CircuitDecoder CircuitDecoder::self_timed(
    const async::CompiledAsyncCircuit& circuit, Reference reference) {
  // The heartbeat token is 1, Decoder::token's default.
  CircuitDecoder decoder({circuit.input("x")}, {circuit.output("y")},
                         std::move(reference));
  decoder.inject_on = circuit.pacing_inject;
  decoder.read_on = circuit.pacing;
  decoder.name = "run_async_circuit";
  return decoder;
}

void CircuitDecoder::inject(std::span<double> state, double sample) const {
  if (in_.size() == 1) {
    state[in_[0].index()] += sample;
  } else {
    state[in_[0].index()] += sample > 0.0 ? sample : 0.0;
    state[in_[1].index()] += sample < 0.0 ? -sample : 0.0;
  }
}

void CircuitDecoder::read(std::span<double> state,
                          std::span<double> row) const {
  double rails[2] = {0.0, 0.0};
  for (std::size_t i = 0; i < out_.size(); ++i) {
    rails[i] = state[out_[i].index()];
    state[out_[i].index()] = 0.0;
  }
  row[0] = out_.size() == 1 ? rails[0] : rails[0] - rails[1];
}

void CircuitDecoder::discard(std::span<double> state) const {
  for (const core::SpeciesId id : out_) state[id.index()] = 0.0;
}

Columns CircuitDecoder::reference(std::span<const double> stimulus) const {
  return {reference_ ? reference_(stimulus) : std::vector<double>{}};
}

// --- counters ----------------------------------------------------------------

CounterDecoder::CounterDecoder(const dsp::CounterSpec& spec_in,
                               const dsp::CounterHandles& handles_in)
    : spec(spec_in), handles(handles_in) {
  // Increment k lands between the k-th and (k+1)-th C_R edges counted with
  // the same warm-up, so read k follows it.
  clocked_plan(*this, handles.clock, handles.clock.phase_g,
               handles.clock.phase_r, spec.clock);
  name = "run_counter";
  noun = "reads";
  columns = {"value"};
  exact = true;
  driven = {handles.increment};
  fault_target = handles.one_rail[0];
  stimulus.assign(6, 1.0);
}

void CounterDecoder::inject(std::span<double> state, double sample) const {
  state[handles.increment.index()] += sample;
}

void CounterDecoder::read(std::span<double> state,
                          std::span<double> row) const {
  row[0] = static_cast<double>(dsp::decode_counter(handles, state));
}

Columns CounterDecoder::reference(std::span<const double> stimulus) const {
  const std::uint64_t modulo = std::uint64_t{1} << spec.bits;
  std::uint64_t value = spec.initial_value % modulo;
  std::vector<double> values;
  for (const double increment : stimulus) {
    if (increment != 0.0 && increment != 1.0) {
      throw std::invalid_argument("CounterDecoder: increments are 0 or 1");
    }
    value = (value + static_cast<std::uint64_t>(increment)) % modulo;
    values.push_back(static_cast<double>(value));
  }
  return {values};
}

// --- FSMs --------------------------------------------------------------------

FsmDecoder::FsmDecoder(const fsm::FsmSpec& spec_in,
                       const fsm::FsmHandles& handles_in)
    : spec(spec_in), handles(handles_in) {
  clocked_plan(*this, handles.clock, handles.clock.phase_g,
               handles.clock.phase_r, spec.clock);
  inject_first = true;
  name = "run_fsm";
  noun = "steps";
  columns = {"state", "output"};
  exact = true;
  driven = handles.input;
  driven.insert(driven.end(), handles.output.begin(), handles.output.end());
  fault_target = handles.state[0];
  stimulus = {1, 0, 1, 0, 1, 1};
}

void FsmDecoder::inject(std::span<double> state, double sample) const {
  state[handles.input[static_cast<std::size_t>(sample)].index()] += 1.0;
}

void FsmDecoder::read(std::span<double> state, std::span<double> row) const {
  row[0] = static_cast<double>(fsm::decode_state(handles, state));
  row[1] = -1.0;
  for (std::size_t x = 0; x < handles.output.size(); ++x) {
    const std::size_t idx = handles.output[x].index();
    if (state[idx] > 0.5) row[1] = static_cast<double>(x);
    state[idx] = 0.0;
  }
}

Columns FsmDecoder::reference(std::span<const double> stimulus) const {
  std::vector<std::size_t> symbols;
  const auto alphabet = static_cast<double>(handles.input.size());
  for (const double sample : stimulus) {
    if (!(sample >= 0.0 && sample < alphabet) || sample != std::floor(sample)) {
      throw std::invalid_argument("FsmDecoder: input symbol out of range");
    }
    symbols.push_back(static_cast<std::size_t>(sample));
  }
  const fsm::FsmTrace trace = fsm::evaluate_reference(spec, symbols);
  Columns expected(2);
  for (std::size_t k = 0; k < symbols.size(); ++k) {
    expected[0].push_back(static_cast<double>(trace.states[k]));
    expected[1].push_back(trace.outputs[k] == fsm::kNoOutput
                              ? -1.0
                              : static_cast<double>(trace.outputs[k]));
  }
  return expected;
}

// --- delay chains ------------------------------------------------------------

ChainDecoder::ChainDecoder(const async::ChainSpec& spec_in,
                           const async::ChainHandles& handles_in)
    : spec(spec_in), handles(handles_in) {
  name = "async chain";
  columns = {"y"};
  fault_target = handles.output;
  stimulus = {1.0};
}

void ChainDecoder::read(std::span<double> state, std::span<double> row) const {
  row[0] = state[handles.output.index()];
}

Columns ChainDecoder::reference(std::span<const double> stimulus) const {
  if (stimulus.size() != 1) {
    throw std::invalid_argument("ChainDecoder: one token per run");
  }
  return {{stimulus[0]}};
}

void ChainDecoder::prime(core::ReactionNetwork& network,
                         std::span<const double> stimulus) const {
  network.set_initial(handles.input, reference(stimulus)[0][0]);
}

double ChainDecoder::t_end(const core::RatePolicy&, std::size_t) const {
  return 40.0 * static_cast<double>(spec.elements + 1);
}

std::string ChainDecoder::skew_prefix(const core::ReactionNetwork&) const {
  return spec.prefix + ".";
}

// --- the driver --------------------------------------------------------------

DecodedRun run_decoded(const core::ReactionNetwork& network,
                       const sim::OdeOptions& ode, const Decoder& decoder,
                       std::span<const double> stimulus,
                       const DecodeOptions& options) {
  if (stimulus.empty()) {
    throw std::invalid_argument(decoder.name + ": empty stimulus");
  }
  DecodedRun run;
  run.expected = decoder.reference(stimulus);
  Drive drive(decoder, stimulus, options, run);
  std::vector<sim::Observer*> observers = {&drive};
  observers.insert(observers.end(), options.extra_observers.begin(),
                   options.extra_observers.end());
  run.ode = sim::simulate_ode(
      network, ode, network.initial_state(),
      std::span<sim::Observer* const>(observers.data(), observers.size()));

  const std::vector<double>& reads = run.read_times;
  if (!decoder.read_on.valid()) {
    // No read edge: the run must end cleanly; its final state is read.
    const sim::SimFailure failure = sim::classify_failure(run.ode);
    if (failure) throw std::runtime_error(decoder.name + ": " + failure.detail);
    const std::span<const double> last = run.ode.trajectory.final_state();
    std::vector<double> state(last.begin(), last.end());
    drive.record(run.ode.end_time, state);
  } else if (reads.size() < stimulus.size()) {
    // Say so when the abort hook (deadline/cancellation) stopped the run,
    // instead of blaming t_end.
    throw std::runtime_error(
        decoder.name + ": simulation " +
        (run.ode.aborted ? "aborted by deadline/cancellation" : "ended") +
        " after " + std::to_string(reads.size()) + "/" +
        std::to_string(stimulus.size()) + " " + decoder.noun +
        (run.ode.aborted ? "" : "; increase OdeOptions::t_end"));
  } else if (reads.size() >= 2) {
    run.clock_period = (reads.back() - reads.front()) /
                       static_cast<double>(reads.size() - 1);
  }
  return run;
}

}  // namespace mrsc::analysis
