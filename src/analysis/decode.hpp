// One decode path for every clocked and self-timed design.
//
// The paper drives its examples one way: one input sample is injected per
// clock cycle, the output is read (and cleared) once per cycle, and the run
// stops once every cycle has been read. A `Decoder` says how one design
// family is driven and read: a stimulus plan (the rising edges of
// `inject_on` inject one sample each), a sampling plan (the rising edges of
// `read_on` read one cycle each, clearing what the read consumes) and
// `reference(stimulus)`, the outputs the design should produce.
// `run_decoded` is the one driver behind every family.
//
// Observer order is part of the contract: circuits and counters read before
// they inject when both edges land on one step (a read at edge k sees the
// result of the sample injected at edge k-1), FSMs inject first, and extra
// observers (fault events) run after the decoder.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "async/chain.hpp"
#include "async/circuit.hpp"
#include "dsp/counter.hpp"
#include "fsm/fsm.hpp"
#include "sim/ode.hpp"
#include "sync/circuit.hpp"

namespace mrsc::analysis {

/// Decoded values, one series per decoder column, one entry per cycle.
using Columns = std::vector<std::vector<double>>;

class Decoder {
 public:
  Decoder() = default;
  Decoder(const Decoder&) = default;
  Decoder(Decoder&&) = default;
  Decoder& operator=(const Decoder&) = default;
  Decoder& operator=(Decoder&&) = default;
  virtual ~Decoder() = default;

  /// Stimulus plan; invalid for delay chains, whose stimulus is their
  /// initial state (see `prime`).
  core::SpeciesId inject_on;
  /// Sampling plan; a read skips `read_lag` more edges than the injection.
  /// Invalid for delay chains, which read the final state once.
  core::SpeciesId read_on;
  std::size_t read_lag = 0;
  bool inject_first = false;
  /// Edges rise above 0.6 token and re-arm below 0.2 token.
  double token = 1.0;
  /// The run's name in its incomplete-run error ("run_counter: simulation
  /// ended after 2/6 reads"). The names predate this driver; recorded stress
  /// reports carry them.
  std::string name;
  std::string noun = "outputs";
  std::vector<std::string> columns;
  /// Integer-valued columns (counter values, FSM states): compare exactly.
  bool exact = false;
  /// Species the driver writes; conservation checks mask them.
  std::vector<core::SpeciesId> driven;
  std::optional<sync::ClockHandles> clock;
  sync::ClockSpec clock_spec;
  /// Where fault campaigns aim their injection/loss events.
  core::SpeciesId fault_target;
  /// A short stimulus that exercises the design's sequential logic (stress
  /// trials and the catalog smoke test drive it).
  std::vector<double> stimulus;

  virtual void inject(std::span<double> state, double sample) const = 0;
  /// Decodes one cycle into `row` (one value per column).
  virtual void read(std::span<double> state, std::span<double> row) const = 0;
  /// A read edge inside the warm-up (circuits clear their outputs).
  virtual void discard(std::span<double> /*state*/) const {}
  /// Expected columns; std::invalid_argument for a stimulus the design
  /// cannot take.
  [[nodiscard]] virtual Columns reference(
      std::span<const double> stimulus) const = 0;
  /// Puts a stimulus held from t = 0 into the initial state (delay chains
  /// only); call it before faulting or copying the network.
  virtual void prime(core::ReactionNetwork& /*network*/,
                     std::span<const double> /*stimulus*/) const {}
  /// An ODE horizon generous enough for `cycles` cycles (the run stops
  /// early, so over-provisioning is cheap).
  [[nodiscard]] virtual double t_end(const core::RatePolicy& policy,
                                     std::size_t cycles) const;
  /// The label prefix of the clock reactions ("ctr_clk."), which clock-skew
  /// faults retime; read from the hops out of the red phase.
  [[nodiscard]] virtual std::string skew_prefix(
      const core::ReactionNetwork& network) const;
};

/// Circuits: injects into `in`, reads and clears `out`. One species each is
/// a single-rail signal, two a dual-rail pair (p, n) carrying p - n. An
/// empty reference leaves the expected column empty.
class CircuitDecoder final : public Decoder {
 public:
  using Reference = std::function<std::vector<double>(std::span<const double>)>;

  CircuitDecoder(std::vector<core::SpeciesId> in,
                 std::vector<core::SpeciesId> out, Reference reference);

  /// Injects on C_R and reads on the C_G edge that ends that red phase.
  /// std::out_of_range for an unknown port.
  [[nodiscard]] static CircuitDecoder clocked(
      const sync::CompiledCircuit& circuit, Reference reference,
      const std::string& in = "x", const std::string& out = "y");
  /// Ports <in>_p/<in>_n and <out>_p/<out>_n.
  [[nodiscard]] static CircuitDecoder dual_rail(
      const sync::CompiledCircuit& circuit, Reference reference);
  /// Paced on the heartbeat register: injects on its blue edges (just
  /// before a release window), reads and clears on its green edges (the
  /// deposit phase has ended; an unread red output would stall the
  /// handshake).
  [[nodiscard]] static CircuitDecoder self_timed(
      const async::CompiledAsyncCircuit& circuit, Reference reference);

  void inject(std::span<double> state, double sample) const override;
  void read(std::span<double> state, std::span<double> row) const override;
  void discard(std::span<double> state) const override;
  [[nodiscard]] Columns reference(
      std::span<const double> stimulus) const override;

 private:
  std::vector<core::SpeciesId> in_;
  std::vector<core::SpeciesId> out_;
  Reference reference_;
};

/// Counters: an increment token (sample 1) on each C_G edge, the decoded
/// value on the following C_R edge.
class CounterDecoder final : public Decoder {
 public:
  CounterDecoder(const dsp::CounterSpec& spec,
                 const dsp::CounterHandles& handles);

  void inject(std::span<double> state, double sample) const override;
  void read(std::span<double> state, std::span<double> row) const override;
  [[nodiscard]] Columns reference(
      std::span<const double> stimulus) const override;

  dsp::CounterSpec spec;
  dsp::CounterHandles handles;
};

/// FSMs: the token of input symbol `sample` on each C_G edge; on the next
/// C_R edge the state and the output symbol (-1 for none; cleared).
class FsmDecoder final : public Decoder {
 public:
  FsmDecoder(const fsm::FsmSpec& spec, const fsm::FsmHandles& handles);

  void inject(std::span<double> state, double sample) const override;
  void read(std::span<double> state, std::span<double> row) const override;
  [[nodiscard]] Columns reference(
      std::span<const double> stimulus) const override;

  fsm::FsmSpec spec;
  fsm::FsmHandles handles;
};

/// Delay chains: one token on the input from t = 0, all of which should
/// reach the output by the end of the run.
class ChainDecoder final : public Decoder {
 public:
  ChainDecoder(const async::ChainSpec& spec,
               const async::ChainHandles& handles);

  void inject(std::span<double> /*state*/, double /*sample*/) const override {}
  void read(std::span<double> state, std::span<double> row) const override;
  [[nodiscard]] Columns reference(
      std::span<const double> stimulus) const override;
  void prime(core::ReactionNetwork& network,
             std::span<const double> stimulus) const override;
  [[nodiscard]] double t_end(const core::RatePolicy& policy,
                             std::size_t cycles) const override;
  [[nodiscard]] std::string skew_prefix(
      const core::ReactionNetwork& network) const override;

  async::ChainSpec spec;
  async::ChainHandles handles;
};

struct DecodeOptions {
  /// Edges to let pass before the first injection; the design free-runs on
  /// zero input and what it deposits into its outputs is discarded.
  std::size_t warmup_edges = 1;
  /// Run after the decoder (non-owning); the stress layer's fault events.
  std::vector<sim::Observer*> extra_observers;
};

struct DecodedRun {
  Columns outputs;
  Columns expected;  ///< decoder.reference(stimulus)
  std::vector<double> inject_times;
  std::vector<double> read_times;
  double clock_period = 0.0;  ///< mean spacing of the read edges
  sim::OdeResult ode;
};

/// Drives `network` with one stimulus sample per cycle and reads one cycle
/// per sample; `ode.t_end` is an upper bound and `ode.abort` a deadline.
/// Throws std::invalid_argument for an empty or invalid stimulus and
/// std::runtime_error when the run ends before every cycle is read.
[[nodiscard]] DecodedRun run_decoded(const core::ReactionNetwork& network,
                                     const sim::OdeOptions& ode,
                                     const Decoder& decoder,
                                     std::span<const double> stimulus,
                                     const DecodeOptions& options = {});

}  // namespace mrsc::analysis
