// Structured random-case generation for differential verification.
//
// The property tests and the `mrsc_verify` fuzzer need more than raw random
// mass-action soups: the paper's correctness claims are about *synchronous
// circuits* — a molecular clock gating dual-rail registers and combinational
// logic. This generator emits seeded random instances of every construct the
// library can build, each paired with an exact reference model so the
// oracles can check functional correctness, not just structural invariants:
//
//   kRawNetwork      — bounded-order mass-action networks (optionally closed,
//                      i.e. mass-preserving), no reference model; exercised
//                      by the simulator-vs-simulator differential oracles.
//   kSyncCircuit     — a random dataflow DAG (add / min / scale / fanout)
//                      over 1-2 registers, compiled by sync::CircuitBuilder;
//                      the generator replays the same DAG on plain doubles to
//                      produce the expected per-cycle outputs.
//   kDualRailCircuit — a random *signed* dataflow (add / subtract / negate /
//                      scale / fanout) built on DualRailBuilder, with the
//                      normalizing register rail pairs recorded for the
//                      exclusivity oracle.
//   kFsm             — a random Mealy machine plus a random input string;
//                      fsm::evaluate_reference is the golden model.
//   kCounter         — a random-width dual-rail ripple counter; the count
//                      (initial + increments) mod 2^bits is the golden model,
//                      itself checked against the gate-level logic::Netlist.
//
// Everything is a pure function of (kind, seed, options); the same seed
// always reproduces the same case, which is what makes shrunk fuzz failures
// actionable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/decode.hpp"
#include "core/network.hpp"
#include "dsp/counter.hpp"
#include "fsm/fsm.hpp"
#include "sync/circuit.hpp"

namespace mrsc::verify {

enum class CaseKind : std::uint8_t {
  kRawNetwork,
  kSyncCircuit,
  kDualRailCircuit,
  kFsm,
  kCounter,
};

/// Short name used by the CLI ("raw", "sync", "dual", "fsm", "counter").
[[nodiscard]] const char* to_string(CaseKind kind);

/// Parses a comma-separated kind list (util::split_commas, so one trailing
/// comma is dropped: "fsm," is {fsm}); throws `std::invalid_argument` on an
/// unknown or empty name. An empty string yields all kinds.
[[nodiscard]] std::vector<CaseKind> parse_kinds(const std::string& csv);

struct RawCase {
  core::ReactionNetwork network;
  /// Mass-preserving shapes only (k reactants -> k products): total
  /// concentration is conserved, which tightens the differential bands.
  bool closed = false;
};

/// What every clocked case carries besides its payload: the decoder that
/// drives and reads it (its reference is the case's exact model) and the
/// stimulus it runs.
struct ClockedCase {
  std::shared_ptr<const analysis::Decoder> decoder;
  std::vector<double> stimulus;  ///< one sample per cycle
  /// Machine state the opt-equivalence oracle pins besides the decoder's
  /// driven species and clock (FSM states, counter rails).
  std::vector<core::SpeciesId> state;
};

struct SyncCase {
  core::ReactionNetwork network;
  sync::CompiledCircuit circuit;  ///< ports "x" and "y"
};

struct DualRailCase {
  core::ReactionNetwork network;
  sync::CompiledCircuit circuit;  ///< signed ports "x" and "y"
  /// Red (state-holding) species of each dual-rail register pair, for the
  /// rail-exclusivity oracle.
  std::vector<std::pair<core::SpeciesId, core::SpeciesId>> rail_pairs;
};

struct FsmCase {
  core::ReactionNetwork network;
  fsm::FsmSpec spec;
  fsm::FsmHandles handles;  ///< stimulus: a random input string
};

struct CounterCase {
  core::ReactionNetwork network;
  dsp::CounterSpec spec;
  dsp::CounterHandles handles;  ///< stimulus: one increment per cycle
};

struct GeneratorOptions {
  /// Clocked cases: input samples (= clock cycles) per run. Small values keep
  /// a fuzz campaign cheap; the per-cycle invariants do not need long runs.
  std::size_t cycles = 3;
};

struct GeneratedCase {
  CaseKind kind = CaseKind::kRawNetwork;
  std::uint64_t seed = 0;
  std::variant<RawCase, SyncCase, DualRailCase, FsmCase, CounterCase> payload;
  ClockedCase clocked;  ///< no decoder for raw networks

  [[nodiscard]] const core::ReactionNetwork& network() const;
};

/// Builds the case for (kind, seed). Deterministic; never reuses RNG state
/// across kinds, so the same seed with different kinds gives unrelated cases.
[[nodiscard]] GeneratedCase generate_case(CaseKind kind, std::uint64_t seed,
                                          const GeneratorOptions& options = {});

}  // namespace mrsc::verify
