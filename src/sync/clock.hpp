// The molecular clock.
//
// The synchronous paper's central construct: a set of reactions whose species
// concentrations rise and fall in sustained, mutually exclusive oscillation.
// A high concentration is a logical 1, a low concentration a logical 0; the
// three phase species play the role of a non-overlapping three-phase clock.
//
// Construction (same machinery as the delay chains): a fixed token quantity
// circulates around three phase species C_R -> C_G -> C_B -> C_R. Each hop is
// gated by the absence indicator of the *third* phase and sharpened by the
// dimer positive-feedback reactions, so at any moment (away from the brief
// transfer windows) exactly one phase species holds the token:
//
//   0 ->slow c_x ; c_x + C_X ->fast C_X          (private absence indicators)
//   c_b + C_R ->slow C_G                          (red-to-green seed)
//   2 C_G <->slow/fast I_g ; I_g + C_R ->fast 3 C_G   (feedback)
//   ... and cyclically for green-to-blue and blue-to-red.
//
// Timing knob: `phase_stretch` scales down the indicator generation rate (via
// the per-reaction rate multiplier, so it composes with the network's
// fast/slow policy). Larger stretch -> indicators take longer to accumulate
// -> each phase holds longer -> gated computation gets more time to settle.
// This is the molecular analogue of lowering the clock frequency to meet
// setup time, and the timing-closure experiment (T5) sweeps it.
#pragma once

#include <array>
#include <string>

#include "compile/context.hpp"
#include "core/network.hpp"

namespace mrsc::sync {

struct ClockSpec {
  /// Total circulating token quantity (concentration units).
  double token = 1.0;
  /// >= 1; scales phase duration (see header comment).
  double phase_stretch = 4.0;
  /// Emit the positive-feedback sharpening reactions.
  bool feedback = true;
  /// Species-name prefix.
  std::string prefix = "clk";
};

struct ClockHandles {
  core::SpeciesId phase_r;  ///< C_R — the write-back phase in the discipline
  core::SpeciesId phase_g;  ///< C_G — the compute phase
  core::SpeciesId phase_b;  ///< C_B — guard / transfer phase
  core::SpeciesId ind_r;    ///< private absence indicator of C_R
  core::SpeciesId ind_g;
  core::SpeciesId ind_b;
  double token = 1.0;  ///< echo of ClockSpec::token, for thresholding

  /// The phase and indicator species.
  [[nodiscard]] std::array<core::SpeciesId, 6> species() const {
    return {phase_r, phase_g, phase_b, ind_r, ind_g, ind_b};
  }
  /// Rewrites every species through `map` (a pass pipeline's remap, a
  /// composition's species map).
  template <typename Map>
  void remap(const Map& map) {
    for (core::SpeciesId* id :
         {&phase_r, &phase_g, &phase_b, &ind_r, &ind_g, &ind_b}) {
      *id = map(*id);
    }
  }
};

/// Emits the clock reactions; the token starts in C_R (write-back phase), so
/// the first compute phase begins after one hop.
ClockHandles build_clock(core::ReactionNetwork& network,
                         const ClockSpec& spec);

/// Same, emitting through an existing lowering context so the clock's
/// reactions are tagged (indicators, sharpened hops) and the phase species
/// registered as kClock roots of the surrounding design.
ClockHandles build_clock(compile::LoweringContext& ctx,
                         const ClockSpec& spec);

}  // namespace mrsc::sync
