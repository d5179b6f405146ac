// Clocked DSP designs built on the synchronous compiler.
//
// These are the paper family's canonical sequential examples (ICCAD'10 /
// DAC'11 / IEEE D&T'12): a delay line (shift register), the moving-average
// FIR filter y[n] = (x[n] + x[n-1]) / 2, and a second-order all-positive IIR
// filter y[n] = x[n] + y[n-1]/2 + y[n-2]/4. Coefficients are dyadic rationals
// because scaling is implemented with integer fan-out and halving reactions;
// they are all positive because concentrations cannot be negative (signed
// signals would use dual-rail pairs).
//
// Each factory returns the design compiled into a fresh network plus exact
// reference models for verification.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "compile/passes.hpp"
#include "core/network.hpp"
#include "sync/circuit.hpp"

namespace mrsc::dsp {

/// A compiled clocked design. The network is heap-allocated so the handles in
/// `circuit` stay valid as the struct moves around.
struct Design {
  std::unique_ptr<core::ReactionNetwork> network;
  sync::CompiledCircuit circuit;
};

/// y[n] = x[n - stages]. All factories forward `options` to
/// sync::CircuitBuilder::compile, so callers pick the optimization level and
/// per-pass reporting of the shared lowering pipeline.
[[nodiscard]] Design make_delay_line(
    std::size_t stages, const sync::ClockSpec& clock = {},
    const compile::CompileOptions& options = {});

/// y[n] = (x[n] + x[n-1]) / 2.
[[nodiscard]] Design make_moving_average(
    const sync::ClockSpec& clock = {},
    const compile::CompileOptions& options = {});

/// y[n] = x[n] + y[n-1]/2 + y[n-2]/4  (stable: poles at ~0.809 and ~-0.309).
[[nodiscard]] Design make_second_order_iir(
    const sync::ClockSpec& clock = {},
    const compile::CompileOptions& options = {});

/// y[n] = x[n] - x[n-1] (first difference; a *negative* coefficient). The
/// output is signed and therefore dual-rail: drive and read it through
/// `analysis::CircuitDecoder::dual_rail`, which decodes y_p - y_n. The
/// unused negative rail of the input exists as port "x_n" (leave undriven
/// for non-negative input streams).
[[nodiscard]] Design make_first_difference(
    const sync::ClockSpec& clock = {},
    const compile::CompileOptions& options = {});

/// A dyadic-rational FIR coefficient: value = numerator / 2^halvings,
/// negated when `negative` is set.
struct DyadicTap {
  std::uint32_t numerator = 1;
  std::uint32_t halvings = 0;
  bool negative = false;
};

/// General FIR filter y[n] = sum_k tap[k] * x[n-k] with dyadic-rational
/// (possibly negative) taps. Compiles dual-rail (ports "x_p"/"x_n",
/// "y_p"/"y_n") whenever any tap is negative, plain single-rail (ports
/// "x"/"y") otherwise; `Design::circuit.outputs` tells which.
[[nodiscard]] Design make_fir(std::span<const DyadicTap> taps,
                              const sync::ClockSpec& clock = {},
                              const compile::CompileOptions& options = {});

/// True biquad with signed feedback, y[n] = x[n] - y[n-1]/2 - y[n-2]/4
/// (poles at magnitude 1/2: a genuinely oscillatory impulse response).
/// Dual-rail ports as in make_first_difference.
[[nodiscard]] Design make_signed_biquad(
    const sync::ClockSpec& clock = {},
    const compile::CompileOptions& options = {});

// --- exact reference models (golden) ---------------------------------------

[[nodiscard]] std::vector<double> reference_delay_line(
    std::span<const double> x, std::size_t stages);

[[nodiscard]] std::vector<double> reference_moving_average(
    std::span<const double> x);

[[nodiscard]] std::vector<double> reference_second_order_iir(
    std::span<const double> x);

[[nodiscard]] std::vector<double> reference_first_difference(
    std::span<const double> x);

[[nodiscard]] std::vector<double> reference_fir(std::span<const DyadicTap> taps,
                                                std::span<const double> x);

[[nodiscard]] std::vector<double> reference_signed_biquad(
    std::span<const double> x);

/// Numeric value of a tap.
[[nodiscard]] double tap_value(const DyadicTap& tap);

}  // namespace mrsc::dsp
