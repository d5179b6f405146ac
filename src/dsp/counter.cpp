#include "dsp/counter.hpp"

#include <chrono>
#include <stdexcept>

#include "compile/context.hpp"

namespace mrsc::dsp {

namespace {
using core::RateCategory;
using core::SpeciesId;
using core::Term;
}  // namespace

CounterHandles build_counter(core::ReactionNetwork& network,
                             const CounterSpec& spec,
                             const compile::CompileOptions& options) {
  if (spec.bits == 0 || spec.bits > 62) {
    throw std::invalid_argument("build_counter: bits must be in [1, 62]");
  }
  if (spec.initial_value >= (std::uint64_t{1} << spec.bits)) {
    throw std::invalid_argument("build_counter: initial value out of range");
  }
  const std::string& p = spec.prefix;
  sync::ClockSpec clock_spec = spec.clock;
  if (clock_spec.prefix == "clk") clock_spec.prefix = p + "_clk";

  const auto lowering_start = std::chrono::steady_clock::now();
  compile::LoweringContext ctx(network, p);

  CounterHandles handles;
  handles.clock = sync::build_clock(ctx, clock_spec);

  // Tokens: c_0 is the increment input; c_i / n_i thread through the stages.
  std::vector<SpeciesId> carry(spec.bits + 1);
  std::vector<SpeciesId> no_carry(spec.bits + 1);
  for (std::size_t i = 0; i <= spec.bits; ++i) {
    carry[i] = ctx.species(p + "_c" + std::to_string(i));
    if (i > 0) {
      no_carry[i] = ctx.species(p + "_n" + std::to_string(i));
    }
  }
  handles.increment = carry[0];
  ctx.declare_root(handles.increment, compile::PortRole::kInput);

  std::vector<SpeciesId> zero_primed(spec.bits);
  std::vector<SpeciesId> one_primed(spec.bits);
  for (std::size_t i = 0; i < spec.bits; ++i) {
    const bool bit_set = (spec.initial_value >> i) & 1;
    const SpeciesId zero =
        ctx.species(p + "_Z" + std::to_string(i), bit_set ? 0.0 : 1.0);
    const SpeciesId one =
        ctx.species(p + "_O" + std::to_string(i), bit_set ? 1.0 : 0.0);
    zero_primed[i] = ctx.species(p + "_Zp" + std::to_string(i));
    one_primed[i] = ctx.species(p + "_Op" + std::to_string(i));
    handles.zero_rail.push_back(zero);
    handles.one_rail.push_back(one);
    // The rail vectors are positional (decode_counter indexes by bit), so
    // every rail is a root regardless of reachability.
    ctx.declare_root(zero, compile::PortRole::kState);
    ctx.declare_root(one, compile::PortRole::kState);
    ctx.declare_root(zero_primed[i], compile::PortRole::kState);
    ctx.declare_root(one_primed[i], compile::PortRole::kState);
  }

  for (std::size_t i = 0; i < spec.bits; ++i) {
    const SpeciesId zero = handles.zero_rail[i];
    const SpeciesId one = handles.one_rail[i];
    const std::string stage = p + ".bit" + std::to_string(i);
    // Toggle with carry out.
    network.add({{carry[i], 1}, {one, 1}},
                {{zero_primed[i], 1}, {carry[i + 1], 1}}, RateCategory::kFast,
                0.0, stage + ".toggle10");
    ctx.tag_pending(compile::ReactionTag::kFastOp);
    // Toggle without carry out.
    network.add({{carry[i], 1}, {zero, 1}},
                {{one_primed[i], 1}, {no_carry[i + 1], 1}},
                RateCategory::kFast, 0.0, stage + ".toggle01");
    ctx.tag_pending(compile::ReactionTag::kFastOp);
    // Hold (no incoming carry).
    if (i > 0) {
      network.add({{no_carry[i], 1}, {one, 1}},
                  {{one_primed[i], 1}, {no_carry[i + 1], 1}},
                  RateCategory::kFast, 0.0, stage + ".hold1");
      ctx.tag_pending(compile::ReactionTag::kFastOp);
      network.add({{no_carry[i], 1}, {zero, 1}},
                  {{zero_primed[i], 1}, {no_carry[i + 1], 1}},
                  RateCategory::kFast, 0.0, stage + ".hold0");
      ctx.tag_pending(compile::ReactionTag::kFastOp);
    }
    // Write-back (blue phase): primed masters -> slaves.
    ctx.writeback(handles.clock.phase_b, zero_primed[i], zero,
                  stage + ".writeback0");
    ctx.writeback(handles.clock.phase_b, one_primed[i], one,
                  stage + ".writeback1");
  }
  // Drain the token after the last stage (dropping the carry wraps the
  // counter modulo 2^bits).
  network.add({{carry[spec.bits], 1}}, {}, RateCategory::kFast, 0.0,
              p + ".drain.carry");
  ctx.tag_pending(compile::ReactionTag::kFastOp);
  network.add({{no_carry[spec.bits], 1}}, {}, RateCategory::kFast, 0.0,
              p + ".drain.nocarry");
  ctx.tag_pending(compile::ReactionTag::kFastOp);

  const double lowering_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    lowering_start)
          .count();
  const compile::FinalizeResult fin = ctx.finalize(options, lowering_seconds);
  if (fin.optimized) {
    handles.increment = fin(handles.increment);
    for (SpeciesId& id : handles.zero_rail) id = fin(id);
    for (SpeciesId& id : handles.one_rail) id = fin(id);
    handles.clock.remap(fin);
  }

  return handles;
}

std::uint64_t decode_counter(const CounterHandles& handles,
                             std::span<const double> state) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < handles.one_rail.size(); ++i) {
    const double one = state[handles.one_rail[i].index()];
    const double zero = state[handles.zero_rail[i].index()];
    if (one > zero) value |= (std::uint64_t{1} << i);
  }
  return value;
}

}  // namespace mrsc::dsp
