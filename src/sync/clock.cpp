#include "sync/clock.hpp"

#include <stdexcept>

namespace mrsc::sync {

namespace {
using core::SpeciesId;
}  // namespace

ClockHandles build_clock(compile::LoweringContext& ctx,
                         const ClockSpec& spec) {
  if (spec.token <= 0.0) {
    throw std::invalid_argument("build_clock: token must be positive");
  }
  if (spec.phase_stretch < 1.0) {
    throw std::invalid_argument("build_clock: phase_stretch must be >= 1");
  }
  const std::string& p = spec.prefix;

  ClockHandles handles;
  handles.token = spec.token;
  handles.phase_r = ctx.species(p + "_R", spec.token);
  handles.phase_g = ctx.species(p + "_G", 0.0);
  handles.phase_b = ctx.species(p + "_B", 0.0);
  handles.ind_r = ctx.species(p + "_r");
  handles.ind_g = ctx.species(p + "_g");
  handles.ind_b = ctx.species(p + "_b");
  for (const core::SpeciesId id : handles.species()) {
    ctx.declare_root(id, compile::PortRole::kClock);
  }

  // Private absence indicators. The generation reactions carry a rate
  // multiplier of 1/phase_stretch: slower indicator build-up lengthens every
  // phase without touching the fast/slow policy.
  auto emit_indicator = [&](SpeciesId indicator, SpeciesId phase,
                            const char* name) {
    const SpeciesId members[] = {phase};
    ctx.indicator(indicator, members, 1.0 / spec.phase_stretch,
                  p + ".ind." + name);
  };
  emit_indicator(handles.ind_r, handles.phase_r, "r");
  emit_indicator(handles.ind_g, handles.phase_g, "g");
  emit_indicator(handles.ind_b, handles.phase_b, "b");

  // One hop: from -> to, gated on the absence indicator of the third phase.
  // The seed carries the same 1/phase_stretch multiplier as the indicator
  // generation: both the gate build-up and the bootstrap seeding slow down,
  // so the period scales roughly linearly with the stretch.
  // red-to-green needs blue absent; green-to-blue needs red absent;
  // blue-to-red needs green absent.
  auto emit_hop = [&](SpeciesId from, SpeciesId to, SpeciesId gate,
                      const char* name) {
    ctx.sharpened_hop(from, to, gate, p + ".hop." + name,
                      p + std::string("_I_") + name, 1.0 / spec.phase_stretch,
                      spec.feedback);
  };
  emit_hop(handles.phase_r, handles.phase_g, handles.ind_b, "r2g");
  emit_hop(handles.phase_g, handles.phase_b, handles.ind_r, "g2b");
  emit_hop(handles.phase_b, handles.phase_r, handles.ind_g, "b2r");

  return handles;
}

ClockHandles build_clock(core::ReactionNetwork& network,
                         const ClockSpec& spec) {
  compile::LoweringContext ctx(network, spec.prefix);
  return build_clock(ctx, spec);
}

}  // namespace mrsc::sync
