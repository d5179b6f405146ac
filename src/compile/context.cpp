#include "compile/context.hpp"

#include "modules/combinational.hpp"

namespace mrsc::compile {

namespace {
using core::RateCategory;
using core::SpeciesId;
}  // namespace

LoweringContext::LoweringContext(core::ReactionNetwork& network,
                                 std::string prefix)
    : network_(network),
      prefix_(std::move(prefix)),
      first_species_(network.species_count()),
      first_reaction_(network.reaction_count()) {}

SpeciesId LoweringContext::species(const std::string& name, double initial) {
  return network_.add_species(name, initial);
}

ColorTriple LoweringContext::color_triple(const std::string& name,
                                          double initial_red) {
  ColorTriple triple;
  triple.red = species(prefix_ + "_R_" + name, initial_red);
  triple.green = species(prefix_ + "_G_" + name);
  triple.blue = species(prefix_ + "_B_" + name);
  return triple;
}

void LoweringContext::declare_root(SpeciesId id, PortRole role) {
  roots_.emplace_back(id, role);
}

void LoweringContext::tag_pending(ReactionTag tag) {
  const std::size_t emitted = network_.reaction_count() - first_reaction_;
  tags_.resize(emitted, tag);
}

void LoweringContext::gated_transfer(SpeciesId from, SpeciesId to,
                                     SpeciesId gate,
                                     const std::string& label) {
  modules::EmitOptions options;
  options.category = RateCategory::kSlow;
  options.catalyst = gate;
  options.label = label;
  modules::transfer(network_, from, to, options);
  tag_pending(ReactionTag::kGatedTransfer);
}

void LoweringContext::released_transfer(SpeciesId gate, SpeciesId from,
                                        SpeciesId to,
                                        const std::string& label) {
  network_.add({{gate, 1}, {from, 1}}, {{gate, 1}, {to, 1}},
               RateCategory::kSlow, 0.0, label);
  tag_pending(ReactionTag::kGatedTransfer);
}

void LoweringContext::fast_transfer(SpeciesId from, SpeciesId to,
                                    const std::string& label) {
  modules::EmitOptions options;
  options.category = RateCategory::kFast;
  options.label = label;
  modules::transfer(network_, from, to, options);
  tag_pending(ReactionTag::kFastOp);
}

void LoweringContext::writeback(SpeciesId gate, SpeciesId primed,
                                SpeciesId slave, const std::string& label) {
  network_.add({{gate, 1}, {primed, 1}}, {{gate, 1}, {slave, 1}},
               RateCategory::kSlow, 0.0, label);
  tag_pending(ReactionTag::kWriteback);
}

void LoweringContext::gated_drain(SpeciesId gate, SpeciesId victim,
                                  const std::string& label) {
  network_.add({{gate, 1}, {victim, 1}}, {{gate, 1}}, RateCategory::kSlow,
               0.0, label);
  tag_pending(ReactionTag::kDrain);
}

void LoweringContext::annihilation(SpeciesId a, SpeciesId b,
                                   const std::string& label) {
  network_.add({{a, 1}, {b, 1}}, {}, RateCategory::kFast, 0.0, label);
  tag_pending(ReactionTag::kAnnihilation);
}

void LoweringContext::indicator(SpeciesId ind,
                                std::span<const SpeciesId> members,
                                double gen_multiplier,
                                const std::string& label_prefix) {
  const core::ReactionId gen = network_.add(
      {}, {{ind, 1}}, RateCategory::kSlow, 0.0, label_prefix + ".gen");
  network_.reaction_mutable(gen).set_rate_multiplier(gen_multiplier);
  for (const SpeciesId member : members) {
    network_.add({{ind, 1}, {member, 1}}, {{member, 1}}, RateCategory::kFast,
                 0.0, label_prefix + ".absorb");
  }
  tag_pending(ReactionTag::kIndicator);
}

void LoweringContext::indicator_absorb(SpeciesId ind, SpeciesId member,
                                       const std::string& label) {
  network_.add({{ind, 1}, {member, 1}}, {{member, 1}}, RateCategory::kFast,
               0.0, label);
  tag_pending(ReactionTag::kIndicator);
}

void LoweringContext::sharpened_hop(SpeciesId from, SpeciesId to,
                                    SpeciesId gate,
                                    const std::string& label_prefix,
                                    const std::string& dimer_name,
                                    double seed_multiplier, bool feedback) {
  const core::ReactionId seed =
      network_.add({{gate, 1}, {from, 1}}, {{to, 1}}, RateCategory::kSlow,
                   0.0, label_prefix + ".seed");
  network_.reaction_mutable(seed).set_rate_multiplier(seed_multiplier);
  if (feedback) {
    const SpeciesId dimer = species(dimer_name);
    network_.add({{to, 2}}, {{dimer, 1}}, RateCategory::kSlow, 0.0,
                 label_prefix + ".dimerize");
    network_.add({{dimer, 1}}, {{to, 2}}, RateCategory::kFast, 0.0,
                 label_prefix + ".undimerize");
    network_.add({{dimer, 1}, {from, 1}}, {{to, 3}}, RateCategory::kFast,
                 0.0, label_prefix + ".feedback");
  }
  tag_pending(ReactionTag::kClockwork);
}

FinalizeResult LoweringContext::finalize(const CompileOptions& options,
                                         double lowering_seconds) {
  tag_pending(ReactionTag::kUntagged);

  PipelineInputs inputs;
  // Species that predate this context belong to whatever the caller already
  // lowered into the network; treat them all as roots so the passes never
  // disturb a sibling design.
  for (std::size_t i = 0; i < first_species_; ++i) {
    inputs.roots.push_back(
        SpeciesId{static_cast<SpeciesId::underlying_type>(i)});
  }
  for (const auto& [id, role] : roots_) {
    inputs.roots.push_back(id);
    if (role == PortRole::kClock) inputs.clock_roots.push_back(id);
  }
  inputs.tags = tags_;
  inputs.first_tagged = first_reaction_;

  if (options.report) {
    options.report->lowering_seconds = lowering_seconds;
    if (options.report->design.empty()) options.report->design = prefix_;
  }

  FinalizeResult result;
  const std::size_t reactions_before = network_.reaction_count();
  const PassManager manager =
      PassManager::standard(options.opt, /*validate=*/true);
  result.remap = manager.run(network_, inputs, options.report);
  result.optimized = options.opt >= OptLevel::kO1;

  if (options.design_info != nullptr) {
    DesignInfo& info = *options.design_info;
    info.roots.clear();
    for (const auto& [id, role] : roots_) {
      const core::SpeciesId mapped = result(id);
      if (mapped != core::SpeciesId::invalid()) {
        info.roots.emplace_back(mapped, role);
      }
    }
    // canonicalize rebuilds reactions in place (same count, same order), so
    // tags survive it; coalesce/dead-species-elim drop reactions and
    // invalidate the range.
    info.tags_valid = network_.reaction_count() == reactions_before;
    info.tags = info.tags_valid ? tags_ : std::vector<ReactionTag>{};
    info.first_tagged = first_reaction_;
  }
  return result;
}

}  // namespace mrsc::compile
