#include "scenario/registry.hpp"

#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "compile/report.hpp"
#include "core/io.hpp"
#include "dsp/filters.hpp"

namespace mrsc::scenario {

namespace {

using compile::PortRole;
using core::SpeciesId;

// Generator argument ranges. The caps keep a mistyped spec from compiling a
// million-species network at admission time (the serve dispatcher validates
// through this registry); they are generous enough for every bench sweep.
constexpr std::uint64_t kMaxCounterBits = 16;
constexpr std::uint64_t kMaxChainElements = 64;
constexpr std::uint64_t kMaxFsmStates = 64;
constexpr std::uint64_t kMinCascadeLayers = 2;
constexpr std::uint64_t kMaxCascadeLayers = 8;

/// The cyclic "wide FSM" family: S states over a 2-symbol alphabet. Input 0
/// advances the cycle, input 1 resets to state 0 and emits the only output
/// symbol — every state is reachable and the output species is live.
fsm::FsmSpec make_wide_fsm(std::size_t states) {
  fsm::FsmSpec spec;
  spec.num_states = states;
  spec.num_inputs = 2;
  spec.num_outputs = 1;
  spec.next_state.assign(states, std::vector<std::size_t>(2, 0));
  spec.output.assign(states,
                     std::vector<std::size_t>(2, fsm::kNoOutput));
  for (std::size_t s = 0; s < states; ++s) {
    spec.next_state[s][0] = (s + 1) % states;
    spec.next_state[s][1] = 0;
    spec.output[s][1] = 0;
  }
  return spec;
}

using DecoderPtr = std::shared_ptr<const analysis::Decoder>;

/// Counters and FSMs: `build` lowers `spec` into an owned network, and a
/// `MachineDecoder` reads it through the handles it returns.
template <typename MachineDecoder, typename Spec, typename Build>
BuiltDesign build_machine_design(const Spec& spec, Build build,
                                 compile::CompileOptions options,
                                 DecoderPtr& decoder) {
  BuiltDesign design;
  options.design_info = &design.info;
  design.network = std::make_unique<core::ReactionNetwork>();
  decoder = std::make_shared<MachineDecoder>(
      spec, build(*design.network, spec, options));
  return design;
}

/// Runs a dsp factory with `design_info` wired to the result's own `info`
/// member (the factory must finish before the result moves, which the call
/// shape guarantees). Signed designs are read through their dual rails. A
/// build with inputs assumed zero may have lost those ports, so it gets no
/// decoder: nothing may drive them.
template <typename Factory>
BuiltDesign build_circuit_design(Factory&& factory,
                                 analysis::CircuitDecoder::Reference reference,
                                 bool dual_rail,
                                 compile::CompileOptions options,
                                 DecoderPtr& decoder) {
  BuiltDesign design;
  options.design_info = &design.info;
  dsp::Design compiled = factory(options);
  design.network = std::move(compiled.network);
  if (!options.assume_zero_inputs.empty()) return design;
  decoder = std::make_shared<analysis::CircuitDecoder>(
      dual_rail ? analysis::CircuitDecoder::dual_rail(compiled.circuit,
                                                      std::move(reference))
                : analysis::CircuitDecoder::clocked(compiled.circuit,
                                                    std::move(reference)));
  return design;
}

/// Composed and self-timed designs run no pass pipeline over the network
/// they return, so a requested report describes that network as built.
void report_built_network(const core::ReactionNetwork& network,
                          compile::CompileReport* report) {
  if (report == nullptr) return;
  report->before = core::compute_stats(network);
  report->after = report->before;
}

/// The asynchronous delay chain is self-timed: it bypasses the clocked
/// lowering pipeline entirely (no emission tags, no pass pipeline), so the
/// port roster is declared here by hand and only `options.report` is read.
BuiltDesign build_chain_design(std::size_t elements,
                               const compile::CompileOptions& options,
                               DecoderPtr& decoder) {
  BuiltDesign design;
  design.network = std::make_unique<core::ReactionNetwork>();
  async::ChainSpec spec;
  spec.elements = elements;
  const async::ChainHandles handles =
      async::build_delay_chain(*design.network, spec);
  design.info.roots.emplace_back(handles.input, PortRole::kInput);
  design.info.roots.emplace_back(handles.output, PortRole::kOutput);
  for (const auto* color : {&handles.red, &handles.green, &handles.blue}) {
    for (const SpeciesId id : *color) {
      design.info.roots.emplace_back(id, PortRole::kState);
    }
  }
  // The global absence indicators pace the handshake the way clock phases
  // pace a synchronous design.
  design.info.roots.emplace_back(handles.ind_r, PortRole::kClock);
  design.info.roots.emplace_back(handles.ind_g, PortRole::kClock);
  design.info.roots.emplace_back(handles.ind_b, PortRole::kClock);
  design.info.tags_valid = false;
  report_built_network(*design.network, options.report);
  decoder = std::make_shared<analysis::ChainDecoder>(spec, handles);
  return design;
}

/// Drives a composed cascade end to end: injects into layer A's x on A's
/// red edges and reads the last layer's y on its green edges. Every layer
/// runs its own copy of one clock from one initial phase, so the clocks tick
/// together. Each layer is a two-stage delay line, and a link is a fast,
/// unclocked channel that hands a layer's output to the next layer's input
/// inside the red phase that produced it: a link adds no cycle, and L layers
/// delay by 2L.
DecoderPtr cascade_decoder(const std::vector<dsp::Design>& layers,
                           const std::vector<std::vector<SpeciesId>>& maps) {
  const std::size_t delay = 2 * layers.size();
  const auto mapped = [&](std::size_t layer, SpeciesId id) {
    return maps[layer][id.index()];
  };
  auto decoder = std::make_shared<analysis::CircuitDecoder>(
      std::vector{mapped(0, layers.front().circuit.input("x"))},
      std::vector{mapped(layers.size() - 1, layers.back().circuit.output("y"))},
      [delay](std::span<const double> x) {
        return dsp::reference_delay_line(x, delay);
      });
  decoder->clock = layers.front().circuit.clock;
  decoder->clock->remap([&](SpeciesId id) { return mapped(0, id); });
  decoder->token = decoder->clock->token;
  decoder->inject_on = decoder->clock->phase_r;
  decoder->read_on =
      mapped(layers.size() - 1, layers.back().circuit.clock.phase_g);
  // Run the stimulus through the whole delay, so every sample is read.
  decoder->stimulus.resize(decoder->stimulus.size() + delay);
  return decoder;
}

/// L delay-line layers compiled separately, then composed: layer i's output
/// port is wired into layer i+1's input port through a declared fast
/// channel, and the last layer's output is the sampled terminal. L=2 with
/// prefixes "A_"/"B_" is byte-identical to the original two-layer
/// demonstrator.
BuiltDesign build_cascade_design(std::size_t layers,
                                 const compile::CompileOptions& options,
                                 DecoderPtr& decoder) {
  compile::CompileOptions layer_options = options;
  layer_options.design_info = nullptr;
  layer_options.report = nullptr;
  std::vector<dsp::Design> built;
  built.reserve(layers);
  for (std::size_t i = 0; i < layers; ++i) {
    built.push_back(dsp::make_delay_line(2, {}, layer_options));
  }

  BuiltDesign design;
  design.network = std::make_unique<core::ReactionNetwork>();
  design.network->set_rate_policy(built.front().network->rate_policy());

  compile::CascadeComposer composer(*design.network);
  std::vector<std::vector<SpeciesId>> maps(layers);
  for (std::size_t i = 0; i < layers; ++i) {
    const std::string prefix(1, static_cast<char>('A' + i));
    composer.add_layer(*built[i].network, prefix + "_", &maps[i]);
  }
  for (std::size_t i = 0; i + 1 < layers; ++i) {
    composer.wire(maps[i][built[i].circuit.output("y").index()],
                  maps[i + 1][built[i + 1].circuit.input("x").index()],
                  "cascade.link");
  }
  composer.mark_terminal(
      maps.back()[built.back().circuit.output("y").index()]);

  for (std::size_t i = 0; i < layers; ++i) {
    const dsp::Design& layer = built[i];
    const std::vector<SpeciesId>& map = maps[i];
    for (const auto& [name, id] : layer.circuit.inputs) {
      design.info.roots.emplace_back(map[id.index()], PortRole::kInput);
    }
    for (const auto& [name, id] : layer.circuit.outputs) {
      design.info.roots.emplace_back(map[id.index()], PortRole::kOutput);
    }
    for (const auto& [name, id] : layer.circuit.register_state) {
      design.info.roots.emplace_back(map[id.index()], PortRole::kState);
    }
    const sync::ClockHandles& clock = layer.circuit.clock;
    for (const SpeciesId id : clock.species()) {
      design.info.roots.emplace_back(map[id.index()], PortRole::kClock);
    }
  }
  // Layer tags do not survive the merge; tag-indexed checks are skipped.
  design.info.tags_valid = false;

  design.composition =
      std::make_unique<compile::Composition>(composer.composition());
  report_built_network(*design.network, options.report);
  decoder = cascade_decoder(built, maps);
  return design;
}

bool looks_like_path(const std::string& argument) {
  if (argument.find('/') != std::string::npos) return true;
  constexpr std::string_view kSuffix = ".mrsc";
  return argument.size() > kSuffix.size() &&
         argument.compare(argument.size() - kSuffix.size(), kSuffix.size(),
                          kSuffix) == 0;
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

}  // namespace

ScenarioRegistry::ScenarioRegistry() {
  fixed_names_ = {"counter", "moving_average",   "iir",    "first_difference",
                  "delay",   "seqdet",           "cascade"};
  fixed_names_csv_ =
      "counter, moving_average, iir, first_difference, delay, seqdet, "
      "cascade";
  generators_ = {
      {"counter", "N", 1, kMaxCounterBits, 2,
       "N-bit dual-rail ripple-carry counter"},
      {"delay_chain", "D", 1, kMaxChainElements, 2,
       "self-timed chain of D asynchronous delay elements"},
      {"fsm_wide", "S", 2, kMaxFsmStates, 4,
       "S-state cyclic machine with reset input (one-hot encoded)"},
      {"cascade", "L", kMinCascadeLayers, kMaxCascadeLayers, 3,
       "L delay-line layers composed through declared interfaces"},
  };
}

const ScenarioRegistry& ScenarioRegistry::global() {
  static const ScenarioRegistry registry;
  return registry;
}

std::vector<std::string> ScenarioRegistry::smoke_catalog() const {
  std::vector<std::string> catalog = fixed_names_;
  for (const GeneratorInfo& generator : generators_) {
    catalog.push_back(generator.name + "(" +
                      std::to_string(generator.smoke_arg) + ")");
  }
  return catalog;
}

const GeneratorInfo* ScenarioRegistry::find_generator(
    const std::string& name) const {
  for (const GeneratorInfo& generator : generators_) {
    if (generator.name == name) return &generator;
  }
  return nullptr;
}

SpecCall ScenarioRegistry::validate(const std::string& spec) const {
  const SpecCall call = parse_spec(spec);
  if (call.args.empty()) {
    for (const std::string& name : fixed_names_) {
      if (name == call.name) return call;
    }
    throw std::invalid_argument(
        "unknown design '" + call.name + "' (try " + fixed_names_csv_ +
        "; parametric: counter(N), delay_chain(D), fsm_wide(S), cascade(L))");
  }
  const GeneratorInfo* generator = find_generator(call.name);
  if (generator == nullptr) {
    throw std::invalid_argument(
        "unknown generator '" + call.name +
        "' (parametric designs: counter(N), delay_chain(D), fsm_wide(S), "
        "cascade(L))");
  }
  if (call.args.size() != 1) {
    throw std::invalid_argument(
        "generator '" + call.name + "' takes exactly one argument, got " +
        std::to_string(call.args.size()));
  }
  if (call.args[0] < generator->min_arg || call.args[0] > generator->max_arg) {
    throw std::invalid_argument(
        "generator '" + call.name + "': argument " +
        std::to_string(call.args[0]) + " is out of range [" +
        std::to_string(generator->min_arg) + ", " +
        std::to_string(generator->max_arg) + "]");
  }
  return call;
}

bool ScenarioRegistry::known(const std::string& spec) const {
  try {
    (void)validate(spec);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

std::string ScenarioRegistry::canonicalize(const std::string& spec) const {
  return validate(spec).canonical();
}

ResolvedScenario ScenarioRegistry::resolve(
    const std::string& spec, const compile::CompileOptions& options) const {
  const SpecCall call = validate(spec);
  ResolvedScenario resolved;
  resolved.scenario.name = call.canonical();
  resolved.scenario.design = resolved.scenario.name;

  // validate() settled the arity: the fixed "counter" and "cascade" are
  // counter(3) and cascade(2), every other name is one or the other.
  const auto arg = [&](std::size_t fixed) {
    return call.args.empty() ? fixed : static_cast<std::size_t>(call.args[0]);
  };
  if (call.name == "counter") {
    dsp::CounterSpec counter;
    counter.bits = arg(counter.bits);
    resolved.design = build_machine_design<analysis::CounterDecoder>(
        counter, dsp::build_counter, options, resolved.decoder);
  } else if (call.name == "cascade") {
    resolved.design = build_cascade_design(arg(2), options, resolved.decoder);
  } else if (call.name == "seqdet") {
    resolved.design = build_machine_design<analysis::FsmDecoder>(
        fsm::make_sequence_detector("101"), fsm::build_fsm, options,
        resolved.decoder);
  } else if (call.name == "moving_average") {
    resolved.design = build_circuit_design(
        [](const compile::CompileOptions& o) {
          return dsp::make_moving_average({}, o);
        },
        dsp::reference_moving_average, false, options, resolved.decoder);
  } else if (call.name == "iir") {
    resolved.design = build_circuit_design(
        [](const compile::CompileOptions& o) {
          return dsp::make_second_order_iir({}, o);
        },
        dsp::reference_second_order_iir, false, options, resolved.decoder);
  } else if (call.name == "first_difference") {
    resolved.design = build_circuit_design(
        [](const compile::CompileOptions& o) {
          return dsp::make_first_difference({}, o);
        },
        dsp::reference_first_difference, true, options, resolved.decoder);
  } else if (call.name == "delay") {
    resolved.design = build_circuit_design(
        [](const compile::CompileOptions& o) {
          return dsp::make_delay_line(3, {}, o);
        },
        [](std::span<const double> x) {
          return dsp::reference_delay_line(x, 3);
        },
        false, options, resolved.decoder);
  } else if (call.name == "delay_chain") {
    resolved.design = build_chain_design(arg(0), options, resolved.decoder);
  } else {  // "fsm_wide"
    resolved.design = build_machine_design<analysis::FsmDecoder>(
        make_wide_fsm(arg(0)), fsm::build_fsm, options, resolved.decoder);
  }
  return resolved;
}

ResolvedScenario ScenarioRegistry::resolve(
    const Scenario& scenario, const compile::CompileOptions& options) const {
  if (!scenario.design.empty()) {
    ResolvedScenario resolved = resolve(scenario.design, options);
    // The file record wins everywhere except the compiled design: budgets,
    // name and description all pass through.
    resolved.scenario = scenario;
    return resolved;
  }
  // An inline network runs the standalone pipeline at the requested level:
  // @roots are its interface, pinned at -O1 and linted as inputs.
  ResolvedScenario resolved;
  resolved.scenario = scenario;
  BuiltDesign& design = resolved.design;
  design.network = std::make_unique<core::ReactionNetwork>(
      core::parse_network(scenario.network_text));
  std::vector<SpeciesId> roots;
  for (const std::string& name : scenario.roots) {
    const auto id = design.network->find_species(name);
    if (!id) {
      throw std::invalid_argument(scenario.name + ": no species named '" +
                                  name + "'");
    }
    roots.push_back(*id);
  }
  const compile::OptimizeResult optimized =
      compile::optimize_network(*design.network, roots, options.opt);
  if (options.report != nullptr) *options.report = optimized.report;
  for (const SpeciesId id : roots) {
    design.info.roots.emplace_back(optimized.remap[id.index()],
                                   PortRole::kInput);
  }
  design.info.tags_valid = false;
  return resolved;
}

Scenario load_scenario_argument(const std::string& argument) {
  const ScenarioRegistry& registry = ScenarioRegistry::global();
  if (looks_like_path(argument)) return load_scenario_file(argument);
  if (registry.known(argument)) {
    Scenario scenario;
    scenario.name = registry.canonicalize(argument);
    scenario.design = scenario.name;
    return scenario;
  }
  // Not a registry spec: try the scenario search path before reporting the
  // spec error (which carries the catalog listing).
  const char* dir = std::getenv("MRSC_SCENARIO_DIR");
  const std::string candidates[] = {
      dir != nullptr ? std::string(dir) + "/" + argument + ".mrsc" : "",
      "scenarios/" + argument + ".mrsc",
  };
  for (const std::string& candidate : candidates) {
    if (!candidate.empty() && file_exists(candidate)) {
      return load_scenario_file(candidate);
    }
  }
  (void)registry.canonicalize(argument);  // throws the catalog-listing error
  throw std::invalid_argument("unresolvable scenario '" + argument + "'");
}

}  // namespace mrsc::scenario
