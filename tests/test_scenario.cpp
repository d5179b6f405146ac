// Scenario layer: spec grammar, .mrsc directive parsing, registry
// resolution, the CLI-argument resolver, and the design loader the CLIs
// share (tools/cli_design.hpp).
//
// The registry is the single resolver behind every CLI's --scenario flag and
// the serve cache key, so these tests pin the contracts the rest of the
// toolchain leans on: canonical spellings are stable, fixed names compile
// byte-identically to the pre-registry builtin shim, and every validation
// failure is a std::invalid_argument (the CLIs' exit-2 class).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/io.hpp"
#include "dsp/filters.hpp"
#include "lint/lint.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "tools/builtin_designs.hpp"
#include "tools/cli_design.hpp"

namespace {

using namespace mrsc;

// --- spec grammar -----------------------------------------------------------

TEST(SpecParse, CanonicalizesWhitespaceAndArguments) {
  EXPECT_EQ(scenario::parse_spec("counter").canonical(), "counter");
  EXPECT_EQ(scenario::parse_spec("  counter( 2 )  ").canonical(),
            "counter(2)");
  EXPECT_EQ(scenario::parse_spec("f(1, 2,3)").canonical(), "f(1,2,3)");
  const scenario::SpecCall call = scenario::parse_spec("cascade(4)");
  EXPECT_EQ(call.name, "cascade");
  ASSERT_EQ(call.args.size(), 1u);
  EXPECT_EQ(call.args[0], 4u);
}

TEST(SpecParse, RejectsMalformedSpecs) {
  EXPECT_THROW(scenario::parse_spec(""), std::invalid_argument);
  EXPECT_THROW(scenario::parse_spec("9lives"), std::invalid_argument);
  EXPECT_THROW(scenario::parse_spec("counter("), std::invalid_argument);
  EXPECT_THROW(scenario::parse_spec("counter()"), std::invalid_argument);
  EXPECT_THROW(scenario::parse_spec("counter(x)"), std::invalid_argument);
  EXPECT_THROW(scenario::parse_spec("counter(-1)"), std::invalid_argument);
  // Arguments share the CLI whole-number grammar: digits only.
  EXPECT_THROW(scenario::parse_spec("counter(+4)"), std::invalid_argument);
  EXPECT_THROW(scenario::parse_spec("counter(1e3)"), std::invalid_argument);
  EXPECT_THROW(scenario::parse_spec("counter(2,)"), std::invalid_argument);
}

// --- registry validation ----------------------------------------------------

TEST(Registry, KnowsFixedNamesAndGenerators) {
  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::global();
  for (const std::string& name : registry.fixed_names()) {
    EXPECT_TRUE(registry.known(name)) << name;
    // Fixed names canonicalize to themselves: the serve cache keys minted
    // before the registry existed stay valid.
    EXPECT_EQ(registry.canonicalize(name), name);
  }
  EXPECT_TRUE(registry.known("counter(2)"));
  EXPECT_TRUE(registry.known("delay_chain(8)"));
  EXPECT_FALSE(registry.known("banana"));
  EXPECT_FALSE(registry.known("counter(99)"));   // out of range
  EXPECT_FALSE(registry.known("counter(2,3)"));  // wrong arity
  EXPECT_FALSE(registry.known("counter()"));     // malformed
  EXPECT_EQ(registry.canonicalize("counter( 2 )"), "counter(2)");
}

TEST(Registry, ValidationFailuresAreInvalidArgument) {
  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::global();
  EXPECT_THROW((void)registry.canonicalize("banana"), std::invalid_argument);
  EXPECT_THROW((void)registry.canonicalize("counter(0)"),
               std::invalid_argument);
  EXPECT_THROW((void)registry.canonicalize("cascade(99)"),
               std::invalid_argument);
  EXPECT_THROW((void)registry.canonicalize("counter(2,3)"),
               std::invalid_argument);
  EXPECT_THROW((void)registry.resolve("banana"), std::invalid_argument);
}

TEST(Registry, SmokeCatalogCoversEveryFamily) {
  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::global();
  const std::vector<std::string> catalog = registry.smoke_catalog();
  EXPECT_EQ(catalog.size(), registry.fixed_names().size() +
                                registry.generators().size());
  for (const std::string& spec : catalog) {
    EXPECT_TRUE(registry.known(spec)) << spec;
  }
}

// --- resolution -------------------------------------------------------------

TEST(Registry, FixedNamesMatchTheBuiltinShimByteForByte) {
  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::global();
  for (const std::string& name : registry.fixed_names()) {
    const scenario::ResolvedScenario resolved = registry.resolve(name);
    const tools::BuiltDesign shim = tools::build_design(name, {});
    EXPECT_EQ(core::serialize_network(*resolved.design.network),
              core::serialize_network(*shim.network))
        << name;
  }
}

TEST(Registry, ResolutionIsDeterministic) {
  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::global();
  const scenario::ResolvedScenario a = registry.resolve("cascade(3)");
  const scenario::ResolvedScenario b = registry.resolve("cascade(3)");
  EXPECT_EQ(core::serialize_network(*a.design.network),
            core::serialize_network(*b.design.network));
}

TEST(Registry, DecodersCarryTheConstructionHandles) {
  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::global();

  const scenario::ResolvedScenario counter = registry.resolve("counter(3)");
  const auto* counter_dec =
      dynamic_cast<const analysis::CounterDecoder*>(counter.decoder.get());
  ASSERT_NE(counter_dec, nullptr);
  EXPECT_EQ(counter_dec->spec.bits, 3u);
  EXPECT_EQ(counter_dec->handles.one_rail.size(), 3u);

  const scenario::ResolvedScenario fsm = registry.resolve("fsm_wide(4)");
  const auto* fsm_dec =
      dynamic_cast<const analysis::FsmDecoder*>(fsm.decoder.get());
  ASSERT_NE(fsm_dec, nullptr);
  EXPECT_EQ(fsm_dec->spec.num_states, 4u);

  const scenario::ResolvedScenario chain = registry.resolve("delay_chain(2)");
  const auto* chain_dec =
      dynamic_cast<const analysis::ChainDecoder*>(chain.decoder.get());
  ASSERT_NE(chain_dec, nullptr);
  EXPECT_EQ(chain_dec->spec.elements, 2u);

  for (const char* spec : {"iir", "first_difference", "cascade(3)"}) {
    EXPECT_NE(dynamic_cast<const analysis::CircuitDecoder*>(
                  registry.resolve(spec).decoder.get()),
              nullptr)
        << spec;
  }
}

// Every catalog design -- each fixed name and each generator at its smoke
// size -- decodes its own stimulus to its reference under dp45.
TEST(Registry, EveryCatalogDesignDecodesToItsReference) {
  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::global();
  for (const std::string& spec : registry.smoke_catalog()) {
    scenario::ResolvedScenario resolved = registry.resolve(spec);
    ASSERT_NE(resolved.decoder, nullptr) << spec;
    const analysis::Decoder& decoder = *resolved.decoder;
    core::ReactionNetwork& network = *resolved.design.network;
    decoder.prime(network, decoder.stimulus);
    sim::OdeOptions ode;
    ode.t_end = decoder.t_end(network.rate_policy(), decoder.stimulus.size());
    const analysis::DecodedRun run =
        analysis::run_decoded(network, ode, decoder, decoder.stimulus);
    ASSERT_EQ(run.outputs.size(), run.expected.size()) << spec;
    for (std::size_t c = 0; c < run.outputs.size(); ++c) {
      ASSERT_EQ(run.outputs[c].size(), run.expected[c].size()) << spec;
      for (std::size_t k = 0; k < run.outputs[c].size(); ++k) {
        EXPECT_NEAR(run.outputs[c][k], run.expected[c][k],
                    decoder.exact ? 0.0 : 0.05)
            << spec << " " << decoder.columns[c] << " cycle " << k;
      }
    }
  }
}

TEST(Registry, CascadeEarnsOneCompositionCertificatePerBoundary) {
  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::global();
  const scenario::ResolvedScenario resolved = registry.resolve("cascade(4)");
  ASSERT_NE(resolved.design.composition, nullptr);

  lint::LintInput input = lint::LintInput::from_design(
      *resolved.design.network, resolved.design.info, "cascade(4)");
  input.composition = resolved.design.composition.get();
  const lint::LintReport report = lint::run_lint(input);
  std::size_t certificates = 0;
  for (const lint::Diagnostic& diagnostic : report.diagnostics) {
    if (diagnostic.id == "LINT-ISS-00") ++certificates;
  }
  // Four declared-interface layers share three boundaries; each boundary
  // gets exactly one ISS composition certificate.
  EXPECT_EQ(certificates, 3u);
}

TEST(Registry, ComposedDesignsFillARequestedCompileReport) {
  // cascade(L) and delay_chain(D) run no pass pipeline over the network
  // they return; the report must still describe that network, not zeros.
  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::global();
  for (const char* spec : {"cascade(4)", "delay_chain(16)"}) {
    for (const compile::OptLevel opt :
         {compile::OptLevel::kO0, compile::OptLevel::kO1}) {
      compile::CompileReport report;
      compile::CompileOptions options;
      options.opt = opt;
      options.report = &report;
      const scenario::ResolvedScenario resolved =
          registry.resolve(spec, options);
      const core::ReactionNetwork& network = *resolved.design.network;
      const std::string context =
          std::string(spec) + " opt " + std::to_string(static_cast<int>(opt));
      EXPECT_GT(report.after.reactions, 0u) << context;
      EXPECT_EQ(report.after.reactions, network.reaction_count()) << context;
      EXPECT_EQ(report.after.species, network.species_count()) << context;
      EXPECT_EQ(report.before.reactions, report.after.reactions) << context;
    }
  }
}

TEST(Registry, CircuitDecodersCarryTheirReference) {
  const double samples[] = {1.0, 0.0, 2.0, 1.5, 0.5, 1.0, 0.0, 2.0};
  const std::span<const double> x(samples);
  const auto reference = [&](const std::string& spec) {
    return scenario::ScenarioRegistry::global()
        .resolve(spec)
        .decoder->reference(x)[0];
  };
  EXPECT_EQ(reference("moving_average"), dsp::reference_moving_average(x));
  EXPECT_EQ(reference("iir"), dsp::reference_second_order_iir(x));
  EXPECT_EQ(reference("delay"), dsp::reference_delay_line(x, 3));
  EXPECT_EQ(reference("first_difference"),
            dsp::reference_first_difference(x));
  // A cascade of L two-stage delay lines delays by 2L cycles: each link
  // hands a layer's output on inside the red phase that produced it.
  EXPECT_EQ(reference("cascade"), dsp::reference_delay_line(x, 4));
  EXPECT_EQ(reference("cascade(3)"), dsp::reference_delay_line(x, 6));
}

// --- .mrsc directive format -------------------------------------------------

TEST(ScenarioText, ParsesDesignAndBudgets) {
  const scenario::Scenario parsed = scenario::parse_scenario_text(
      "# demo workload\n"
      "@scenario nightly_counter\n"
      "@describe counter at width 4 with a tight sim budget\n"
      "@design counter( 4 )\n"
      "@sim method=rk4 t_end=12.5 record=0.25 omega=400 seed=7\n"
      "@lint checks=structure,timescale werror\n"
      "@verify seeds=5 start_seed=11\n"
      "@stress fault=leak intensities=0.001,0.01 trials=2\n");
  EXPECT_EQ(parsed.name, "nightly_counter");
  EXPECT_EQ(parsed.design, "counter(4)");  // canonicalized at parse time
  ASSERT_TRUE(parsed.sim.method.has_value());
  EXPECT_EQ(*parsed.sim.method, "rk4");
  EXPECT_DOUBLE_EQ(parsed.sim.t_end.value(), 12.5);
  EXPECT_DOUBLE_EQ(parsed.sim.record.value(), 0.25);
  EXPECT_DOUBLE_EQ(parsed.sim.omega.value(), 400.0);
  EXPECT_EQ(parsed.sim.seed.value(), 7u);
  ASSERT_EQ(parsed.lint.checks.size(), 2u);
  EXPECT_EQ(parsed.lint.checks[0], "structure");
  EXPECT_TRUE(parsed.lint.werror);
  EXPECT_EQ(parsed.verify.seeds.value(), 5u);
  EXPECT_EQ(parsed.verify.start_seed.value(), 11u);
  EXPECT_EQ(parsed.stress.fault.value(), "leak");
  ASSERT_EQ(parsed.stress.intensities.size(), 2u);
  EXPECT_EQ(parsed.stress.trials.value(), 2u);

  // Budgets ride through resolution untouched; the compiled design is the
  // registry's counter(4).
  const scenario::ResolvedScenario resolved =
      scenario::ScenarioRegistry::global().resolve(parsed);
  EXPECT_EQ(resolved.scenario.name, "nightly_counter");
  EXPECT_EQ(resolved.scenario.verify.seeds.value(), 5u);
  const scenario::ResolvedScenario direct =
      scenario::ScenarioRegistry::global().resolve("counter(4)");
  EXPECT_EQ(core::serialize_network(*resolved.design.network),
            core::serialize_network(*direct.design.network));
}

TEST(ScenarioText, ParsesInlineNetworks) {
  const scenario::Scenario parsed = scenario::parse_scenario_text(
      "@scenario tiny_decay\n"
      "@network\n"
      "@rates slow=1 fast=1000\n"
      "@species A 1\n"
      "@species B 0\n"
      "slow : A -> B\n"
      "@end\n"
      "@roots A\n"
      "@sim t_end=3\n");
  EXPECT_TRUE(parsed.design.empty());
  EXPECT_FALSE(parsed.network_text.empty());

  const scenario::ResolvedScenario resolved =
      scenario::ScenarioRegistry::global().resolve(parsed);
  EXPECT_EQ(resolved.design.network->species_count(), 2u);
  EXPECT_EQ(resolved.design.network->reaction_count(), 1u);
  ASSERT_EQ(resolved.design.info.roots.size(), 1u);
}

TEST(ScenarioText, InlineNetworksFillTheReportAtBothLevels) {
  // C is never produced and starts empty: -O1 drops it unless it is a root.
  scenario::Scenario parsed = scenario::parse_scenario_text(
      "@scenario dead_end\n"
      "@network\n"
      "@species A 1\n"
      "@species B 0\n"
      "@species C 0\n"
      "slow : A -> B\n"
      "slow : C -> A\n"
      "@end\n"
      "@roots A\n");
  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::global();
  for (const compile::OptLevel opt :
       {compile::OptLevel::kO0, compile::OptLevel::kO1}) {
    compile::CompileReport report;
    compile::CompileOptions options;
    options.opt = opt;
    options.report = &report;
    const scenario::ResolvedScenario resolved =
        registry.resolve(parsed, options);
    const core::ReactionNetwork& network = *resolved.design.network;
    const std::string context =
        "opt " + std::to_string(static_cast<int>(opt));
    EXPECT_EQ(report.before.species, 3u) << context;
    EXPECT_EQ(report.before.reactions, 2u) << context;
    EXPECT_EQ(report.after.species, network.species_count()) << context;
    EXPECT_EQ(report.after.reactions, network.reaction_count()) << context;
    EXPECT_EQ(report.passes.empty(), opt == compile::OptLevel::kO0)
        << context;
    ASSERT_EQ(resolved.design.info.roots.size(), 1u) << context;
    EXPECT_EQ(network.species_name(resolved.design.info.roots[0].first), "A")
        << context;
  }
  compile::CompileOptions o1;
  o1.opt = compile::OptLevel::kO1;
  EXPECT_EQ(registry.resolve(parsed, o1).design.network->species_count(), 2u);
  // A pinned C survives -O1.
  parsed.roots.push_back("C");
  EXPECT_EQ(registry.resolve(parsed, o1).design.network->species_count(), 3u);
  parsed.roots.push_back("D");
  EXPECT_THROW((void)registry.resolve(parsed, o1), std::invalid_argument);
}

TEST(ScenarioText, ErrorsNameTheOffendingLine) {
  // First directive must be the header.
  EXPECT_THROW((void)scenario::parse_scenario_text("@design counter\n"),
               std::invalid_argument);
  // Unknown directive.
  EXPECT_THROW((void)scenario::parse_scenario_text(
                   "@scenario s\n@design counter\n@banana\n"),
               std::invalid_argument);
  // Unknown @sim key.
  EXPECT_THROW((void)scenario::parse_scenario_text(
                   "@scenario s\n@design counter\n@sim speed=11\n"),
               std::invalid_argument);
  // @design and @network are mutually exclusive.
  EXPECT_THROW((void)scenario::parse_scenario_text(
                   "@scenario s\n@design counter\n@network\n@end\n"),
               std::invalid_argument);
  // A @network block needs its @end.
  EXPECT_THROW((void)scenario::parse_scenario_text(
                   "@scenario s\n@network\n@species A 1\n"),
               std::invalid_argument);
  // A design spec the registry rejects fails at parse time already.
  EXPECT_THROW((void)scenario::parse_scenario_text(
                   "@scenario s\n@design counter(\n"),
               std::invalid_argument);
  // No design at all.
  EXPECT_THROW((void)scenario::parse_scenario_text("@scenario s\n"),
               std::invalid_argument);
  try {
    (void)scenario::parse_scenario_text(
        "@scenario s\n@design counter\n@sim t_end=-2\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
        << error.what();
  }
}

/// The message parse_scenario_text throws for `text`, or "" if it parses.
std::string parse_error(const std::string& text) {
  try {
    (void)scenario::parse_scenario_text(text);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(ScenarioText, StressTakesNoDesignKey) {
  // A campaign runs the scenario's own @design; there is no second name.
  const std::string error = parse_error(
      "@scenario s\n@design counter\n@stress design=counter trials=1\n");
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("'design'"), std::string::npos) << error;
}

TEST(ScenarioText, NumbersMustBeFinite) {
  // Every number goes through the CLI grammar (util::parse_finite_double,
  // util::parse_u64): no nan, no infinities, no signs on counts.
  for (const char* line :
       {"@sim omega=inf", "@sim t_end=nan", "@sim record=nan",
        "@sim omega=-inf", "@sim t_end=1e999",
        "@stress intensities=0.05,inf", "@stress intensities=nan",
        "@stress trials=+2", "@verify seeds=-1", "@sim seed=1e3"}) {
    const std::string error = parse_error(
        std::string("@scenario s\n# comment\n@design counter\n") + line +
        "\n");
    EXPECT_NE(error.find("line 4"), std::string::npos)
        << line << ": " << error;
  }
  const scenario::Scenario ok = scenario::parse_scenario_text(
      "@scenario s\n@design counter\n@sim omega=1e3 record=0\n"
      "@stress intensities=0.05,0.1 trials=2\n");
  EXPECT_DOUBLE_EQ(ok.sim.omega.value(), 1000.0);
  EXPECT_DOUBLE_EQ(ok.sim.record.value(), 0.0);
  EXPECT_EQ(ok.stress.intensities.size(), 2u);
}

// --- the CLI-argument resolver ----------------------------------------------

scenario::ResolvedScenario resolve_argument(const std::string& argument) {
  return scenario::ScenarioRegistry::global().resolve(
      scenario::load_scenario_argument(argument));
}

TEST(ResolveArgument, ServesRegistrySpecsAndScenarioFiles) {
  const scenario::ResolvedScenario spec =
      resolve_argument("counter(2)");
  EXPECT_EQ(spec.scenario.name, "counter(2)");

  const scenario::ResolvedScenario file = resolve_argument(
      std::string(MRSC_SCENARIO_DATA_DIR) + "/smoke_scenario.mrsc");
  EXPECT_EQ(file.scenario.name, "smoke_counter");
  EXPECT_EQ(file.scenario.design, "counter(2)");
  EXPECT_EQ(file.scenario.verify.seeds.value(), 2u);
}

TEST(ResolveArgument, SeparatesUsageFromRuntimeFailures) {
  // Unknown registry spec: a usage error (exit 2 in the CLIs).
  EXPECT_THROW((void)resolve_argument("banana"),
               std::invalid_argument);
  // Malformed .mrsc content: also usage.
  EXPECT_THROW((void)resolve_argument(
                   std::string(MRSC_SCENARIO_DATA_DIR) +
                   "/bad_scenario.mrsc"),
               std::invalid_argument);
  // Unreadable path: a runtime failure (exit 1).
  EXPECT_THROW((void)resolve_argument(
                   "/nonexistent/dir/missing.mrsc"),
               std::runtime_error);
}

scenario::ResolvedScenario resolve_network_file(const std::string& path) {
  return scenario::ScenarioRegistry::global().resolve(
      scenario::load_network_file(path));
}

TEST(ResolveArgument, NetworkFilesAreInlineNetworks) {
  const std::string path =
      std::string(MRSC_SCENARIO_DATA_DIR) + "/quoted_species.crn";
  const scenario::ResolvedScenario resolved = resolve_network_file(path);
  EXPECT_EQ(resolved.scenario.name, path);
  EXPECT_TRUE(resolved.scenario.design.empty());
  EXPECT_EQ(resolved.decoder, nullptr);
  std::ifstream file(path);
  std::ostringstream text;
  text << file.rdbuf();
  EXPECT_EQ(core::serialize_network(*resolved.design.network),
            core::serialize_network(core::parse_network(text.str())));
  // Malformed content is usage; an unreadable path is a runtime failure.
  EXPECT_THROW((void)resolve_network_file(std::string(MRSC_SCENARIO_DATA_DIR) +
                                           "/malformed.crn"),
               std::invalid_argument);
  EXPECT_THROW((void)resolve_network_file("/nonexistent.crn"),
               std::runtime_error);
}

// --- the CLIs' design loader ------------------------------------------------

tools::DesignSource file_source(const std::string& path) {
  tools::DesignSource source;
  source.file = path;
  return source;
}

tools::DesignSource scenario_source(const std::string& spec) {
  tools::DesignSource source;
  source.scenario = spec;
  return source;
}

TEST(LoadDesign, RegistryDesignsKeepTheirPortsAtO1) {
  // The network mrsc_compile --scenario counter --opt 1 writes: every one
  // of its 28 species, ports, primed rails and carry chain included.
  const std::vector<std::string> pinned = {"ctr_O2"};
  const tools::LoadedDesign loaded = tools::load_design(
      scenario_source("counter"), 1, pinned);
  EXPECT_EQ(loaded.network().species_count(), 28u);
  EXPECT_EQ(loaded.report.design, "counter");
  EXPECT_EQ(loaded.report.after.species, 28u);
  ASSERT_EQ(loaded.pinned.size(), 1u);
  EXPECT_EQ(loaded.network().species_name(loaded.pinned[0]), "ctr_O2");
  EXPECT_EQ(loaded.reported(), loaded.pinned);
}

TEST(LoadDesign, FilesPinTheNamedSpeciesAtO1) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "mrsc_load_design_dead.crn";
  std::ofstream(path) << "@species A 1\n@species B 0\n@species C 0\n"
                         "slow : A -> B\nslow : C -> A\n";
  const tools::DesignSource source = file_source(path.string());
  const tools::LoadedDesign plain =
      tools::load_design(source, 1);
  EXPECT_EQ(plain.network().species_count(), 2u);
  EXPECT_EQ(plain.reported().size(), 2u);
  EXPECT_EQ(plain.report.design, path.string());
  const std::vector<std::string> pinned = {"C", "B"};
  const tools::LoadedDesign kept =
      tools::load_design(source, 1, pinned);
  EXPECT_EQ(kept.network().species_count(), 3u);
  ASSERT_EQ(kept.pinned.size(), 2u);
  EXPECT_EQ(kept.network().species_name(kept.pinned[0]), "C");
  EXPECT_EQ(kept.network().species_name(kept.pinned[1]), "B");
  std::filesystem::remove(path);
}

TEST(LoadDesign, OneSourceAndKnownNamesOrUsage) {
  const std::string crn =
      std::string(MRSC_SCENARIO_DATA_DIR) + "/quoted_species.crn";
  EXPECT_THROW((void)tools::load_design(tools::DesignSource{}, 0),
               std::invalid_argument);
  tools::DesignSource both = file_source(crn);
  both.scenario = "counter";
  EXPECT_THROW((void)tools::load_design(both, 0), std::invalid_argument);
  const std::vector<std::string> unknown = {"no_such_species"};
  EXPECT_THROW((void)tools::load_design(file_source(crn), 0, unknown),
               std::invalid_argument);
  EXPECT_THROW(
      (void)tools::load_design(scenario_source("counter"), 0, unknown),
      std::invalid_argument);
  tools::DesignSource design;
  design.design = "banana";
  EXPECT_THROW((void)tools::load_design(design, 0), std::invalid_argument);
  EXPECT_THROW((void)tools::load_design(file_source("/nonexistent.crn"), 0),
               std::runtime_error);
}

}  // namespace
