#include "fsm/fsm.hpp"

#include <gtest/gtest.h>

#include "analysis/decode.hpp"
#include "util/rng.hpp"

namespace mrsc::fsm {
namespace {

using core::ReactionNetwork;

struct FsmRun {
  std::vector<std::size_t> states;
  std::vector<std::size_t> outputs;  ///< kNoOutput when none
  sim::OdeResult ode;
};

/// Drives the input string through the machine's decoder.
FsmRun run_fsm(const ReactionNetwork& net, const FsmSpec& spec,
               const FsmHandles& handles,
               const std::vector<std::size_t>& inputs) {
  const analysis::FsmDecoder decoder(spec, handles);
  sim::OdeOptions ode;
  ode.t_end = decoder.t_end(net.rate_policy(), inputs.size());
  analysis::DecodedRun run = analysis::run_decoded(
      net, ode, decoder, std::vector<double>(inputs.begin(), inputs.end()));
  FsmRun out;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    out.states.push_back(static_cast<std::size_t>(run.outputs[0][k]));
    out.outputs.push_back(run.outputs[1][k] < 0.0
                              ? kNoOutput
                              : static_cast<std::size_t>(run.outputs[1][k]));
  }
  out.ode = std::move(run.ode);
  return out;
}

TEST(FsmSpec, ValidationCatchesMalformedTables) {
  FsmSpec spec;
  spec.num_states = 2;
  spec.num_inputs = 2;
  spec.next_state = {{0, 1}};  // wrong height
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.next_state = {{0, 1}, {1, 5}};  // target out of range
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.next_state = {{0, 1}, {1, 0}};
  EXPECT_NO_THROW(spec.validate());
  spec.initial_state = 7;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.initial_state = 0;
  spec.num_outputs = 1;
  spec.output = {{0, kNoOutput}, {0, 3}};  // symbol out of range
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(FsmReference, ParityMachine) {
  const FsmSpec spec = make_parity_machine();
  const std::vector<std::size_t> inputs = {1, 1, 0, 1};
  const FsmTrace trace = evaluate_reference(spec, inputs);
  EXPECT_EQ(trace.states, (std::vector<std::size_t>{1, 0, 0, 1}));
  EXPECT_EQ(trace.outputs, (std::vector<std::size_t>{1, 0, 0, 1}));
}

TEST(FsmReference, RejectsOutOfRangeInput) {
  const FsmSpec spec = make_parity_machine();
  const std::vector<std::size_t> inputs = {2};
  EXPECT_THROW((void)evaluate_reference(spec, inputs), std::invalid_argument);
}

TEST(SequenceDetector, CountsOverlappingMatches) {
  const FsmSpec spec = make_sequence_detector("101");
  // stream 1 0 1 0 1 1 0 1 : matches end at positions 2, 4, 7 (overlap!).
  const std::vector<std::size_t> inputs = {1, 0, 1, 0, 1, 1, 0, 1};
  const FsmTrace trace = evaluate_reference(spec, inputs);
  std::vector<std::size_t> match_positions;
  for (std::size_t i = 0; i < trace.outputs.size(); ++i) {
    if (trace.outputs[i] != kNoOutput) match_positions.push_back(i);
  }
  EXPECT_EQ(match_positions, (std::vector<std::size_t>{2, 4, 7}));
}

TEST(SequenceDetector, RejectsBadPatterns) {
  EXPECT_THROW((void)make_sequence_detector(""), std::invalid_argument);
  EXPECT_THROW((void)make_sequence_detector("102"), std::invalid_argument);
}

TEST(FsmMolecular, ParityMachineMatchesReference) {
  const FsmSpec spec = make_parity_machine();
  ReactionNetwork net;
  const FsmHandles handles = build_fsm(net, spec);
  const std::vector<std::size_t> inputs = {1, 0, 1, 1, 0, 1, 0, 0};
  const auto run = run_fsm(net, spec, handles, inputs);
  const FsmTrace reference = evaluate_reference(spec, inputs);
  EXPECT_EQ(run.states, reference.states);
  EXPECT_EQ(run.outputs, reference.outputs);
}

TEST(FsmMolecular, SequenceDetectorMatchesReference) {
  const FsmSpec spec = make_sequence_detector("101");
  ReactionNetwork net;
  const FsmHandles handles = build_fsm(net, spec);
  const std::vector<std::size_t> inputs = {1, 0, 1, 0, 1, 1, 0, 1};
  const auto run = run_fsm(net, spec, handles, inputs);
  const FsmTrace reference = evaluate_reference(spec, inputs);
  EXPECT_EQ(run.states, reference.states);
  EXPECT_EQ(run.outputs, reference.outputs);
}

TEST(FsmMolecular, StateTokenIsConserved) {
  const FsmSpec spec = make_sequence_detector("110");
  ReactionNetwork net;
  const FsmHandles handles = build_fsm(net, spec);
  const std::vector<std::size_t> inputs = {1, 1, 0, 1};
  const auto run = run_fsm(net, spec, handles, inputs);
  const auto final_state = run.ode.trajectory.final_state();
  double total = 0.0;
  for (std::size_t s = 0; s < handles.state.size(); ++s) {
    total += final_state[handles.state[s].index()] +
             final_state[handles.state_primed[s].index()];
  }
  EXPECT_NEAR(total, 1.0, 0.02);
}

// Property: random machines executed on random input strings match the
// reference evaluator exactly.
class RandomFsmTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomFsmTest, MolecularExecutionMatchesReference) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  FsmSpec spec;
  spec.num_states = 2 + rng.uniform_below(3);   // 2..4
  spec.num_inputs = 2 + rng.uniform_below(2);   // 2..3
  spec.num_outputs = 2;
  spec.initial_state = rng.uniform_below(spec.num_states);
  spec.prefix = "rnd";
  spec.next_state.assign(spec.num_states,
                         std::vector<std::size_t>(spec.num_inputs, 0));
  spec.output.assign(spec.num_states,
                     std::vector<std::size_t>(spec.num_inputs, kNoOutput));
  for (std::size_t s = 0; s < spec.num_states; ++s) {
    for (std::size_t a = 0; a < spec.num_inputs; ++a) {
      spec.next_state[s][a] = rng.uniform_below(spec.num_states);
      if (rng.uniform() < 0.5) {
        spec.output[s][a] = rng.uniform_below(spec.num_outputs);
      }
    }
  }
  std::vector<std::size_t> inputs(6);
  for (std::size_t& a : inputs) a = rng.uniform_below(spec.num_inputs);

  ReactionNetwork net;
  const FsmHandles handles = build_fsm(net, spec);
  const auto run = run_fsm(net, spec, handles, inputs);
  const FsmTrace reference = evaluate_reference(spec, inputs);
  EXPECT_EQ(run.states, reference.states) << "seed " << GetParam();
  EXPECT_EQ(run.outputs, reference.outputs) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFsmTest, ::testing::Range(0, 8));

TEST(FsmMolecular, RobustAcrossRateRatios) {
  const FsmSpec base = make_parity_machine();
  const std::vector<std::size_t> inputs = {1, 1, 1, 0, 1};
  const FsmTrace reference = evaluate_reference(base, inputs);
  for (const double ratio : {200.0, 5000.0}) {
    ReactionNetwork net;
    const FsmHandles handles = build_fsm(net, base);
    net.set_rate_policy(core::RatePolicy{1.0, ratio});
    const auto run = run_fsm(net, base, handles, inputs);
    EXPECT_EQ(run.states, reference.states) << "ratio " << ratio;
  }
}

TEST(FsmHarness, RejectsBadInputs) {
  const FsmSpec spec = make_parity_machine();
  ReactionNetwork net;
  const FsmHandles handles = build_fsm(net, spec);
  EXPECT_THROW((void)run_fsm(net, spec, handles, {}), std::invalid_argument);
  EXPECT_THROW((void)run_fsm(net, spec, handles, {5}), std::invalid_argument);
  // A symbol must be a whole index.
  const analysis::FsmDecoder decoder(spec, handles);
  const double fractional[] = {0.5};
  EXPECT_THROW((void)decoder.reference(fractional), std::invalid_argument);
}

TEST(Minimize, DropsUnreachableStates) {
  FsmSpec spec = make_parity_machine();
  // Add a third state nothing reaches.
  spec.num_states = 3;
  spec.next_state.push_back({2, 2});
  spec.output.push_back({0, 0});
  const MinimizationResult result = minimize(spec);
  EXPECT_EQ(result.spec.num_states, 2u);
  EXPECT_EQ(result.state_map[2], MinimizationResult::kUnreachable);
}

TEST(Minimize, MergesDuplicatedStates) {
  // Duplicate the parity machine's states: 4 states, two pairs equivalent.
  const FsmSpec base = make_parity_machine();
  FsmSpec doubled;
  doubled.num_states = 4;
  doubled.num_inputs = 2;
  doubled.num_outputs = 2;
  doubled.initial_state = 0;
  doubled.prefix = "dup";
  // States 0,2 behave like base state 0; 1,3 like base state 1. The
  // transitions ping-pong between the copies so all four are reachable.
  doubled.next_state = {{2, 3}, {3, 2}, {0, 1}, {1, 0}};
  doubled.output = {{0, 1}, {1, 0}, {0, 1}, {1, 0}};
  const MinimizationResult result = minimize(doubled);
  EXPECT_EQ(result.spec.num_states, 2u);
  EXPECT_EQ(result.state_map[0], result.state_map[2]);
  EXPECT_EQ(result.state_map[1], result.state_map[3]);

  // Behaviour preserved.
  const std::vector<std::size_t> inputs = {1, 0, 1, 1, 0};
  const FsmTrace original = evaluate_reference(doubled, inputs);
  const FsmTrace minimized = evaluate_reference(result.spec, inputs);
  EXPECT_EQ(original.outputs, minimized.outputs);
}

TEST(Minimize, AlreadyMinimalMachineUnchangedInSize) {
  const FsmSpec spec = make_sequence_detector("101");
  const MinimizationResult result = minimize(spec);
  EXPECT_EQ(result.spec.num_states, spec.num_states);
}

class MinimizeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MinimizeRandomTest, PreservesBehaviour) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 547 + 3);
  FsmSpec spec;
  spec.num_states = 3 + rng.uniform_below(5);
  spec.num_inputs = 2;
  spec.num_outputs = 2;
  spec.initial_state = rng.uniform_below(spec.num_states);
  spec.next_state.assign(spec.num_states, std::vector<std::size_t>(2, 0));
  spec.output.assign(spec.num_states,
                     std::vector<std::size_t>(2, kNoOutput));
  for (std::size_t s = 0; s < spec.num_states; ++s) {
    for (std::size_t a = 0; a < 2; ++a) {
      spec.next_state[s][a] = rng.uniform_below(spec.num_states);
      if (rng.uniform() < 0.6) {
        spec.output[s][a] = rng.uniform_below(2);
      }
    }
  }
  const MinimizationResult result = minimize(spec);
  EXPECT_LE(result.spec.num_states, spec.num_states);
  std::vector<std::size_t> inputs(16);
  for (std::size_t& a : inputs) a = rng.uniform_below(2);
  const FsmTrace original = evaluate_reference(spec, inputs);
  const FsmTrace minimized = evaluate_reference(result.spec, inputs);
  EXPECT_EQ(original.outputs, minimized.outputs) << "seed " << GetParam();
  // States map consistently.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(result.state_map[original.states[i]], minimized.states[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeRandomTest, ::testing::Range(0, 10));

TEST(Minimize, MinimizedMachineRunsMolecularly) {
  // Duplicate-state machine compiled after minimization still conforms.
  FsmSpec doubled;
  doubled.num_states = 4;
  doubled.num_inputs = 2;
  doubled.num_outputs = 2;
  doubled.initial_state = 0;
  doubled.prefix = "min";
  doubled.next_state = {{2, 3}, {3, 2}, {0, 1}, {1, 0}};
  doubled.output = {{0, 1}, {1, 0}, {0, 1}, {1, 0}};
  const MinimizationResult minimized = minimize(doubled);

  ReactionNetwork net;
  const FsmHandles handles = build_fsm(net, minimized.spec);
  const std::vector<std::size_t> inputs = {1, 1, 0, 1};
  const auto run = run_fsm(net, minimized.spec, handles, inputs);
  const FsmTrace reference = evaluate_reference(minimized.spec, inputs);
  EXPECT_EQ(run.states, reference.states);
  EXPECT_EQ(run.outputs, reference.outputs);
}

TEST(FsmBuild, ReactionCountIsStatesTimesInputs) {
  const FsmSpec spec = make_sequence_detector("1011");
  ReactionNetwork net;
  const std::size_t before = net.reaction_count();
  build_fsm(net, spec);
  // 4 states x 2 inputs transitions + 4 write-backs + clock (18 reactions).
  EXPECT_EQ(net.reaction_count() - before, 4u * 2u + 4u + 18u);
}

}  // namespace
}  // namespace mrsc::fsm
