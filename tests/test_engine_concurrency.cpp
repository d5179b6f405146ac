// One `CompiledSystem` shared by concurrent simulations.
//
// A compiled system is read-only after construction: every run keeps its
// scratch (the RHS flux buffer, propensities, the active set) in its own
// arena or vectors. Eight threads therefore run dp45 and the direct method
// against one shared instance per design, and every result must be bitwise
// the serial one. The ThreadSanitizer CI job runs this binary to vet the
// sharing.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "scenario/registry.hpp"
#include "sim/engine/compiled_system.hpp"
#include "sim/ode.hpp"
#include "sim/ssa.hpp"
#include "sim/trajectory.hpp"

namespace mrsc::sim {
namespace {

constexpr std::size_t kThreads = 8;

struct Design {
  std::string spec;
  core::ReactionNetwork network;
  CompiledSystem system;

  explicit Design(const std::string& name)
      : spec(name),
        network(*scenario::ScenarioRegistry::global()
                     .resolve(name)
                     .design.network),
        system(network) {}
};

/// One simulation against a shared system, and its result.
struct Sim {
  Sim(const Design& d, bool is_ode, std::uint64_t ssa_seed)
      : design(&d), ode(is_ode), seed(ssa_seed) {}

  const Design* design;
  bool ode;
  std::uint64_t seed;

  OdeResult ode_result;
  SsaResult ssa_result;
  std::string error;  ///< what an escaped exception said, if one did

  void execute() {
    try {
      simulate();
    } catch (const std::exception& e) {
      error = e.what();
    }
  }

  void simulate() {
    if (ode) {
      OdeOptions options;
      options.method = OdeMethod::kDormandPrince45;
      options.t_end = 5.0;
      options.record_interval = 0.05;
      ode_result =
          simulate_ode(design->system, options, design->network.initial_state());
    } else {
      SsaOptions options;
      options.method = SsaMethod::kDirect;
      options.t_end = 2.0;
      options.omega = 200.0;
      options.record_interval = 0.05;
      options.seed = seed;
      ssa_result = simulate_ssa(
          design->system, options,
          to_counts(design->network.initial_state(), options.omega));
    }
  }

  [[nodiscard]] std::string name() const {
    return design->spec + (ode ? " dp45" : " ssa seed " + std::to_string(seed));
  }
};

void expect_trajectories_bitwise(const Trajectory& got, const Trajectory& want,
                                 const std::string& context) {
  ASSERT_EQ(got.sample_count(), want.sample_count()) << context;
  for (std::size_t k = 0; k < want.sample_count(); ++k) {
    ASSERT_EQ(got.time(k), want.time(k)) << context << " sample " << k;
    const auto a = got.state(k);
    const auto b = want.state(k);
    for (std::size_t i = 0; i < b.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << context << " sample " << k << " species " << i;
    }
  }
}

void expect_same_result(const Sim& got, const Sim& want) {
  const std::string context = got.name();
  ASSERT_EQ(got.error, "") << context;
  if (want.ode) {
    EXPECT_EQ(got.ode_result.steps_accepted, want.ode_result.steps_accepted)
        << context;
    EXPECT_EQ(got.ode_result.steps_rejected, want.ode_result.steps_rejected)
        << context;
    EXPECT_EQ(got.ode_result.rhs_evaluations, want.ode_result.rhs_evaluations)
        << context;
    EXPECT_EQ(got.ode_result.end_time, want.ode_result.end_time) << context;
    expect_trajectories_bitwise(got.ode_result.trajectory,
                                want.ode_result.trajectory, context);
  } else {
    EXPECT_EQ(got.ssa_result.events, want.ssa_result.events) << context;
    EXPECT_EQ(got.ssa_result.selection_terms, want.ssa_result.selection_terms)
        << context;
    EXPECT_EQ(got.ssa_result.final_counts, want.ssa_result.final_counts)
        << context;
    expect_trajectories_bitwise(got.ssa_result.trajectory,
                                want.ssa_result.trajectory, context);
  }
}

TEST(SharedCompiledSystemThreads, EightThreadsMatchSerialRunsBitwise) {
  const Design cascade("cascade(4)");
  const Design fsm("fsm_wide(16)");
  const Design chain("delay_chain(16)");
  std::vector<Sim> serial = {
      {cascade, true, 0},  {fsm, true, 0},    {cascade, false, 1},
      {cascade, false, 2}, {chain, false, 1}, {chain, false, 2}};
  for (Sim& run : serial) {
    run.execute();
    ASSERT_EQ(run.error, "") << run.name();
  }
  ASSERT_GT(serial[0].ode_result.steps_accepted, 100u);
  ASSERT_GT(serial[2].ssa_result.events, 100u);
  ASSERT_GT(serial[4].ssa_result.events, 100u);

  // Every thread runs every simulation, each starting at a different one so
  // the same design is in flight on several threads at once.
  std::vector<std::vector<Sim>> parallel(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < serial.size(); ++k) {
      Sim run = serial[(t + k) % serial.size()];
      run.ode_result = {};
      run.ssa_result = {};
      parallel[t].push_back(std::move(run));
    }
  }
  {
    std::vector<std::jthread> threads;
    for (std::vector<Sim>& runs : parallel) {
      threads.emplace_back([&runs] {
        for (Sim& run : runs) run.execute();
      });
    }
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < serial.size(); ++k) {
      expect_same_result(parallel[t][k], serial[(t + k) % serial.size()]);
    }
  }
}

}  // namespace
}  // namespace mrsc::sim
