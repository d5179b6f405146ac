// Fuzz driver: generate → simulate → oracle-check → shrink.
//
// `run_fuzz` sweeps seeds over the structured generator, runs every
// applicable oracle on each case, and minimizes failing networks with the
// shrinker so a CI fuzz failure arrives as a few-reaction repro plus the
// seed that rebuilds it. `check_case` / `shrink_case` are exposed separately
// so tests can verify the pipeline end to end on deliberately corrupted
// networks (see fault.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sync/clock.hpp"
#include "verify/generator.hpp"
#include "verify/opt_equivalence.hpp"
#include "verify/oracles.hpp"
#include "verify/shrink.hpp"

namespace mrsc::verify {

struct VerifyOptions {
  std::size_t seeds = 50;
  std::uint64_t start_seed = 0;
  /// Case kinds to draw from (round-robin); empty = all five.
  std::vector<CaseKind> kinds;
  GeneratorOptions generator;
  std::size_t ssa_replicates = 16;
  double omega = 300.0;
  /// Worker threads for the case sweep (cases are independent).
  std::size_t threads = 1;
  /// Run the expensive differential (ensemble) oracles on raw cases.
  bool differential = true;
  /// Prove the kO1 compile pipeline trajectory-preserving on every case
  /// (see opt_equivalence.hpp). Raw closed cases additionally get the SSA
  /// ensemble leg when `differential` is on.
  bool opt_equivalence = true;
  /// Re-run clocked circuits under an alternative k_fast/k_slow ratio on a
  /// subset of seeds (every 4th) and require the same logical output.
  bool robustness = true;
  /// Hold the static analyzer (lint/) and the dynamic oracles to each
  /// other on every clocked case: the clean design must lint error-free,
  /// and a stoichiometry-faulted copy must be flagged statically (see
  /// lint_oracle.hpp).
  bool lint_cross = true;
  /// Shrink failing cases to minimal repros.
  bool shrink = true;
  /// Optional deadline/cancel hook, polled before each case, between the
  /// oracles of one case, and by every simulation of a case. Once it
  /// returns true run_fuzz (and check_case) throws VerifyAborted: a
  /// wall-clock stop fails the whole run rather than being reported as a
  /// case, so results never depend on time.
  std::function<bool()> abort;
};

/// Thrown by run_fuzz when VerifyOptions::abort fired.
class VerifyAborted : public std::runtime_error {
 public:
  VerifyAborted() : std::runtime_error("run_fuzz: aborted") {}
};

struct CaseResult {
  CaseKind kind = CaseKind::kRawNetwork;
  std::uint64_t seed = 0;
  std::vector<Violation> violations;  ///< empty = case passed
  /// Set when shrinking ran and reproduced the failure:
  bool shrunk = false;
  std::size_t original_reactions = 0;
  std::size_t shrunk_reactions = 0;
  std::string repro;  ///< serialized minimal failing network

  [[nodiscard]] bool failed() const { return !violations.empty(); }
};

struct FuzzReport {
  std::vector<CaseResult> cases;  ///< one per seed, in seed order
  std::size_t checked = 0;
  std::size_t failed = 0;
  double wall_seconds = 0.0;
};

/// Runs every applicable oracle on one generated case. Driver/simulator
/// exceptions are reported as a violation with oracle "harness" rather than
/// escaping (a healthy network must be runnable); an abort throws
/// VerifyAborted.
[[nodiscard]] std::vector<Violation> check_case(const GeneratedCase& c,
                                                const VerifyOptions& options);

/// Free-running (no driver) trajectory invariants on a network: integrates
/// the ODE for a few clock periods and applies non-negativity, conservation,
/// and — when handles are given — clock-token uniqueness and rail
/// exclusivity. Cheap and exception-free on degenerate networks, which makes
/// it the shrinker's preferred predicate.
[[nodiscard]] std::vector<Violation> check_trajectory_invariants(
    const core::ReactionNetwork& network, const sync::ClockHandles* clock,
    std::span<const std::pair<core::SpeciesId, core::SpeciesId>> rail_pairs);

/// Minimizes the case's network while a violation of oracle `oracle` keeps
/// reproducing. Returns nullopt when the case kind/oracle combination has no
/// replayable predicate.
[[nodiscard]] std::optional<ShrinkResult> shrink_case(
    const GeneratedCase& c, const std::string& oracle,
    const VerifyOptions& options);

/// The full campaign: seeds [start_seed, start_seed + seeds), kinds assigned
/// round-robin, checks fanned over `options.threads` workers, failures
/// shrunk serially afterwards. Throws VerifyAborted when options.abort
/// fires.
[[nodiscard]] FuzzReport run_fuzz(const VerifyOptions& options);

/// One-line-per-violation human-readable rendering (used by the CLI and
/// handy in test failure messages).
[[nodiscard]] std::string describe(const CaseResult& result);

}  // namespace mrsc::verify
