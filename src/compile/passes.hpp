// Optimization and validation passes over lowered reaction networks.
//
// The front-ends (sync, async, fsm, dsp) emit reactions through a
// LoweringContext (context.hpp); the PassManager then runs a pipeline of
// passes over the finished network. Passes are exact: they never change the
// deterministic mass-action trajectory of any surviving species, and the
// verify subsystem's optimized-vs-unoptimized oracle holds them to that.
//
// Pass catalogue (docs/COMPILE.md describes each invariant in detail):
//   validate              structural lint over the tagged emission range
//   canonicalize          merge repeated terms per side, sort terms by id
//   coalesce-duplicates   merge identical reactions, summing multipliers
//   dead-species-elim     drop species unreachable from roots/initials
//   factor-catalysts      analysis only: report shared catalyst groups
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "compile/report.hpp"
#include "core/network.hpp"

namespace mrsc::compile {

/// How hard the pipeline tries. kO0 leaves the network byte-identical to
/// what the front-end emitted (validation still runs); kO1 runs every
/// exact network-shrinking pass.
enum class OptLevel : std::uint8_t { kO0 = 0, kO1 = 1 };

/// Semantic role of an emitted reaction; set by the LoweringContext helpers
/// and consumed by the validation pass.
enum class ReactionTag : std::uint8_t {
  kUntagged = 0,
  kClockwork,       // clock/heartbeat internals: hop seeds, dimer sharpening
  kIndicator,       // absence-indicator generation and absorption
  kGatedTransfer,   // slow transfer catalyzed by a clock-phase species
  kFastOp,          // un-gated fast combinational step
  kWriteback,       // slow phase-gated primed-state -> state copy
  kDrain,           // slow phase-gated removal of a consumed wire
  kAnnihilation,    // fast pairwise annihilation (dual-rail normalization)
};

/// Why a species is part of the design's external interface.
enum class PortRole : std::uint8_t { kInput, kOutput, kState, kClock };

/// Interface and emission metadata captured by LoweringContext::finalize for
/// PassManager-adjacent consumers — chiefly the static analyzer in
/// `lint/`, which needs the role of every root and the semantic tag of
/// every lowered reaction. Root ids refer to the *final* network (they are
/// remapped when the pipeline renumbers species; eliminated roots are
/// dropped). `tags[i]` describes reaction `first_tagged + i` and the range
/// is only meaningful while `tags_valid`: the shrinking passes rewrite the
/// reaction table, so after a kO1 pipeline that changed the reaction count
/// the tag range is dropped and tag-indexed checks must be skipped.
struct DesignInfo {
  std::vector<std::pair<core::SpeciesId, PortRole>> roots;
  std::vector<ReactionTag> tags;
  std::size_t first_tagged = 0;
  bool tags_valid = false;
};

/// Options threaded from a front-end `compile()` call into the pipeline.
struct CompileOptions {
  OptLevel opt = OptLevel::kO0;
  /// Input ports the caller promises never to drive. They are dropped from
  /// the root set, so dead-species elimination may delete their entire
  /// downstream cone. Ignored at kO0.
  std::vector<std::string> assume_zero_inputs;
  /// When non-null, filled with per-pass statistics.
  CompileReport* report = nullptr;
  /// When non-null, filled with the design's interface roles and emission
  /// tags so the static analyzer can run without re-lowering.
  DesignInfo* design_info = nullptr;
};

/// What the caller of a pipeline knows about the network being optimized.
struct PipelineInputs {
  /// Species that must survive every pass even when nothing provably keeps
  /// them alive: ports, clock phases, register state — the interface the
  /// harness or a composing design drives from outside.
  std::vector<core::SpeciesId> roots;
  /// The subset of roots that act as clock/pacing catalysts; the validation
  /// pass requires every slow gated transfer to be catalyzed by one.
  std::vector<core::SpeciesId> clock_roots;
  /// Tags for the trailing emission range being validated; empty when the
  /// network was not lowered through a LoweringContext (e.g. a parsed .crn
  /// file), in which case validation is skipped. tags[i] describes reaction
  /// `first_tagged + i`.
  std::vector<ReactionTag> tags;
  std::size_t first_tagged = 0;
};

/// Everything a pass may look at or change. `roots` and `remap` are kept
/// consistent by any pass that renumbers species: `remap[i]` maps a species
/// id of the *original* (pre-pipeline) network to its current id, or
/// SpeciesId::invalid() once the species has been eliminated.
struct PassContext {
  core::ReactionNetwork& network;
  std::vector<core::SpeciesId>& roots;
  std::vector<core::SpeciesId>& remap;
  std::span<const core::SpeciesId> clock_roots;
  std::span<const ReactionTag> tags;
  std::size_t first_tagged = 0;
  /// Human-readable observations, collected into the pass report.
  std::vector<std::string> notes;
};

/// A single transformation (or lint) over the network.
class Pass {
 public:
  virtual ~Pass() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// Returns true when the network changed. Must keep ctx.roots and
  /// ctx.remap consistent if it renumbers species. Validation passes throw
  /// std::logic_error with every violation listed.
  virtual bool run(PassContext& ctx) const = 0;
};

std::unique_ptr<Pass> make_validate_pass();
std::unique_ptr<Pass> make_canonicalize_pass();
std::unique_ptr<Pass> make_coalesce_duplicates_pass();
std::unique_ptr<Pass> make_dead_species_elimination_pass();
std::unique_ptr<Pass> make_factor_catalysts_pass();

/// Runs a pipeline of passes in order, timing each and recording deltas.
class PassManager {
 public:
  PassManager& add(std::unique_ptr<Pass> pass);

  /// The stock pipeline for an optimization level: validation (if asked)
  /// followed by the exact shrinking passes at kO1. Every front-end
  /// `compile()` validates; `optimize_network` does not.
  [[nodiscard]] static PassManager standard(OptLevel level, bool validate);

  /// Runs every pass. Returns the original-id -> final-id species map
  /// (identity when nothing renumbered). Appends per-pass stats to
  /// `report` when non-null. Validation failures throw std::logic_error
  /// listing every violation.
  std::vector<core::SpeciesId> run(core::ReactionNetwork& network,
                                   const PipelineInputs& inputs,
                                   CompileReport* report = nullptr) const;

  [[nodiscard]] std::size_t size() const { return passes_.size(); }

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// Result of optimizing a standalone network (no lowering context).
struct OptimizeResult {
  /// Original species id -> optimized id; SpeciesId::invalid() if removed.
  std::vector<core::SpeciesId> remap;
  CompileReport report;
};

/// Convenience wrapper: runs the standard kO1 pipeline (without validation,
/// which needs emission tags) over an arbitrary network. `roots` are
/// species that must survive even if the passes cannot prove them live —
/// typically the design's interface (ports, clock phases, register state).
OptimizeResult optimize_network(core::ReactionNetwork& network,
                                std::span<const core::SpeciesId> roots,
                                OptLevel level = OptLevel::kO1);

// --- Analysis helpers (previously core/transform.hpp) -----------------------

/// Species that appear in no reaction at all (neither side). Such species
/// are frozen at their initial concentration; usually a design bug.
[[nodiscard]] std::vector<core::SpeciesId> untouched_species(
    const core::ReactionNetwork& network);

/// Species that can never hold a nonzero concentration: initial 0, not a
/// root, and not produced by any reaction whose reactants are all
/// reachable. Reactions consuming only such species are dead.
[[nodiscard]] std::vector<core::SpeciesId> unreachable_species(
    const core::ReactionNetwork& network,
    std::span<const core::SpeciesId> roots = {});

}  // namespace mrsc::compile
