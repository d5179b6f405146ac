// Internal check factories and shared helpers for the static analyzer.
// Public API is lint.hpp; nothing here is installed or documented beyond
// the per-check sections of docs/LINT.md.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace mrsc::lint {

std::unique_ptr<Check> make_conservation_check();
std::unique_ptr<Check> make_phase_race_check();
std::unique_ptr<Check> make_timescale_check();
std::unique_ptr<Check> make_dual_rail_check();
std::unique_ptr<Check> make_reachability_check();
std::unique_ptr<Check> make_iss_check();

namespace detail {

/// Conservation-law basis as floating-point weight vectors (indexed by
/// SpeciesId). Tries the exact rational left-nullspace first; on int64
/// overflow falls back to the floating-point basis from
/// analysis/conservation.hpp and appends an explanatory note to `notes`.
std::vector<std::vector<double>> conservation_basis(
    const core::ReactionNetwork& network, std::vector<std::string>* notes);

/// covered[s]: species s has a nonzero weight in some basis vector.
std::vector<bool> conservation_coverage(
    const std::vector<std::vector<double>>& basis, std::size_t species_count);

}  // namespace detail

}  // namespace mrsc::lint
