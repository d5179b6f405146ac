// Plain-text serialization of reaction networks.
//
// Format (one item per line, '#' starts a comment):
//
//   @rates slow=1 fast=1000
//   @species X 1.0
//   @species G1 0
//   slow : b + R1 -> G1 | clock.seed
//   fast : 2 G1 -> I_G1
//   2.5  : A -> 0
//   slow*0.25 : 0 -> I_G1 | clock.ind
//
// A rate spec may carry a "*<multiplier>" suffix: the reaction's rate is the
// category rate (or custom rate) scaled by that factor. The stretched clock
// hop seeds and the coalescing pass's summed duplicates round-trip this way.
//
// Species lines are emitted for *every* species in id order so that parsing a
// serialized network reproduces identical SpeciesId assignments (round-trip
// stability), which the tests rely on.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "core/network.hpp"

namespace mrsc::core {

/// Renders `network` in the text format above.
[[nodiscard]] std::string serialize_network(const ReactionNetwork& network);

/// Parses the text format; throws `std::invalid_argument` with a line number
/// on malformed input.
[[nodiscard]] ReactionNetwork parse_network(std::string_view text);

}  // namespace mrsc::core
