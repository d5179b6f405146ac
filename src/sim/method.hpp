// The simulation methods by the names the front ends accept.
//
// One table maps the spellings of `--method`, `@sim method=` and a serve
// request's `method` to the ODE integrators (ode.hpp: dp45, rk4, be) and
// the stochastic simulators (ssa.hpp: ssa, nrm, tau). A front end that
// runs only one family checks which alternative it got.
#pragma once

#include <optional>
#include <string_view>
#include <variant>

#include "sim/ode.hpp"
#include "sim/ssa.hpp"

namespace mrsc::sim {

using SimMethod = std::variant<OdeMethod, SsaMethod>;

/// dp45|rk4|be|ssa|nrm|tau to its method; any other name is nullopt.
[[nodiscard]] std::optional<SimMethod> parse_method(std::string_view name);

}  // namespace mrsc::sim
