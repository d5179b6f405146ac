#include "sim/method.hpp"

namespace mrsc::sim {

std::optional<SimMethod> parse_method(std::string_view name) {
  if (name == "dp45") return OdeMethod::kDormandPrince45;
  if (name == "rk4") return OdeMethod::kRk4Fixed;
  if (name == "be") return OdeMethod::kBackwardEuler;
  if (name == "ssa") return SsaMethod::kDirect;
  if (name == "nrm") return SsaMethod::kNextReaction;
  if (name == "tau") return SsaMethod::kTauLeaping;
  return std::nullopt;
}

}  // namespace mrsc::sim
