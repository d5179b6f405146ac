// Timescale-separation lint.
//
// The paper's central robustness claim is that the computation is correct
// for *any* rates as long as every fast reaction is much faster than every
// slow one. The compiled network encodes that contract in rate categories;
// this check resolves them against the network's RatePolicy (including
// per-reaction multipliers, which the clock uses to stretch phases) and
// measures the worst-case separation actually achieved:
//
//   ratio = min effective fast rate / max effective slow rate
//
//   LINT-TIME-01 (error)    ratio below kErrorRatio (10): the fast/slow
//                           abstraction is broken.
//   LINT-TIME-02 (warning)  ratio below kWarnRatio (100): separation exists
//                           but leaves little margin.
#include <cstdio>
#include <limits>

#include "lint/checks.hpp"

namespace mrsc::lint {

namespace {

/// The paper's scheme degrades to plain races at ~10x separation;
/// comfortable separation starts around 100x.
constexpr double kErrorRatio = 10.0;
constexpr double kWarnRatio = 100.0;

class TimescaleCheck final : public Check {
 public:
  [[nodiscard]] const char* name() const override { return "timescale"; }
  [[nodiscard]] const char* summary() const override {
    return "fast/slow rate-category separation ratio";
  }

  [[nodiscard]] std::string run(const LintInput& input,
                                LintReport& report) const override {
    const core::ReactionNetwork& network = *input.network;
    double min_fast = std::numeric_limits<double>::infinity();
    double max_slow = 0.0;
    core::ReactionId slowest_fast = core::ReactionId::invalid();
    core::ReactionId fastest_slow = core::ReactionId::invalid();
    for (std::size_t r = 0; r < network.reaction_count(); ++r) {
      const core::ReactionId id{
          static_cast<core::ReactionId::underlying_type>(r)};
      const core::Reaction& reaction = network.reaction(id);
      const double rate = network.effective_rate(id);
      if (reaction.category() == core::RateCategory::kFast && rate < min_fast) {
        min_fast = rate;
        slowest_fast = id;
      }
      if (reaction.category() == core::RateCategory::kSlow && rate > max_slow) {
        max_slow = rate;
        fastest_slow = id;
      }
    }
    if (fastest_slow == core::ReactionId::invalid() ||
        slowest_fast == core::ReactionId::invalid()) {
      return "network has no slow/fast category pair to separate";
    }
    const double ratio = min_fast / max_slow;
    if (ratio >= kWarnRatio) return {};

    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "min fast rate %.6g / max slow rate %.6g = ratio %.6g",
                  min_fast, max_slow, ratio);
    Diagnostic d;
    d.check = name();
    if (ratio < kErrorRatio) {
      d.id = "LINT-TIME-01";
      d.severity = Severity::kError;
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "fast/slow separation ratio %.6g is below the %.6g "
                    "floor: the rate-category abstraction is broken",
                    ratio, kErrorRatio);
      d.message = msg;
    } else {
      d.id = "LINT-TIME-02";
      d.severity = Severity::kWarning;
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "fast/slow separation ratio %.6g is below the "
                    "comfortable %.6g margin",
                    ratio, kWarnRatio);
      d.message = msg;
    }
    d.notes.emplace_back(detail);
    d.notes.push_back("slowest fast reaction: " +
                      network.reaction_to_string(slowest_fast));
    d.notes.push_back("fastest slow reaction: " +
                      network.reaction_to_string(fastest_slow));
    report.diagnostics.push_back(std::move(d));
    return {};
  }
};

}  // namespace

std::unique_ptr<Check> make_timescale_check() {
  return std::make_unique<TimescaleCheck>();
}

}  // namespace mrsc::lint
