#include "serve/dispatcher.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>
#include <variant>

#include "core/network.hpp"
#include "lint/lint.hpp"
#include "runtime/batch.hpp"
#include "scenario/registry.hpp"
#include "serve/design_cache.hpp"
#include "sim/fallback.hpp"
#include "sim/method.hpp"
#include "stress/campaign.hpp"
#include "util/strings.hpp"
#include "verify/verify.hpp"

namespace mrsc::serve {

namespace {

using util::json::number_to_string;
using util::json::Value;

constexpr double kMaxTEnd = 1e4;
constexpr double kMaxDeadline = 600.0;
constexpr double kMaxSleepMs = 60'000.0;
constexpr std::size_t kMaxVerifySeeds = 32;
constexpr std::size_t kMaxStressTrials = 5;
constexpr std::size_t kMaxStressIntensities = 8;

[[noreturn]] void reject(const std::string& message) {
  throw std::invalid_argument(message);
}

std::uint64_t u64_field(const util::json::Value& v, const std::string& key,
                        std::uint64_t fallback) {
  const std::optional<std::uint64_t> value = v.get_u64(key, fallback);
  if (!value) reject("field '" + key + "' must be a non-negative integer");
  return *value;
}

/// The sim method table's names, plus serve's `ode` for dp45.
std::optional<sim::SimMethod> sim_method(std::string_view name) {
  return sim::parse_method(name == "ode" ? "dp45" : name);
}

std::string join(const std::vector<std::string>& names, char separator) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += separator;
    out += name;
  }
  return out;
}

/// Lint `checks` in canonical form: each named check once, in registry
/// order, so every spelling of one selection shares a key. Empty and a
/// selection that names every check are both "" (all checks).
std::string canonical_checks(const std::string& csv) {
  if (csv.empty()) return csv;
  std::vector<std::string> selected = lint::check_names();
  const std::size_t every = selected.size();
  const std::vector<std::string> wanted = util::split_commas(csv);
  for (const std::string& name : wanted) {
    if (std::ranges::find(selected, name) == selected.end()) {
      reject("unknown check '" + name + "' (expected " +
             join(selected, '|') + ")");
    }
  }
  std::erase_if(selected, [&wanted](const std::string& name) {
    return std::ranges::find(wanted, name) == wanted.end();
  });
  return selected.size() == every ? "" : join(selected, ',');
}

/// Verify `kinds` with each name in its canonical spelling ("fsm," is
/// "fsm"). The order stays: verify assigns case kinds round-robin.
std::string canonical_kinds(const std::string& csv) {
  if (csv.empty()) return csv;
  std::vector<std::string> names;
  for (const verify::CaseKind kind : verify::parse_kinds(csv)) {
    names.emplace_back(verify::to_string(kind));
  }
  return join(names, ',');
}

/// Rejects a stress `fault` that names no kind or a kind with no intensity
/// to sweep.
void check_fault(const std::string& name) {
  const std::optional<stress::FaultKind> fault =
      stress::parse_fault_kind(name);
  if (!fault || !stress::sweepable(*fault)) {
    reject("fault '" + name +
           "' is not a swept fault kind (expected rate-jitter|"
           "category-jitter|clock-skew|leak|injection|loss|initial-noise)");
  }
}

std::string intensities_csv(const std::vector<double>& intensities) {
  std::string out;
  for (std::size_t i = 0; i < intensities.size(); ++i) {
    if (i != 0) out += ',';
    out += number_to_string(intensities[i]);
  }
  return out;
}

}  // namespace

const char* to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kSim:
      return "sim";
    case JobKind::kVerify:
      return "verify";
    case JobKind::kLint:
      return "lint";
    case JobKind::kStress:
      return "stress";
    case JobKind::kSleep:
      return "sleep";
  }
  return "unknown";
}

JobRequest parse_job(const util::json::Value& request) {
  if (!request.is_object()) reject("request must be a JSON object");
  JobRequest job;
  const std::string kind = request.get_string("kind", "");
  if (kind == "sim") {
    job.kind = JobKind::kSim;
  } else if (kind == "verify") {
    job.kind = JobKind::kVerify;
  } else if (kind == "lint") {
    job.kind = JobKind::kLint;
  } else if (kind == "stress") {
    job.kind = JobKind::kStress;
  } else if (kind == "sleep") {
    job.kind = JobKind::kSleep;
  } else {
    reject("unknown job kind '" + kind +
           "' (expected sim|verify|lint|stress|sleep)");
  }

  job.design = request.get_string("design", job.design);
  // Sim, lint and stress designs resolve through the scenario registry:
  // validate here (bad specs are parse errors, not run failures) and
  // cache-key on the canonical spelling, so "counter( 2 )" and "counter(2)"
  // share an entry. Fixed names canonicalize to themselves, preserving
  // pre-registry keys.
  if (job.kind == JobKind::kSim || job.kind == JobKind::kLint ||
      job.kind == JobKind::kStress) {
    try {
      job.design =
          scenario::ScenarioRegistry::global().canonicalize(job.design);
    } catch (const std::invalid_argument& error) {
      reject(error.what());
    }
  }
  job.seed = u64_field(request, "seed", job.seed);
  const double opt = request.get_number("opt", 0.0);
  if (opt != 0.0 && opt != 1.0) reject("field 'opt' must be 0 or 1");
  job.opt = static_cast<int>(opt);

  job.method = request.get_string("method", job.method);
  if (job.kind == JobKind::kSim && !sim_method(job.method)) {
    reject("unknown method '" + job.method +
           "' (expected ode|dp45|rk4|be|ssa|nrm|tau)");
  }
  job.t_end = request.get_number("t_end", job.t_end);
  if (!(job.t_end > 0.0) || job.t_end > kMaxTEnd) {
    reject("field 't_end' must be in (0, " + number_to_string(kMaxTEnd) +
           "]");
  }
  job.omega = request.get_number("omega", job.omega);
  if (job.omega < 1.0 || job.omega > 1e6) {
    reject("field 'omega' must be in [1, 1e6]");
  }
  job.record = request.get_number("record", 0.0);
  if (job.record < 0.0 || job.record > job.t_end) {
    reject("field 'record' must be in [0, t_end]");
  }
  if (job.record == 0.0) job.record = job.t_end / 50.0;

  job.werror = request.get_bool("werror", false);
  job.checks = request.get_string("checks", "");
  if (job.kind == JobKind::kLint) job.checks = canonical_checks(job.checks);

  job.seeds = u64_field(request, "seeds", job.seeds);
  if (job.seeds == 0 || job.seeds > kMaxVerifySeeds) {
    reject("field 'seeds' must be in [1, " +
           std::to_string(kMaxVerifySeeds) + "]");
  }
  job.start_seed = u64_field(request, "start_seed", job.start_seed);
  job.case_kinds = request.get_string("kinds", "");
  if (job.kind == JobKind::kVerify) {
    job.case_kinds = canonical_kinds(job.case_kinds);
  }
  job.differential = request.get_bool("differential", false);
  job.opt_equivalence = request.get_bool("opt_equivalence", false);

  job.fault = request.get_string("fault", job.fault);
  if (job.kind == JobKind::kStress) check_fault(job.fault);
  job.trials = u64_field(request, "trials", job.trials);
  if (job.trials == 0 || job.trials > kMaxStressTrials) {
    reject("field 'trials' must be in [1, " +
           std::to_string(kMaxStressTrials) + "]");
  }
  if (const util::json::Value* grid = request.find("intensities")) {
    if (grid->type() != util::json::Value::Type::kArray) {
      reject("field 'intensities' must be an array of numbers");
    }
    if (grid->as_array().size() > kMaxStressIntensities) {
      reject("field 'intensities' is capped at " +
             std::to_string(kMaxStressIntensities) + " points");
    }
    double previous = 0.0;
    for (const util::json::Value& point : grid->as_array()) {
      if (point.type() != util::json::Value::Type::kNumber) {
        reject("field 'intensities' must be an array of numbers");
      }
      const double intensity = point.as_number();
      if (!(intensity > previous)) {
        reject("field 'intensities' must be positive and ascending");
      }
      previous = intensity;
      job.intensities.push_back(intensity);
    }
  }

  job.sleep_ms = request.get_number("ms", 0.0);
  if (job.sleep_ms < 0.0 || job.sleep_ms > kMaxSleepMs) {
    reject("field 'ms' must be in [0, " + number_to_string(kMaxSleepMs) +
           "]");
  }

  job.deadline_s = request.get_number("deadline_s", job.deadline_s);
  if (job.deadline_s < 0.0 || job.deadline_s > kMaxDeadline) {
    reject("field 'deadline_s' must be in [0, " +
           number_to_string(kMaxDeadline) + "]");
  }
  if (job.deadline_s == 0.0) job.deadline_s = kMaxDeadline;
  return job;
}

std::string canonical_key(const JobRequest& request) {
  std::string key = "mrsc-serve-v1|kind=";
  key += to_string(request.kind);
  switch (request.kind) {
    case JobKind::kSim:
      key += "|design=" + request.design;
      key += "|opt=" + std::to_string(request.opt);
      key += "|method=" + request.method;
      key += "|seed=" + std::to_string(request.seed);
      key += "|t_end=" + number_to_string(request.t_end);
      key += "|omega=" + number_to_string(request.omega);
      key += "|record=" + number_to_string(request.record);
      break;
    case JobKind::kLint:
      key += "|design=" + request.design;
      key += "|opt=" + std::to_string(request.opt);
      key += "|checks=" + request.checks;
      key += "|werror=" + std::string(request.werror ? "1" : "0");
      break;
    case JobKind::kVerify:
      key += "|seeds=" + std::to_string(request.seeds);
      key += "|start_seed=" + std::to_string(request.start_seed);
      key += "|kinds=" + request.case_kinds;
      key += "|differential=" + std::string(request.differential ? "1" : "0");
      key += "|opt_equivalence=" +
             std::string(request.opt_equivalence ? "1" : "0");
      break;
    case JobKind::kStress:
      key += "|design=" + request.design;
      key += "|fault=" + request.fault;
      key += "|seed=" + std::to_string(request.seed);
      key += "|trials=" + std::to_string(request.trials);
      key += "|intensities=" + intensities_csv(request.intensities);
      break;
    case JobKind::kSleep:
      key += "|ms=" + number_to_string(request.sleep_ms);
      break;
  }
  return key;
}

std::string overload_response() {
  return R"({"status":"rejected","reason":"overload"})";
}

std::string draining_response() {
  return R"({"status":"rejected","reason":"draining"})";
}

std::string error_response(const std::string& message) {
  Value out;
  out.set("status", Value("error"));
  out.set("error", Value(message));
  return out.dump();
}

std::string cancelled_response() {
  return error_response("cancelled: server shutting down");
}

std::string catalog_response() {
  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::global();
  Value generators;
  generators.make_array();
  for (const scenario::GeneratorInfo& info : registry.generators()) {
    Value entry;
    entry.set("name", Value(info.name));
    entry.set("parameter", Value(info.parameter));
    entry.set("min", Value(info.min_arg));
    entry.set("max", Value(info.max_arg));
    entry.set("smoke", Value(info.smoke_arg));
    entry.set("summary", Value(info.summary));
    generators.array().push_back(std::move(entry));
  }
  Value out;
  out.set("status", Value("ok"));
  out.set("op", Value("catalog"));
  out.set("fixed", util::json::string_array(registry.fixed_names()));
  out.set("generators", std::move(generators));
  out.set("smoke", util::json::string_array(registry.smoke_catalog()));
  return out.dump();
}

namespace {

/// The one success envelope every job kind answers with.
std::string ok_payload(const JobRequest& request, Value result) {
  Value out;
  out.set("status", Value("ok"));
  out.set("kind", Value(to_string(request.kind)));
  out.set("key", Value(canonical_key(request)));
  out.set("result", std::move(result));
  return out.dump();
}

std::shared_ptr<const CompiledDesign> design_for(const JobRequest& request,
                                                const DispatchHooks& hooks) {
  if (hooks.designs != nullptr) {
    return hooks.designs->get(request.design, request.opt);
  }
  return std::make_shared<const CompiledDesign>(request.design, request.opt);
}

DispatchResult run_sim(const JobRequest& request,
                       const DispatchHooks& hooks) {
  const std::shared_ptr<const CompiledDesign> design =
      design_for(request, hooks);

  runtime::SimJob job;
  job.network = design->built.network.get();
  job.compiled = &design->system;
  const sim::SimMethod method = sim_method(request.method).value();
  if (const auto* ode_method = std::get_if<sim::OdeMethod>(&method)) {
    job.kind = runtime::SimKind::kOde;
    job.ode.t_end = request.t_end;
    job.ode.record_interval = request.record;
    job.ode.method = *ode_method;
  } else {
    job.kind = runtime::SimKind::kSsa;
    job.ssa.t_end = request.t_end;
    job.ssa.seed = request.seed;
    job.ssa.omega = request.omega;
    job.ssa.record_interval = request.record;
    job.ssa.method = std::get<sim::SsaMethod>(method);
  }

  runtime::BatchRunner runner(
      {.threads = 1, .timeout_seconds = request.deadline_s});
  const std::vector<runtime::JobResult> results =
      runner.run(std::span<const runtime::SimJob>(&job, 1), hooks.stop);
  const runtime::JobResult& result = results.front();
  if (result.status == runtime::JobStatus::kCancelled) {
    return {cancelled_response(), false, false};
  }
  if (result.status != runtime::JobStatus::kOk) {
    std::string message = std::string("sim job ") +
                          runtime::to_string(result.status);
    if (!result.error.empty()) message += ": " + result.error;
    return {error_response(message), false, false};
  }

  Value out;
  out.set("design", Value(request.design));
  out.set("method", Value(request.method));
  out.set("opt", Value(static_cast<double>(request.opt)));
  out.set("seed", Value(request.seed));
  out.set("t_end", Value(request.t_end));
  out.set("omega", Value(request.omega));
  out.append_members(result.to_value(*design->built.network));
  return {ok_payload(request, std::move(out)), true, true};
}

/// The answer of a job its abort hook stopped: a wall-clock outcome, so an
/// uncacheable error.
DispatchResult aborted_result(const DispatchHooks& hooks, const char* kind) {
  if (hooks.stop.stop_requested()) {
    return {cancelled_response(), false, false};
  }
  return {error_response(std::string(kind) + " job timeout"), false, false};
}

DispatchResult run_verify(const JobRequest& request,
                          const DispatchHooks& hooks) {
  verify::VerifyOptions options;
  options.seeds = request.seeds;
  options.start_seed = request.start_seed;
  options.kinds = verify::parse_kinds(request.case_kinds);
  options.threads = 1;
  options.differential = request.differential;
  options.opt_equivalence = request.opt_equivalence;
  // Bounded-work profile: the expensive sweeps (robustness re-runs, the
  // lint cross-oracle, shrinking) stay in the offline mrsc_verify CLI.
  options.robustness = false;
  options.lint_cross = false;
  options.shrink = false;
  options.abort = sim::abort_hook(hooks.stop, request.deadline_s);
  verify::FuzzReport report;
  try {
    report = verify::run_fuzz(options);
  } catch (const verify::VerifyAborted&) {
    return aborted_result(hooks, "verify");
  }

  Value failures;
  failures.make_array();
  for (const verify::CaseResult& c : report.cases) {
    if (!c.failed()) continue;
    Value oracles;  // a failed case has at least one violation
    for (const verify::Violation& violation : c.violations) {
      oracles.array().emplace_back(violation.oracle);
    }
    Value entry;
    entry.set("seed", Value(c.seed));
    entry.set("case", Value(verify::to_string(c.kind)));
    entry.set("oracles", std::move(oracles));
    failures.array().push_back(std::move(entry));
  }
  Value out;
  out.set("seeds", Value(request.seeds));
  out.set("start_seed", Value(request.start_seed));
  out.set("checked", Value(report.checked));
  out.set("failed", Value(report.failed));
  out.set("failures", std::move(failures));
  return {ok_payload(request, std::move(out)), true, true};
}

DispatchResult run_lint_job(const JobRequest& request,
                            const DispatchHooks& hooks) {
  const std::shared_ptr<const CompiledDesign> design =
      design_for(request, hooks);
  lint::LintInput input = lint::LintInput::from_design(
      *design->built.network, design->built.info, request.design);
  input.composition = design->built.composition.get();
  lint::LintOptions lint_options;
  lint_options.checks = util::split_commas(request.checks);
  const lint::LintReport report =
      lint::run_lint(input, lint_options, hooks.stop);
  if (hooks.stop.stop_requested()) {
    return {cancelled_response(), false, false};
  }

  Value out;
  out.set("werror", Value(request.werror));
  out.set("clean", Value(report.clean(request.werror)));
  out.set("report", report.to_value());
  return {ok_payload(request, std::move(out)), true, true};
}

DispatchResult run_stress(const JobRequest& request,
                          const DispatchHooks& hooks) {
  stress::CampaignConfig config;
  config.design = request.design;
  config.fault = stress::parse_fault_kind(request.fault).value();
  config.intensities = request.intensities;
  config.trials = request.trials;
  config.base_seed = request.seed;
  config.threads = 1;
  config.abort = sim::abort_hook(hooks.stop, request.deadline_s);
  stress::CampaignResult result;
  try {
    result = stress::run_campaign(config);
  } catch (const stress::CampaignAborted&) {
    // Wall-clock outcome: an error, never cached, never a quarantined trial.
    return aborted_result(hooks, "stress");
  }

  Value intensities;
  intensities.make_array();
  for (const stress::IntensityResult& point : result.intensities) {
    Value entry;
    entry.set("intensity", Value(point.intensity));
    entry.set("ok", Value(point.ok));
    entry.set("mismatch", Value(point.mismatch));
    entry.set("sim_failure", Value(point.sim_failure));
    intensities.array().push_back(std::move(entry));
  }
  Value out;
  out.set("design", Value(request.design));
  out.set("fault", Value(request.fault));
  out.set("base_seed", Value(request.seed));
  out.set("trials", Value(request.trials));
  out.set("margin", Value(result.margin));
  out.set("margin_found", Value(result.margin_found));
  out.set("intensities", std::move(intensities));
  return {ok_payload(request, std::move(out)), true, true};
}

DispatchResult run_sleep(const JobRequest& request,
                         const DispatchHooks& hooks) {
  std::mutex mutex;
  std::condition_variable_any woken;
  std::unique_lock lock(mutex);
  if (woken.wait_for(lock, hooks.stop,
                     std::chrono::duration<double, std::milli>(
                         request.sleep_ms),
                     [&hooks] { return hooks.stop.stop_requested(); })) {
    return {cancelled_response(), false, false};
  }
  Value out;
  out.set("slept_ms", Value(request.sleep_ms));
  // Deterministic, but caching a sleep would defeat its purpose (holding a
  // worker slot for backpressure tests).
  return {ok_payload(request, std::move(out)), true, false};
}

}  // namespace

DispatchResult run_job(const JobRequest& request,
                       const DispatchHooks& hooks) {
  if (hooks.stop.stop_requested()) {
    return {cancelled_response(), false, false};
  }
  try {
    switch (request.kind) {
      case JobKind::kSim:
        return run_sim(request, hooks);
      case JobKind::kVerify:
        return run_verify(request, hooks);
      case JobKind::kLint:
        return run_lint_job(request, hooks);
      case JobKind::kStress:
        return run_stress(request, hooks);
      case JobKind::kSleep:
        return run_sleep(request, hooks);
    }
    return {error_response("unknown job kind"), false, false};
  } catch (const std::exception& error) {
    return {error_response(error.what()), false, false};
  }
}

}  // namespace mrsc::serve
