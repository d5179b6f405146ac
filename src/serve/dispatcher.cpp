#include "serve/dispatcher.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>

#include "core/network.hpp"
#include "lint/lint.hpp"
#include "runtime/batch.hpp"
#include "scenario/registry.hpp"
#include "serve/design_cache.hpp"
#include "stress/campaign.hpp"
#include "verify/verify.hpp"

namespace mrsc::serve {

namespace {

using json::number_to_string;
using json::quote;

constexpr double kMaxTEnd = 1e4;
constexpr double kMaxDeadline = 600.0;
constexpr double kMaxSleepMs = 60'000.0;
constexpr std::size_t kMaxVerifySeeds = 32;
constexpr std::size_t kMaxStressTrials = 5;
constexpr std::size_t kMaxStressIntensities = 8;

[[noreturn]] void reject(const std::string& message) {
  throw std::invalid_argument(message);
}

std::uint64_t u64_field(const json::Value& v, const std::string& key,
                        std::uint64_t fallback) {
  const std::optional<std::uint64_t> value = v.get_u64(key, fallback);
  if (!value) reject("field '" + key + "' must be a non-negative integer");
  return *value;
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      if (start < text.size()) out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool is_ode_method(const std::string& method) {
  return method == "ode" || method == "dp45" || method == "rk4" ||
         method == "be";
}

bool is_ssa_method(const std::string& method) {
  return method == "ssa" || method == "nrm" || method == "tau";
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

JobRequest parse_job(const json::Value& request) {
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
  // Sim and lint designs resolve through the scenario registry: validate
  // here (bad specs are parse errors, not run failures) and cache-key on the
  // canonical spelling, so "counter( 2 )" and "counter(2)" share an entry.
  // Fixed names canonicalize to themselves, preserving pre-registry keys.
  // Stress designs name campaign families, not registry specs — left alone.
  if (job.kind == JobKind::kSim || job.kind == JobKind::kLint) {
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
  if (job.kind == JobKind::kSim && !is_ode_method(job.method) &&
      !is_ssa_method(job.method)) {
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

  job.seeds = u64_field(request, "seeds", job.seeds);
  if (job.seeds == 0 || job.seeds > kMaxVerifySeeds) {
    reject("field 'seeds' must be in [1, " +
           std::to_string(kMaxVerifySeeds) + "]");
  }
  job.start_seed = u64_field(request, "start_seed", job.start_seed);
  job.case_kinds = request.get_string("kinds", "");
  job.differential = request.get_bool("differential", false);
  job.opt_equivalence = request.get_bool("opt_equivalence", false);

  job.fault = request.get_string("fault", job.fault);
  job.trials = u64_field(request, "trials", job.trials);
  if (job.trials == 0 || job.trials > kMaxStressTrials) {
    reject("field 'trials' must be in [1, " +
           std::to_string(kMaxStressTrials) + "]");
  }
  if (const json::Value* grid = request.find("intensities")) {
    if (grid->type() != json::Value::Type::kArray) {
      reject("field 'intensities' must be an array of numbers");
    }
    if (grid->as_array().size() > kMaxStressIntensities) {
      reject("field 'intensities' is capped at " +
             std::to_string(kMaxStressIntensities) + " points");
    }
    double previous = 0.0;
    for (const json::Value& point : grid->as_array()) {
      if (point.type() != json::Value::Type::kNumber) {
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
  return "{\"status\":\"error\",\"error\":" + quote(message) + "}";
}

std::string catalog_response() {
  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::global();
  std::string out = R"({"status":"ok","op":"catalog","fixed":[)";
  bool first = true;
  for (const std::string& name : registry.fixed_names()) {
    if (!first) out += ',';
    first = false;
    out += quote(name);
  }
  out += "],\"generators\":[";
  first = true;
  for (const scenario::GeneratorInfo& info : registry.generators()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":" + quote(info.name);
    out += ",\"parameter\":" + quote(info.parameter);
    out += ",\"min\":" + std::to_string(info.min_arg);
    out += ",\"max\":" + std::to_string(info.max_arg);
    out += ",\"smoke\":" + std::to_string(info.smoke_arg);
    out += ",\"summary\":" + quote(info.summary);
    out += '}';
  }
  out += "],\"smoke\":[";
  first = true;
  for (const std::string& spec : registry.smoke_catalog()) {
    if (!first) out += ',';
    first = false;
    out += quote(spec);
  }
  out += "]}";
  return out;
}

namespace {

/// RAII registration of the job's BatchRunner with the server's cancel set.
struct RunnerScope {
  const DispatchHooks& hooks;
  runtime::BatchRunner* runner;
  RunnerScope(const DispatchHooks& h, runtime::BatchRunner* r)
      : hooks(h), runner(r) {
    if (hooks.runner_started) hooks.runner_started(runner);
  }
  ~RunnerScope() {
    if (hooks.runner_finished) hooks.runner_finished(runner);
  }
};

std::string payload_header(const JobRequest& request) {
  return "{\"status\":\"ok\",\"kind\":\"" +
         std::string(to_string(request.kind)) +
         "\",\"key\":" + quote(canonical_key(request)) + ",\"result\":";
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
  job.network = design->built.network;
  job.compiled = &design->system;
  if (is_ode_method(request.method)) {
    job.kind = runtime::SimKind::kOde;
    job.ode.t_end = request.t_end;
    job.ode.record_interval = request.record;
    if (request.method == "rk4") {
      job.ode.method = sim::OdeMethod::kRk4Fixed;
    } else if (request.method == "be") {
      job.ode.method = sim::OdeMethod::kBackwardEuler;
    } else {
      job.ode.method = sim::OdeMethod::kDormandPrince45;
    }
  } else {
    job.kind = runtime::SimKind::kSsa;
    job.ssa.t_end = request.t_end;
    job.ssa.seed = request.seed;
    job.ssa.omega = request.omega;
    job.ssa.record_interval = request.record;
    if (request.method == "ssa") {
      job.ssa.method = sim::SsaMethod::kDirect;
    } else if (request.method == "tau") {
      job.ssa.method = sim::SsaMethod::kTauLeaping;
    } else {
      job.ssa.method = sim::SsaMethod::kNextReaction;
    }
  }

  runtime::BatchOptions batch;
  batch.threads = 1;
  batch.timeout_seconds =
      request.deadline_s > 0.0 ? request.deadline_s : kMaxDeadline;
  runtime::BatchRunner runner(batch);
  const RunnerScope scope(hooks, &runner);
  if (hooks.cancelled && hooks.cancelled()) {
    return {error_response("cancelled: server shutting down"), false, false};
  }
  const std::vector<runtime::JobResult> results =
      runner.run(std::span<const runtime::SimJob>(&job, 1));
  const runtime::JobResult& result = results.front();
  if (result.status != runtime::JobStatus::kOk) {
    std::string message = std::string("sim job ") +
                          runtime::to_string(result.status);
    if (!result.error.empty()) message += ": " + result.error;
    return {error_response(message), false, false};
  }

  std::string out = payload_header(request);
  out += "{\"design\":" + quote(request.design);
  out += ",\"method\":" + quote(request.method);
  out += ",\"opt\":" + std::to_string(request.opt);
  out += ",\"seed\":" + std::to_string(request.seed);
  out += ",\"t_end\":" + number_to_string(request.t_end);
  out += ",\"omega\":" + number_to_string(request.omega);
  out += ",\"end_time\":" + number_to_string(result.end_time);
  out += ",\"ssa_events\":" + std::to_string(result.ssa_events);
  out += ",\"ode_steps\":" + std::to_string(result.ode_steps);
  out += ",\"final\":{";
  const core::ReactionNetwork& network = *design->built.network;
  for (std::size_t i = 0; i < result.final_state.size(); ++i) {
    if (i != 0) out += ',';
    const core::SpeciesId id{
        static_cast<core::SpeciesId::underlying_type>(i)};
    out += quote(network.species_name(id)) + ":" +
           number_to_string(result.final_state[i]);
  }
  out += "}}}";
  return {out, true, true};
}

DispatchResult run_verify(const JobRequest& request,
                          const DispatchHooks& hooks) {
  if (hooks.cancelled && hooks.cancelled()) {
    return {error_response("cancelled: server shutting down"), false, false};
  }
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
  const verify::FuzzReport report = verify::run_fuzz(options);

  std::string out = payload_header(request);
  out += "{\"seeds\":" + std::to_string(request.seeds);
  out += ",\"start_seed\":" + std::to_string(request.start_seed);
  out += ",\"checked\":" + std::to_string(report.checked);
  out += ",\"failed\":" + std::to_string(report.failed);
  out += ",\"failures\":[";
  bool first = true;
  for (const verify::CaseResult& c : report.cases) {
    if (!c.failed()) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"seed\":" + std::to_string(c.seed);
    out += ",\"case\":" + quote(verify::to_string(c.kind));
    out += ",\"oracles\":[";
    for (std::size_t i = 0; i < c.violations.size(); ++i) {
      if (i != 0) out += ',';
      out += quote(c.violations[i].oracle);
    }
    out += "]}";
  }
  out += "]}}";
  return {out, true, true};
}

DispatchResult run_lint_job(const JobRequest& request,
                            const DispatchHooks& hooks) {
  if (hooks.cancelled && hooks.cancelled()) {
    return {error_response("cancelled: server shutting down"), false, false};
  }
  const std::shared_ptr<const CompiledDesign> design =
      design_for(request, hooks);
  lint::LintInput input = lint::LintInput::from_design(
      *design->built.network, design->built.info, request.design);
  input.composition = design->built.composition.get();
  lint::LintOptions lint_options;
  lint_options.checks = split_commas(request.checks);
  const lint::LintReport report = lint::run_lint(input, lint_options);

  std::string out = payload_header(request);
  out += "{\"werror\":" + std::string(request.werror ? "true" : "false");
  out += ",\"clean\":" +
         std::string(report.clean(request.werror) ? "true" : "false");
  // Re-serialize the analyzer's (pretty-printed) JSON through the protocol
  // serializer so the payload has exactly one deterministic formatting.
  out += ",\"report\":" + json::parse(report.to_json()).dump();
  out += "}}";
  return {out, true, true};
}

DispatchResult run_stress(const JobRequest& request,
                          const DispatchHooks& hooks) {
  if (hooks.cancelled && hooks.cancelled()) {
    return {error_response("cancelled: server shutting down"), false, false};
  }
  const std::optional<stress::Design> design =
      stress::parse_design(request.design);
  if (!design) {
    reject("unknown stress design '" + request.design +
           "' (expected counter|moving_average|sequence_detector|"
           "async_chain)");
  }
  const std::optional<stress::FaultKind> fault =
      stress::parse_fault_kind(request.fault);
  if (!fault) reject("unknown fault kind '" + request.fault + "'");

  stress::CampaignConfig config;
  config.design = *design;
  config.fault = *fault;
  config.intensities = request.intensities;
  config.trials = request.trials;
  config.base_seed = request.seed;
  config.threads = 1;
  const stress::CampaignResult result = stress::run_campaign(config);

  std::string out = payload_header(request);
  out += "{\"design\":" + quote(request.design);
  out += ",\"fault\":" + quote(request.fault);
  out += ",\"base_seed\":" + std::to_string(request.seed);
  out += ",\"trials\":" + std::to_string(request.trials);
  out += ",\"margin\":" + number_to_string(result.margin);
  out += ",\"margin_found\":" +
         std::string(result.margin_found ? "true" : "false");
  out += ",\"intensities\":[";
  for (std::size_t i = 0; i < result.intensities.size(); ++i) {
    if (i != 0) out += ',';
    const stress::IntensityResult& point = result.intensities[i];
    out += "{\"intensity\":" + number_to_string(point.intensity);
    out += ",\"ok\":" + std::to_string(point.ok);
    out += ",\"mismatch\":" + std::to_string(point.mismatch);
    out += ",\"sim_failure\":" + std::to_string(point.sim_failure);
    out += '}';
  }
  out += "]}}";
  return {out, true, true};
}

DispatchResult run_sleep(const JobRequest& request,
                         const DispatchHooks& hooks) {
  bool cancelled = false;
  if (hooks.sleep_wait) {
    cancelled = hooks.sleep_wait(request.sleep_ms);
  } else {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(request.sleep_ms));
  }
  if (cancelled) {
    return {error_response("cancelled: server shutting down"), false, false};
  }
  std::string out = payload_header(request);
  out += "{\"slept_ms\":" + number_to_string(request.sleep_ms) + "}}";
  // Deterministic, but caching a sleep would defeat its purpose (holding a
  // worker slot for backpressure tests).
  return {out, true, false};
}

}  // namespace

DispatchResult run_job(const JobRequest& request,
                       const DispatchHooks& hooks) {
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
