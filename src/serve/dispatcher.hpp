// Request validation, canonical cache keys, and job execution.
//
// A job request names one of the four workloads the CLIs already expose —
// sim / verify / lint / stress — plus a diagnostic `sleep` kind that holds
// a worker slot for a fixed time (drain and backpressure tests). The
// dispatcher is deliberately a pure library: it never touches sockets, the
// queue, or the cache, so tests can drive it directly and the server stays
// a thin admission/IO shell around it.
//
// Determinism contract (the service-layer extension of the BatchRunner
// contract): a successful response payload is a pure function of the
// canonical key — no wall-clock times, no thread counts, no machine names
// ever appear in it. Wall-clock results (timeouts, cancellations) are
// reported as status "error" and are never cached.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/json.hpp"

namespace mrsc::runtime {
class BatchRunner;
}

namespace mrsc::serve {

class DesignCache;

enum class JobKind : std::uint8_t { kSim, kVerify, kLint, kStress, kSleep };

[[nodiscard]] const char* to_string(JobKind kind);

/// A validated job request with every default filled in, so two spellings
/// of the same job (explicit defaults vs. omitted fields) share one
/// canonical key.
struct JobRequest {
  JobKind kind = JobKind::kSim;

  // sim + lint + stress: design name. sim/lint use the builtin-design
  // catalog (tools/builtin_designs.hpp); stress uses the campaign catalog.
  std::string design = "counter";
  std::uint64_t seed = 1;
  int opt = 0;  ///< compile pipeline level (0 or 1) for sim/lint

  // sim
  std::string method = "nrm";  ///< ode|dp45|rk4|be|ssa|nrm|tau
  double t_end = 5.0;
  double omega = 200.0;
  double record = 0.0;  ///< sampling interval; 0 -> t_end / 50

  // lint
  bool werror = false;
  std::string checks;  ///< comma-separated registry names; empty = all

  // verify
  std::size_t seeds = 4;
  std::uint64_t start_seed = 0;
  std::string case_kinds;  ///< comma-separated generator kinds; empty = all
  bool differential = false;
  bool opt_equivalence = false;

  // stress
  std::string fault = "rate-jitter";
  std::vector<double> intensities;  ///< empty = per-kind default grid
  std::size_t trials = 1;

  // sleep
  double sleep_ms = 0.0;

  /// Per-job deadline in seconds; 0 means the server maximum (600 s), so
  /// no request can hold a worker unbounded. Deliberately *not* part of the
  /// canonical key: it changes whether a job completes, never what a
  /// completed job returns.
  double deadline_s = 30.0;
};

/// Parses and validates the "job" fields of a request object. Throws
/// std::invalid_argument with a deterministic message on unknown kinds,
/// wrong field types, or out-of-range values (field caps are documented in
/// docs/SERVE.md — the server is not a general batch farm, so per-job work
/// is bounded at admission time).
[[nodiscard]] JobRequest parse_job(const json::Value& request);

/// The canonical cache key: a versioned "|"-separated field=value string
/// over every result-determining field, numbers rendered exactly like the
/// payload serializer renders them. Documented in docs/SERVE.md.
[[nodiscard]] std::string canonical_key(const JobRequest& request);

/// Execution environment the server provides to a job.
struct DispatchHooks {
  /// Server shutdown flag; long jobs poll it cooperatively.
  std::function<bool()> cancelled;
  /// Registry for the job's BatchRunner so Server::stop can cancel() it.
  /// Both may be null (tests drive jobs without a server).
  std::function<void(runtime::BatchRunner*)> runner_started;
  std::function<void(runtime::BatchRunner*)> runner_finished;
  /// Interruptible wait for sleep jobs; returns true when woken early by
  /// shutdown. Null falls back to an uninterruptible wait.
  std::function<bool(double ms)> sleep_wait;
  /// The server's compiled-design cache (design_cache.hpp), the only
  /// source of sim and lint designs. Null builds a private entry per job
  /// through the same CompiledDesign constructor.
  DesignCache* designs = nullptr;
};

struct DispatchResult {
  std::string payload;  ///< complete response JSON (status ok or error)
  bool ok = false;
  /// Only deterministic successful payloads may enter the cache.
  bool cacheable = false;
};

/// Runs one validated job to completion on the calling thread.
[[nodiscard]] DispatchResult run_job(const JobRequest& request,
                                     const DispatchHooks& hooks);

/// Renders the deterministic "rejected: overload" response.
[[nodiscard]] std::string overload_response();

/// Renders the deterministic "rejected: draining" response (the `drain` op
/// flipped the shard into drain mode).
[[nodiscard]] std::string draining_response();

/// Renders a deterministic error response.
[[nodiscard]] std::string error_response(const std::string& message);

/// Renders the `catalog` op response: every registry design reachable over
/// the wire — the fixed names, the parametric generators with their ranges,
/// and the smoke catalog — so a fleet or load generator can discover the
/// corpus without a local binary. Deterministic (pure registry contents).
[[nodiscard]] std::string catalog_response();

}  // namespace mrsc::serve
