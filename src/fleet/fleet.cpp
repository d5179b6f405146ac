#include "fleet/fleet.hpp"

#include <chrono>
#include <climits>
#include <stdexcept>
#include <thread>

#include "runtime/batch.hpp"
#include "runtime/ensemble.hpp"
#include "scenario/registry.hpp"
#include "serve/dispatcher.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace mrsc::fleet {

namespace {

using Clock = std::chrono::steady_clock;
using json = util::json::Value;
using util::json::number_to_string;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Splits a response payload into (status, detail) without assuming it is
/// well-formed: a chaos-mangled or garbage payload classifies as an error.
void classify_response(const std::string& payload, std::string& status,
                       std::string& detail) {
  try {
    const json parsed = util::json::parse(payload);
    status = parsed.get_string("status", "");
    if (status == "rejected") {
      detail = parsed.get_string("reason", "");
    } else if (status != "ok") {
      detail = parsed.get_string("error", "");
    }
  } catch (const std::exception& error) {
    status = "error";
    detail = std::string("unparseable response: ") + error.what();
  }
}

}  // namespace

FleetClient::FleetClient(FleetOptions options) : options_(std::move(options)) {
  if (options_.shards.empty()) {
    throw std::invalid_argument("fleet: at least one shard is required");
  }
  if (options_.max_attempts == 0) {
    throw std::invalid_argument("fleet: max_attempts must be >= 1");
  }
  shards_.reserve(options_.shards.size());
  for (const Endpoint& endpoint : options_.shards) {
    shards_.push_back(std::make_unique<Shard>(endpoint));
  }
}

FleetCounters FleetClient::counters() const {
  FleetCounters out;
  out.attempts = counters_.attempts.load();
  out.retries = counters_.retries.load();
  out.hedges = counters_.hedges.load();
  out.rejections = counters_.rejections.load();
  out.failures = counters_.failures.load();
  out.timeouts = counters_.timeouts.load();
  out.probes = counters_.probes.load();
  return out;
}

ShardHealth FleetClient::shard_state(std::size_t shard) const {
  return shards_.at(shard)->health.state();
}

void FleetClient::sleep_ms(double ms) const {
  if (ms <= 0.0) return;
  if (options_.sleep_hook) {
    options_.sleep_hook(ms);
    return;
  }
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

int FleetClient::route(int exclude) {
  const int n = static_cast<int>(shards_.size());
  auto least_outstanding = [&](ShardHealth want) {
    int best = -1;
    int best_outstanding = INT_MAX;
    for (int s = 0; s < n; ++s) {
      if (s == exclude) continue;
      if (shards_[s]->health.state() != want) continue;
      const int outstanding = shards_[s]->outstanding.load();
      if (outstanding < best_outstanding) {
        best_outstanding = outstanding;
        best = s;
      }
    }
    return best;
  };
  int choice = least_outstanding(ShardHealth::kHealthy);
  if (choice >= 0) return choice;
  choice = least_outstanding(ShardHealth::kDegraded);
  if (choice >= 0) return choice;
  for (int s = 0; s < n; ++s) {
    if (s == exclude) continue;
    if (shards_[s]->health.state() != ShardHealth::kQuarantined) continue;
    if (shards_[s]->health.consider_probe()) {
      counters_.probes.fetch_add(1);
      return s;
    }
  }
  // Everything is quarantined (without an earned probe) or already
  // probing: force the lowest-index candidate rather than give up — with
  // every shard down the request will fail and burn a retry, but with a
  // recovering shard this is what drags the fleet back to life.
  for (int s = 0; s < n; ++s) {
    if (s != exclude) return s;
  }
  return -1;  // exclusion ate the only shard (single-shard hedge)
}

std::string FleetClient::execute_slice(std::size_t slice,
                                       const std::string& request) {
  std::string last_error = "no attempt made";
  bool hedged = false;  // at most one hedge per slice, across all attempts

  for (std::size_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      counters_.retries.fetch_add(1);
      sleep_ms(backoff_delay_ms(options_.backoff, slice, attempt - 1));
    }

    struct Flight {
      int shard;
      std::unique_ptr<PendingRequest> pending;
    };
    std::vector<Flight> flights;
    auto launch = [&](int shard) {
      shards_[shard]->outstanding.fetch_add(1);
      counters_.attempts.fetch_add(1);
      flights.push_back({shard, std::make_unique<PendingRequest>(
                                    shards_[shard]->endpoint, request)});
    };
    auto land = [&](std::size_t i) {
      shards_[flights[i].shard]->outstanding.fetch_sub(1);
      flights.erase(flights.begin() +
                    static_cast<std::ptrdiff_t>(i));
    };
    auto abandon_all = [&] {
      while (!flights.empty()) land(flights.size() - 1);
    };

    launch(route(-1));
    const Clock::time_point start = Clock::now();

    while (!flights.empty()) {
      // Classify whatever has finished.
      std::string winner;
      for (std::size_t i = 0; i < flights.size();) {
        PendingRequest& pending = *flights[i].pending;
        if (pending.state() == PendingRequest::State::kPending) {
          ++i;
          continue;
        }
        const int shard = flights[i].shard;
        const std::string shard_name =
            shards_[shard]->endpoint.host + ":" +
            std::to_string(shards_[shard]->endpoint.port);
        if (pending.state() == PendingRequest::State::kFailed) {
          shards_[shard]->health.record_failure();
          counters_.failures.fetch_add(1);
          last_error = shard_name + ": " + pending.error();
          land(i);
          continue;
        }
        std::string status;
        std::string detail;
        classify_response(pending.response(), status, detail);
        if (status == "ok") {
          shards_[shard]->health.record_success();
          winner = pending.response();
          break;
        }
        if (status == "rejected") {
          // Overload/draining backpressure: the shard is fine, just full —
          // demote it for routing and try elsewhere.
          shards_[shard]->health.record_overload();
          counters_.rejections.fetch_add(1);
          last_error = shard_name + " rejected: " + detail;
        } else {
          shards_[shard]->health.record_failure();
          counters_.failures.fetch_add(1);
          last_error = shard_name + " error: " + detail;
        }
        land(i);
      }
      if (!winner.empty()) {
        abandon_all();  // hedge loser, if any: closed and forgotten
        return winner;
      }
      if (flights.empty()) break;  // attempt failed; maybe retry

      const Clock::time_point now = Clock::now();
      const double elapsed_ms = ms_between(start, now);
      if (elapsed_ms >= options_.request_timeout_ms) {
        for (const Flight& flight : flights) {
          shards_[flight.shard]->health.record_failure();
          counters_.timeouts.fetch_add(1);
        }
        last_error = "request timeout after " +
                     number_to_string(options_.request_timeout_ms) + " ms";
        abandon_all();
        break;
      }

      double wait_ms = options_.request_timeout_ms - elapsed_ms;
      if (!hedged && options_.hedge_ms > 0.0) {
        if (elapsed_ms >= options_.hedge_ms) {
          hedged = true;
          const int mate = route(flights.front().shard);
          if (mate >= 0) {
            counters_.hedges.fetch_add(1);
            launch(mate);
          }
        } else {
          wait_ms = std::min(wait_ms, options_.hedge_ms - elapsed_ms);
        }
      }

      std::vector<PendingRequest*> pending;
      pending.reserve(flights.size());
      for (const Flight& flight : flights) {
        pending.push_back(flight.pending.get());
      }
      wait_any(pending, wait_ms);
    }
  }

  throw std::runtime_error(
      "fleet: slice " + std::to_string(slice) + " failed after " +
      std::to_string(options_.max_attempts) + " attempt(s): " + last_error);
}

std::vector<std::string> FleetClient::execute(
    const std::vector<std::string>& requests) {
  std::vector<std::string> results(requests.size());
  const std::size_t workers =
      options_.concurrency > 0 ? options_.concurrency : 2 * shards_.size();
  // A lost slice sinks the run: the loop starts no slice after a throw.
  runtime::BatchRunner({.threads = workers})
      .for_each_index(requests.size(), [&](std::size_t i) {
        results[i] = execute_slice(i, requests[i]);
      });
  return results;
}

std::string FleetClient::request_once(const std::string& request) {
  return execute_slice(0, request);
}

std::vector<std::string> FleetClient::request_all(
    const std::string& request) {
  std::vector<std::string> responses;
  responses.reserve(shards_.size());
  for (const auto& shard : shards_) {
    try {
      serve::Client client(serve::connect_with_retry(shard->endpoint.host,
                                                     shard->endpoint.port));
      responses.push_back(client.request_raw(request));
    } catch (const std::exception& error) {
      responses.push_back(serve::error_response(error.what()));
    }
  }
  return responses;
}

// ---------------------------------------------------------------------------
// Fleet-level work units.

namespace {

std::string build_sim_request(const std::string& design,
                              const std::string& method, std::uint64_t seed,
                              double t_end, double omega, double record,
                              int opt) {
  json request;
  request.set("op", json("job"));
  request.set("kind", json("sim"));
  request.set("design", json(design));
  request.set("method", json(method));
  request.set("seed", json(seed));
  request.set("opt", json(static_cast<double>(opt)));
  request.set("t_end", json(t_end));
  request.set("omega", json(omega));
  if (record > 0.0) request.set("record", json(record));
  return request.dump();
}

/// The fields every merged report opens with.
json report_header(const char* mode, const std::string& design,
                   const std::string& method, int opt) {
  json out;
  out.set("status", json("ok"));
  out.set("mode", json(mode));
  out.set("design", json(design));
  out.set("method", json(method));
  out.set("opt", json(static_cast<double>(opt)));
  return out;
}

/// Validates a request exactly the way a shard will (same parse, same
/// registry) and returns the canonical key the shard must echo. Throws
/// std::invalid_argument on bad specs — locally, before any bytes move.
std::string expected_key(const std::string& request) {
  return serve::canonical_key(
      serve::parse_job(util::json::parse(request)));
}

/// Pulls result.<field> out of a parsed job response; throws on a payload
/// that does not have the sim shape (a shard bug, not a transport fault).
const json& result_of(const json& response, std::size_t slice) {
  const json* result = response.find("result");
  if (result == nullptr || !result->is_object()) {
    throw std::runtime_error("fleet: slice " + std::to_string(slice) +
                             ": response has no result object");
  }
  return *result;
}

/// Parses every response, cross-checking the echoed canonical key against
/// the locally computed one — a shard (or a proxy) that answered the wrong
/// question, however plausibly, is an integrity failure, not a statistic.
std::vector<json> parse_responses(const std::vector<std::string>& responses,
                                  const std::vector<std::string>& keys) {
  std::vector<json> parsed(responses.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    parsed[i] = util::json::parse(responses[i]);
    if (parsed[i].get_string("status", "") != "ok") {
      throw std::runtime_error("fleet: slice " + std::to_string(i) +
                               ": non-ok response escaped the retry layer");
    }
    if (parsed[i].get_string("key", "") != keys[i]) {
      throw std::runtime_error(
          "fleet: slice " + std::to_string(i) +
          ": shard echoed a mismatched canonical key");
    }
  }
  return parsed;
}

}  // namespace

std::string run_ensemble(FleetClient& fleet, const EnsembleSpec& spec) {
  if (spec.replicates == 0) {
    throw std::invalid_argument("fleet: replicates must be >= 1");
  }
  const std::string design =
      scenario::ScenarioRegistry::global().canonicalize(spec.design);

  std::vector<std::string> requests(spec.replicates);
  std::vector<std::string> keys(spec.replicates);
  for (std::size_t i = 0; i < spec.replicates; ++i) {
    requests[i] = build_sim_request(
        design, spec.method, util::Rng::stream_seed(spec.base_seed, i),
        spec.t_end, spec.omega, spec.record, spec.opt);
    keys[i] = expected_key(requests[i]);
  }

  const std::vector<json> parsed =
      parse_responses(fleet.execute(requests), keys);

  double events_total = 0.0;
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    events_total += result_of(parsed[i], i).get_number("ssa_events", 0.0);
  }

  // Species come from replicate 0's final state (every replicate shares the
  // compiled design, so the set and order are identical); the merge
  // re-assembles each species' value vector in replicate order and hands it
  // to the same reduction the local ensemble runner uses.
  const json* final0 = result_of(parsed[0], 0).find("final");
  if (final0 == nullptr || !final0->is_object()) {
    throw std::runtime_error("fleet: replicate 0 has no final state");
  }

  json stats;
  stats.make_array();
  std::vector<double> values(spec.replicates);
  for (const util::json::Member& species : final0->as_object()) {
    const std::string& name = species.first;
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      const json* final_state = result_of(parsed[i], i).find("final");
      const json* value =
          final_state == nullptr ? nullptr : final_state->find(name);
      if (value == nullptr || value->type() != json::Type::kNumber) {
        throw std::runtime_error("fleet: replicate " + std::to_string(i) +
                                 " is missing species '" + name + "'");
      }
      values[i] = value->as_number();
    }
    stats.array().push_back(runtime::reduce_species(name, values).to_value());
  }
  json out = report_header("ensemble", design, spec.method, spec.opt);
  out.set("replicates", json(spec.replicates));
  out.set("base_seed", json(spec.base_seed));
  out.set("t_end", json(spec.t_end));
  out.set("omega", json(spec.omega));
  out.set("ssa_events_total", json(events_total));
  out.set("species", std::move(stats));
  return out.dump();
}

std::string run_sweep(FleetClient& fleet, const SweepSpec& spec) {
  if (spec.omegas.empty()) {
    throw std::invalid_argument("fleet: sweep needs at least one omega");
  }
  const std::string design =
      scenario::ScenarioRegistry::global().canonicalize(spec.design);

  std::vector<std::string> requests(spec.omegas.size());
  std::vector<std::string> keys(spec.omegas.size());
  std::vector<std::uint64_t> seeds(spec.omegas.size());
  for (std::size_t i = 0; i < spec.omegas.size(); ++i) {
    seeds[i] = util::Rng::stream_seed(spec.base_seed, i);
    requests[i] =
        build_sim_request(design, spec.method, seeds[i], spec.t_end,
                          spec.omegas[i], spec.record, spec.opt);
    keys[i] = expected_key(requests[i]);
  }

  const std::vector<json> parsed =
      parse_responses(fleet.execute(requests), keys);

  json points;
  points.make_array();
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const json& result = result_of(parsed[i], i);
    const json* final_state = result.find("final");
    if (final_state == nullptr || !final_state->is_object()) {
      throw std::runtime_error("fleet: point " + std::to_string(i) +
                               " has no final state");
    }
    json point;
    point.set("omega", json(spec.omegas[i]));
    point.set("seed", json(seeds[i]));
    point.set("end_time", json(result.get_number("end_time", 0.0)));
    point.set("ssa_events", json(result.get_number("ssa_events", 0.0)));
    point.set("final", *final_state);
    points.array().push_back(std::move(point));
  }
  json out = report_header("sweep", design, spec.method, spec.opt);
  out.set("base_seed", json(spec.base_seed));
  out.set("t_end", json(spec.t_end));
  out.set("points", std::move(points));
  return out.dump();
}

std::string fetch_catalog(FleetClient& fleet) {
  return fleet.request_once(R"({"op":"catalog"})");
}

}  // namespace mrsc::fleet
