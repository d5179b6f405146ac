#include "workload.hpp"

#include "serve/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using mrsc::serve::json::number_to_string;
using mrsc::serve::json::quote;
using mrsc::util::Rng;

// Sub-stream tags, so the workloads draw independent values from one seed.
constexpr std::uint64_t kColdStream = 0xC01D;
constexpr std::uint64_t kWarmupStream = 0x3A43;
constexpr std::uint64_t kHotStream = 0x4077;
constexpr std::uint64_t kEnsembleStream = 0xE45E;

// ODE requests get t_end = 3 + j * 2^-30 for a seeded j < 2^20: a distinct
// cache key per request at (to within 0.1%) the same simulated work.
constexpr std::uint64_t kTEndSlots = std::uint64_t{1} << 20;
constexpr double kTEndStep = 1.0 / static_cast<double>(std::uint64_t{1} << 30);

bool is_ode(const std::string& method) { return method == "dp45"; }

ServeOp sim_op(const std::string& design, const std::string& method,
               std::uint64_t seed, double t_end) {
  ServeOp op;
  op.kind = "sim";
  op.design = design;
  op.method = method;
  op.seed = seed;
  op.t_end = t_end;
  op.request = "{\"op\":\"job\",\"kind\":\"sim\",\"design\":" + quote(design) +
               ",\"method\":" + quote(method) +
               ",\"seed\":" + std::to_string(seed) +
               ",\"t_end\":" + number_to_string(t_end) +
               ",\"omega\":" + number_to_string(kServeOmega) + "}";
  return op;
}

ServeOp lint_op(const std::string& design) {
  ServeOp op;
  op.kind = "lint";
  op.design = design;
  op.request = "{\"op\":\"job\",\"kind\":\"lint\",\"design\":" +
               quote(design) + ",\"opt\":1}";
  return op;
}

}  // namespace

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kServeCold:
      return "serve_cold";
    case Workload::kServeHot:
      return "serve_hot";
    case Workload::kEnsembleLocal:
      return "ensemble_local";
  }
  return "unknown";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w :
       {Workload::kServeCold, Workload::kServeHot, Workload::kEnsembleLocal}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

ColdGenerator::ColdGenerator(std::uint64_t seed)
    : base_(Rng::stream_seed(seed, kColdStream) >> 12) {}

ServeOp ColdGenerator::op(std::uint64_t i) const {
  const std::string design = kDesigns[i % kDesigns.size()];
  const std::string method = kMethods[(i / kDesigns.size()) % kMethods.size()];
  const std::uint64_t unique = base_ + i;
  const double t_end =
      is_ode(method)
          ? kServeTEnd + static_cast<double>(unique % kTEndSlots) * kTEndStep
          : kServeTEnd;
  return sim_op(design, method, unique, t_end);
}

std::vector<ServeOp> ColdGenerator::warmup() const {
  std::vector<ServeOp> ops;
  const std::uint64_t base = Rng::stream_seed(base_, kWarmupStream) >> 12;
  for (std::size_t m = 0; m < kMethods.size(); ++m) {
    for (std::size_t d = 0; d < kDesigns.size(); ++d) {
      ops.push_back(
          sim_op(kDesigns[d], kMethods[m], base + ops.size(), 2.0));
    }
  }
  return ops;
}

HotGenerator::HotGenerator(std::uint64_t seed) {
  const std::uint64_t base = Rng::stream_seed(seed, kHotStream) >> 12;
  for (std::size_t d = 0; d < kDesigns.size(); ++d) {
    corpus_.push_back(sim_op(kDesigns[d], "nrm", base + d, kServeTEnd));
    corpus_.push_back(lint_op(kDesigns[d]));
  }
}

std::size_t HotGenerator::corpus_index(std::uint64_t i) const {
  return static_cast<std::size_t>(i % corpus_.size());
}

EnsembleOp ensemble_op(std::uint64_t seed, std::uint64_t i) {
  // Cycle cascade, delay_chain, cascade: with the two designs in a 2:1
  // ratio, p50 and p90 each fall inside one design's latency cluster
  // instead of on the boundary between two equal halves.
  EnsembleOp op;
  op.design = i % 3 == 1 ? 1 : 0;
  op.replicates = kEnsembleReplicates[op.design];
  op.base_seed = Rng::stream_seed(seed ^ kEnsembleStream, i);
  return op;
}

}  // namespace perfbench
