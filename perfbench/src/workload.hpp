// Seeded workload generators. Every input the benchmark sends is a pure
// function of (workload seed, operation index); the program under test only
// ever sees the generated requests.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload : std::uint8_t { kServeCold, kServeHot, kEnsembleLocal };

[[nodiscard]] const char* to_string(Workload workload);
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

/// Request seeds stay below 2^53: serve parses `seed` as a JSON number
/// (a double), so larger seeds are rounded or rejected.
constexpr std::uint64_t kExactSeedLimit = std::uint64_t{1} << 53;

/// Simulation settings shared by every serve request the benchmark sends.
constexpr double kServeTEnd = 3.0;
constexpr double kServeOmega = 200.0;

/// One serve request: the frame payload plus the fields it was built from.
struct ServeOp {
  std::string request;  ///< complete {"op":"job",...} frame payload
  std::string kind;     ///< "sim" or "lint"
  std::string design;
  std::string method;   ///< empty for lint
  std::uint64_t seed = 0;
  double t_end = 0.0;
};

/// serve_cold: sim jobs cycling designs x methods. Every request has a
/// distinct canonical key: SSA requests differ by seed, ODE requests by a
/// seeded t_end in [3, 3.001), so the result cache never hits.
class ColdGenerator {
 public:
  static constexpr std::array<const char*, 5> kDesigns = {
      "counter(4)", "fsm_wide(16)", "cascade(4)", "delay_chain(8)",
      "delay_chain(16)"};
  static constexpr std::array<const char*, 3> kMethods = {"nrm", "ssa",
                                                          "dp45"};

  explicit ColdGenerator(std::uint64_t seed);

  /// The i-th timed request.
  [[nodiscard]] ServeOp op(std::uint64_t i) const;

  /// Set-up requests: one per design x method at t_end 2, so their keys
  /// never collide with a timed request.
  [[nodiscard]] std::vector<ServeOp> warmup() const;

 private:
  std::uint64_t base_ = 0;  ///< < 2^52, so base_ + i stays exact
};

/// serve_hot: the 16-request corpus (sim nrm + lint opt=1 over 8 catalog
/// designs), replayed in order.
class HotGenerator {
 public:
  static constexpr std::array<const char*, 8> kDesigns = {
      "counter", "moving_average", "iir",     "first_difference",
      "delay",   "seqdet",         "cascade", "counter(2)"};

  explicit HotGenerator(std::uint64_t seed);

  [[nodiscard]] const std::vector<ServeOp>& corpus() const { return corpus_; }

  /// Corpus index of the i-th timed request. Every entry fits in the result
  /// cache, so the order does not change the work; the requests' seeds
  /// already differ per workload seed.
  [[nodiscard]] std::size_t corpus_index(std::uint64_t i) const;

 private:
  std::vector<ServeOp> corpus_;
};

/// ensemble_local: cascade(4) x 64 and delay_chain(16) x 32 in the repeating
/// order cascade, delay_chain, cascade.
struct EnsembleOp {
  std::size_t design = 0;  ///< index into kEnsembleDesigns
  std::size_t replicates = 0;
  std::uint64_t base_seed = 0;
};

constexpr std::array<const char*, 2> kEnsembleDesigns = {"cascade(4)",
                                                         "delay_chain(16)"};
constexpr std::array<std::size_t, 2> kEnsembleReplicates = {64, 32};
constexpr double kEnsembleTEnd = 5.0;
constexpr double kEnsembleOmega = 200.0;
constexpr std::size_t kEnsembleThreads = 4;

[[nodiscard]] EnsembleOp ensemble_op(std::uint64_t seed, std::uint64_t i);

}  // namespace perfbench
