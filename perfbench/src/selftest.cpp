// Self-tests for the benchmark: deterministic generators, exact seeds
// through the serve parser, span self time, and the traced ledger.
#include <gtest/gtest.h>

#include <set>

#include "bench.hpp"
#include "serve/dispatcher.hpp"
#include "serve/json.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace json = mrsc::serve::json;

/// Every generated input of each workload for one seed, one string per
/// workload.
std::vector<std::string> generated_bytes(std::uint64_t seed) {
  std::string cold_bytes;
  const ColdGenerator cold(seed);
  for (std::uint64_t i = 0; i < 64; ++i) cold_bytes += cold.op(i).request;
  for (const ServeOp& op : cold.warmup()) cold_bytes += op.request;
  std::string hot_bytes;
  const HotGenerator hot(seed);
  for (std::uint64_t i = 0; i < 64; ++i) {
    hot_bytes += hot.corpus()[hot.corpus_index(i)].request;
  }
  std::string ensemble_bytes;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const EnsembleOp op = ensemble_op(seed, i);
    ensemble_bytes += std::to_string(op.design) + "/" +
                      std::to_string(op.replicates) + "/" +
                      std::to_string(op.base_seed) + ";";
  }
  return {cold_bytes, hot_bytes, ensemble_bytes};
}

TEST(Workload, SameSeedSameBytesOtherSeedOtherBytes) {
  EXPECT_EQ(generated_bytes(7), generated_bytes(7));
  const std::vector<std::string> a = generated_bytes(7);
  const std::vector<std::string> b = generated_bytes(8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t w = 0; w < a.size(); ++w) {
    EXPECT_NE(a[w], b[w]) << "workload " << w << " ignores the seed";
  }
}

TEST(Workload, NamesRoundTrip) {
  for (const char* name : {"serve_cold", "serve_hot", "ensemble_local"}) {
    const auto w = parse_workload(name);
    ASSERT_TRUE(w.has_value()) << name;
    EXPECT_STREQ(to_string(*w), name);
  }
  EXPECT_FALSE(parse_workload("serve_warm").has_value());
}

// Serve reads `seed` as a double: a seed of 2^53 or more may come back
// rounded or be rejected, so every generated seed must stay below 2^53 and
// survive parse_job exactly.
TEST(Workload, SeedsAndTEndsRoundTripThroughParseJob) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7},
        std::uint64_t{1} << 53, ~std::uint64_t{0}}) {
    const ColdGenerator cold(seed);
    std::vector<ServeOp> ops = cold.warmup();
    for (std::uint64_t i = 0; i < 4096; ++i) ops.push_back(cold.op(i));
    const HotGenerator hot(seed);
    ops.insert(ops.end(), hot.corpus().begin(), hot.corpus().end());
    for (const ServeOp& op : ops) {
      const mrsc::serve::JobRequest job =
          mrsc::serve::parse_job(json::parse(op.request));
      if (op.kind != "sim") continue;
      ASSERT_LT(op.seed, kExactSeedLimit) << op.request;
      ASSERT_EQ(job.seed, op.seed) << op.request;
      ASSERT_EQ(job.t_end, op.t_end) << op.request;
    }
  }
}

TEST(Workload, ColdKeysAreUnique) {
  const ColdGenerator cold(3);
  std::set<std::string> keys;
  std::vector<ServeOp> ops = cold.warmup();
  for (std::uint64_t i = 0; i < 4096; ++i) ops.push_back(cold.op(i));
  for (const ServeOp& op : ops) {
    keys.insert(mrsc::serve::canonical_key(
        mrsc::serve::parse_job(json::parse(op.request))));
  }
  EXPECT_EQ(keys.size(), ops.size());
}

TEST(Workload, HotReplayVisitsEveryEntryOncePerPass) {
  const HotGenerator hot(11);
  const std::size_t n = hot.corpus().size();
  ASSERT_EQ(n, 16u);
  for (std::uint64_t pass = 0; pass < 4; ++pass) {
    std::set<std::size_t> seen;
    for (std::uint64_t i = pass * n; i < (pass + 1) * n; ++i) {
      seen.insert(hot.corpus_index(i));
    }
    EXPECT_EQ(seen.size(), n);
  }
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 0},
      {"a", 10, 30, 0, 0},     // overlaps b
      {"b", 20, 50, 0, 0},
      {"c", 60, 70, 0, 0},
      {"a.child", 12, 15, 1, 0},
      {"late", 90, 120, 0, 0},  // runs past its parent: clipped
      {"other", 0, 10, -1, 1},
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - (40 + 10 + 10));
  EXPECT_EQ(self[1], 20 - 3);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 3);
  EXPECT_EQ(self[5], 30);
  EXPECT_EQ(self[6], 10);
}

TEST(Trace, RecorderNestsOpenAndClose) {
  Tracer tracer;
  const std::int64_t root = tracer.open("root", 4);
  traced(tracer, "leaf", 4, root, [] {});
  tracer.close(root);
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

class TracedRun : public ::testing::TestWithParam<Workload> {};

TEST_P(TracedRun, ReportsEveryLayerMetricAndTheExplainedRatio) {
  RunOptions options;
  options.workload = GetParam();
  options.seed = 5;
  options.seconds = 2.0;
  options.trace = true;
  const RunResult result = run_benchmark(options);
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.failed, 0u);
  ASSERT_EQ(result.metrics.size(), layer_metric_names().size());
  double explained = -1.0;
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    EXPECT_EQ(result.metrics[i].name, layer_metric_names()[i].first);
    if (result.metrics[i].name == "trace.explained_ratio") {
      explained = result.metrics[i].value;
    }
  }
  EXPECT_GT(explained, 0.0);
  const std::string line = result_json(result);
  EXPECT_NE(line.find("\"trace.explained_ratio\":{\"value\":"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, TracedRun,
                         ::testing::Values(Workload::kServeCold,
                                           Workload::kServeHot,
                                           Workload::kEnsembleLocal),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace perfbench
