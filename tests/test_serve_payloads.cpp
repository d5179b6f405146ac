// Serve payload bytes: replays every request of tests/data/serve_payloads.txt
// through serve::run_job and demands the recorded response bytes. The file
// covers sims of perfbench's serve_cold designs under every method, lints at
// both opt levels over the smoke catalog, a stress job and a verify job, so
// a change to any payload writer, number formatter or simulation kernel that
// moves a byte fails here by request.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "serve/dispatcher.hpp"
#include "util/json.hpp"

namespace mrsc::serve {
namespace {

struct Pair {
  std::string request;
  std::string response;
};

std::vector<Pair> load_pairs() {
  std::ifstream in(MRSC_SERVE_PAYLOADS);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.front() != '#') lines.push_back(line);
  }
  std::vector<Pair> pairs;
  for (std::size_t i = 0; i + 1 < lines.size(); i += 2) {
    pairs.push_back({lines[i], lines[i + 1]});
  }
  return pairs;
}

TEST(ServePayloads, EveryRecordedRequestReplaysByteForByte) {
  const std::vector<Pair> pairs = load_pairs();
  // 30 sims, 2 x the smoke catalog of lints, one stress and one verify.
  ASSERT_GE(pairs.size(), 34u) << "cannot read " << MRSC_SERVE_PAYLOADS;
  std::size_t lints = 0;
  for (const Pair& pair : pairs) {
    const JobRequest job = parse_job(util::json::parse(pair.request));
    if (job.kind == JobKind::kLint) ++lints;
    const DispatchResult result = run_job(job, {});
    EXPECT_TRUE(result.ok) << pair.request;
    EXPECT_EQ(result.payload, pair.response) << pair.request;
  }
  EXPECT_GT(lints, 0u);
}

}  // namespace
}  // namespace mrsc::serve
