// Golden-trace regression: recompute the canonical example circuits and
// compare cycle-by-cycle against the checked-in traces in tests/golden/.
// Regenerate after an intentional behaviour change with:
//
//   mrsc_verify --regen-golden tests/golden
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "verify/golden.hpp"

namespace mrsc::verify {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(MRSC_GOLDEN_DIR) + "/" + name + ".golden";
}

class GoldenRegression : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    traces_ = new auto(compute_reference_traces());
  }
  static void TearDownTestSuite() {
    delete traces_;
    traces_ = nullptr;
  }

  static const GoldenTrace& recomputed(const std::string& name) {
    for (const GoldenTrace& trace : *traces_) {
      if (trace.name == name) return trace;
    }
    throw std::runtime_error("no recomputed trace named " + name);
  }

  static std::vector<GoldenTrace>* traces_;
};

std::vector<GoldenTrace>* GoldenRegression::traces_ = nullptr;

void expect_matches_golden(const std::string& name) {
  const GoldenTrace golden = load_golden(golden_path(name));
  const GoldenTrace& fresh = GoldenRegression::recomputed(name);
  EXPECT_EQ(golden.columns, fresh.columns);
  EXPECT_DOUBLE_EQ(golden.tolerance, fresh.tolerance);
  const auto mismatch = compare_golden(golden, fresh.rows);
  EXPECT_FALSE(mismatch.has_value()) << *mismatch;
}

TEST_F(GoldenRegression, Counter) { expect_matches_golden("counter"); }

TEST_F(GoldenRegression, MovingAverage) {
  expect_matches_golden("moving_average");
}

TEST_F(GoldenRegression, SequenceDetector) {
  expect_matches_golden("sequence_detector");
}

TEST(GoldenFormat, SerializeParseRoundTrip) {
  GoldenTrace trace;
  trace.name = "demo";
  trace.tolerance = 1e-5;
  trace.columns = {"x", "y"};
  trace.rows = {{0.1, -2.0}, {1.0 / 3.0, 1e-300}};
  const GoldenTrace back = parse_golden(serialize_golden(trace));
  EXPECT_EQ(back.name, trace.name);
  EXPECT_DOUBLE_EQ(back.tolerance, trace.tolerance);
  EXPECT_EQ(back.columns, trace.columns);
  ASSERT_EQ(back.rows.size(), trace.rows.size());
  for (std::size_t r = 0; r < trace.rows.size(); ++r) {
    ASSERT_EQ(back.rows[r].size(), trace.rows[r].size());
    for (std::size_t c = 0; c < trace.rows[r].size(); ++c) {
      // %.17g round-trips doubles exactly.
      EXPECT_EQ(back.rows[r][c], trace.rows[r][c]);
    }
  }
}

TEST(GoldenFormat, MalformedInputNamesTheLine) {
  try {
    (void)parse_golden("golden v1\nname demo\nbogus line\n");
    FAIL() << "expected parse_golden to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(GoldenFormat, WrongVersionRejected) {
  EXPECT_THROW((void)parse_golden("golden v2\n"), std::runtime_error);
}

TEST(GoldenFormat, CompareFlagsValueOutsideTolerance) {
  GoldenTrace golden;
  golden.name = "demo";
  golden.tolerance = 0.01;
  golden.columns = {"v"};
  golden.rows = {{1.0}, {2.0}};
  EXPECT_FALSE(compare_golden(golden, {{1.005}, {2.0}}).has_value());
  const auto mismatch = compare_golden(golden, {{1.0}, {2.5}});
  ASSERT_TRUE(mismatch.has_value());
  EXPECT_NE(mismatch->find("row 1"), std::string::npos) << *mismatch;
}

TEST(GoldenFormat, CompareFlagsRowCountMismatch) {
  GoldenTrace golden;
  golden.name = "demo";
  golden.columns = {"v"};
  golden.rows = {{1.0}};
  EXPECT_TRUE(compare_golden(golden, {}).has_value());
}

}  // namespace
}  // namespace mrsc::verify
