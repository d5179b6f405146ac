#include "util/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace mrsc::util {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, FillAndIdentity) {
  Matrix m(3, 3, 9.0);
  m.set_identity();
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(m(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, IdentityRequiresSquare) {
  Matrix m(2, 3);
  EXPECT_THROW(m.set_identity(), std::invalid_argument);
}

TEST(LuFactorization, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0;
  const LuFactorization lu(a);
  std::vector<double> x = {5.0, 10.0};
  lu.solve_in_place(x);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LuFactorization, SingularMatrixThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 4.0;
  EXPECT_THROW(LuFactorization{a}, std::runtime_error);
}

TEST(LuFactorization, NonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(LuFactorization{a}, std::invalid_argument);
}

TEST(LuFactorization, RequiresPivoting) {
  // Zero on the initial diagonal forces a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 0.0;
  const LuFactorization lu(a);
  std::vector<double> x = {3.0, 7.0};
  lu.solve_in_place(x);
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

// Property: for random well-conditioned systems, A * solve(A, b) == b.
class LuRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(LuRandomTest, SolveThenMultiplyRoundTrips) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 3 + static_cast<std::size_t>(GetParam()) % 8;
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += static_cast<double>(n);  // diagonally dominant
  }
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform(-10.0, 10.0);

  const LuFactorization lu(a);
  std::vector<double> x = b;
  lu.solve_in_place(x);
  for (std::size_t r = 0; r < n; ++r) {
    double back = 0.0;
    for (std::size_t c = 0; c < n; ++c) back += a(r, c) * x[c];
    EXPECT_NEAR(back, b[r], 1e-9) << "row " << r << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuRandomTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace mrsc::util
