// Small dense-matrix linear algebra.
//
// The semi-implicit ODE integrator solves (I - h*J) dx = f at every step,
// where J is the mass-action Jacobian. Networks in this library are modest
// (tens to a few hundred species), so a dense LU factorization with partial
// pivoting is the right tool; no external BLAS/LAPACK dependency is needed.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mrsc::util {

/// Row-major dense matrix of `double`.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Contiguous row-major storage (size rows()*cols()).
  [[nodiscard]] std::span<double> data() { return data_; }
  [[nodiscard]] std::span<const double> data() const { return data_; }

  /// Sets every entry to `value`.
  void fill(double value);

  /// Sets this matrix to the identity (must be square).
  void set_identity();

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting of a square matrix.
///
/// Factorizes once, then solves any number of right-hand sides. Throws
/// `std::runtime_error` if the matrix is numerically singular.
class LuFactorization {
 public:
  /// Factorizes `a` (copied; `a` itself is not modified).
  explicit LuFactorization(const Matrix& a);

  /// Solves `A x = b` in place: `b` holds x on return. `b.size()` must
  /// equal the matrix dimension.
  void solve_in_place(std::span<double> b) const;

 private:
  std::size_t n_ = 0;
  Matrix lu_;
  std::vector<std::size_t> pivot_;
};

}  // namespace mrsc::util
