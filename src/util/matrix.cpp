#include "util/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mrsc::util {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::fill(double value) { std::ranges::fill(data_, value); }

void Matrix::set_identity() {
  if (rows_ != cols_) {
    throw std::invalid_argument("Matrix::set_identity: matrix not square");
  }
  fill(0.0);
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, i) = 1.0;
}

LuFactorization::LuFactorization(const Matrix& a)
    : n_(a.rows()), lu_(a), pivot_(a.rows()) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("LuFactorization: matrix not square");
  }
  for (std::size_t i = 0; i < n_; ++i) pivot_[i] = i;

  for (std::size_t col = 0; col < n_; ++col) {
    // Partial pivoting: pick the row with the largest magnitude in this
    // column at or below the diagonal.
    std::size_t best = col;
    double best_mag = std::abs(lu_(col, col));
    for (std::size_t r = col + 1; r < n_; ++r) {
      const double mag = std::abs(lu_(r, col));
      if (mag > best_mag) {
        best = r;
        best_mag = mag;
      }
    }
    if (best_mag == 0.0) {
      throw std::runtime_error("LuFactorization: singular matrix");
    }
    if (best != col) {
      for (std::size_t c = 0; c < n_; ++c) {
        std::swap(lu_(best, c), lu_(col, c));
      }
      std::swap(pivot_[best], pivot_[col]);
    }
    const double inv_pivot = 1.0 / lu_(col, col);
    for (std::size_t r = col + 1; r < n_; ++r) {
      const double factor = lu_(r, col) * inv_pivot;
      lu_(r, col) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = col + 1; c < n_; ++c) {
        lu_(r, c) -= factor * lu_(col, c);
      }
    }
  }
}

void LuFactorization::solve_in_place(std::span<double> b) const {
  if (b.size() != n_) {
    throw std::invalid_argument("LuFactorization::solve: dimension mismatch");
  }
  // Apply the row permutation.
  std::vector<double> y(n_);
  for (std::size_t i = 0; i < n_; ++i) y[i] = b[pivot_[i]];
  // Forward substitution (L has unit diagonal).
  for (std::size_t i = 0; i < n_; ++i) {
    double acc = y[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * y[j];
    y[i] = acc;
  }
  // Back substitution.
  for (std::size_t ii = n_; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n_; ++j) acc -= lu_(ii, j) * y[j];
    y[ii] = acc / lu_(ii, ii);
  }
  std::ranges::copy(y, b.begin());
}

}  // namespace mrsc::util
