// Dense row-major matrix of doubles.
//
// The machine-learning substrate of Browser Polygraph (scaling, PCA,
// k-means, isolation forests) operates on datasets of at most a few
// hundred thousand rows and a few hundred columns, so a simple contiguous
// row-major buffer is both the fastest and the simplest representation.
// No expression templates, no BLAS — the pipeline is dominated by the
// O(n*d*k) k-means passes which are written directly against row spans.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace bp::ml {

// Row multiplicities of a weighted fit: row r of the data stands for
// counts[r] identical observations, so a collapsed multiset (one row
// per distinct fingerprint) trains exactly like its expansion.  An
// empty span means every row counts once; an explicit span of ones
// gives bit-identical results, because every weighted sum multiplies
// by the weight (x * 1.0 == x) and every divisor is the count total.
using RowCounts = std::span<const std::size_t>;

inline double row_weight(RowCounts counts, std::size_t row) noexcept {
  return counts.empty() ? 1.0 : static_cast<double>(counts[row]);
}

// Number of observations `rows` data rows stand for.
std::size_t total_count(RowCounts counts, std::size_t rows) noexcept;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) noexcept {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const noexcept {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  std::span<const double> data() const noexcept { return data_; }

  // Append a row; the first appended row fixes the column count for an
  // empty matrix.
  void push_row(std::span<const double> values);

  // Keep only the rows whose index passes `keep[i] == true`.
  Matrix filter_rows(const std::vector<bool>& keep) const;

  // Keep only the listed columns, in the given order.
  Matrix select_columns(const std::vector<std::size_t>& cols) const;

  // C = this * other  (naive triple loop, cache-friendly ikj order).
  Matrix multiply(const Matrix& other) const;

  Matrix transposed() const;

  // Per-column mean / (population) standard deviation.  With `counts`,
  // row r stands for counts[r] identical observations (see RowCounts).
  std::vector<double> column_means(RowCounts counts = {}) const;
  std::vector<double> column_stddevs(const std::vector<double>& means,
                                     RowCounts counts = {}) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// Squared Euclidean distance between two equal-length vectors.
double squared_distance(std::span<const double> a,
                        std::span<const double> b) noexcept;

// Squared Euclidean distance with an early-exit bound: accumulation is
// abandoned as soon as the partial sum exceeds `bound`, returning that
// partial (> bound).  Callers comparing `result < bound` get exactly the
// same decision as with the full distance — if the partial already
// exceeds the bound, the full sum can only be larger — which is what
// the k-means assignment loops exploit (a nearest-centroid search only
// needs distances below the best seen so far).  When the distance is
// not abandoned the returned value is bit-identical to
// squared_distance(), so results stay deterministic.
double squared_distance_bounded(std::span<const double> a,
                                std::span<const double> b,
                                double bound) noexcept;

}  // namespace bp::ml
