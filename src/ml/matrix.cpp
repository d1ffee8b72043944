#include "ml/matrix.h"

#include <cmath>

#include "util/parallel.h"

namespace bp::ml {

namespace {

// Row-blocking grain for the column-moment reductions.  Fixed (never a
// function of the thread count) so the chunk-ordered merges produce the
// same floating-point sums at any parallelism; small matrices take the
// single-chunk path and match the historical serial results exactly.
constexpr std::size_t kMomentGrain = 4096;

}  // namespace

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  Matrix m;
  for (const auto& r : rows) m.push_row(r);
  return m;
}

void Matrix::push_row(std::span<const double> values) {
  if (rows_ == 0 && cols_ == 0) cols_ = values.size();
  assert(values.size() == cols_);
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

Matrix Matrix::filter_rows(const std::vector<bool>& keep) const {
  assert(keep.size() == rows_);
  Matrix out;
  out.cols_ = cols_;
  std::size_t kept = 0;
  for (bool k : keep) kept += k ? 1 : 0;
  out.data_.reserve(kept * cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    if (!keep[r]) continue;
    const auto src = row(r);
    out.data_.insert(out.data_.end(), src.begin(), src.end());
    ++out.rows_;
  }
  return out;
}

Matrix Matrix::select_columns(const std::vector<std::size_t>& cols) const {
  Matrix out(rows_, cols.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t j = 0; j < cols.size(); ++j) {
      assert(cols[j] < cols_);
      out(r, j) = (*this)(r, cols[j]);
    }
  }
  return out;
}

Matrix Matrix::multiply(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      const auto brow = other.row(k);
      const auto orow = out.row(i);
      for (std::size_t j = 0; j < other.cols_; ++j) {
        orow[j] += a * brow[j];
      }
    }
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      out(c, r) = (*this)(r, c);
    }
  }
  return out;
}

std::vector<double> Matrix::column_means(RowCounts counts) const {
  assert(counts.empty() || counts.size() == rows_);
  std::vector<double> means(cols_, 0.0);
  if (rows_ == 0) return means;
  means = bp::util::parallel_reduce(
      std::size_t{0}, rows_, kMomentGrain, std::move(means),
      [&](std::size_t begin, std::size_t end) {
        std::vector<double> sums(cols_, 0.0);
        for (std::size_t r = begin; r < end; ++r) {
          const auto src = row(r);
          const double w = row_weight(counts, r);
          for (std::size_t c = 0; c < cols_; ++c) sums[c] += w * src[c];
        }
        return sums;
      },
      [](std::vector<double>& acc, std::vector<double>&& part) {
        for (std::size_t c = 0; c < acc.size(); ++c) acc[c] += part[c];
      });
  const double total = static_cast<double>(total_count(counts, rows_));
  for (double& m : means) m /= total;
  return means;
}

std::vector<double> Matrix::column_stddevs(const std::vector<double>& means,
                                           RowCounts counts) const {
  assert(means.size() == cols_);
  assert(counts.empty() || counts.size() == rows_);
  std::vector<double> var(cols_, 0.0);
  if (rows_ == 0) return var;
  var = bp::util::parallel_reduce(
      std::size_t{0}, rows_, kMomentGrain, std::move(var),
      [&](std::size_t begin, std::size_t end) {
        std::vector<double> sums(cols_, 0.0);
        for (std::size_t r = begin; r < end; ++r) {
          const auto src = row(r);
          const double w = row_weight(counts, r);
          for (std::size_t c = 0; c < cols_; ++c) {
            const double d = src[c] - means[c];
            sums[c] += w * (d * d);
          }
        }
        return sums;
      },
      [](std::vector<double>& acc, std::vector<double>&& part) {
        for (std::size_t c = 0; c < acc.size(); ++c) acc[c] += part[c];
      });
  const double total = static_cast<double>(total_count(counts, rows_));
  for (double& v : var) v = std::sqrt(v / total);
  return var;
}

std::size_t total_count(RowCounts counts, std::size_t rows) noexcept {
  if (counts.empty()) return rows;
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  return total;
}

double squared_distance(std::span<const double> a,
                        std::span<const double> b) noexcept {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

double squared_distance_bounded(std::span<const double> a,
                                std::span<const double> b,
                                double bound) noexcept {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
    if (sum > bound) return sum;  // abandoned: caller only needs >= bound
  }
  return sum;
}

}  // namespace bp::ml
