#include "ml/scaler.h"

#include <cassert>

#include "util/parallel.h"

namespace bp::ml {

namespace {

constexpr std::size_t kRowGrain = 4096;

}  // namespace

void StandardScaler::fit(const Matrix& data) {
  fit(data, std::vector<bool>(data.cols(), true));
}

void StandardScaler::fit(const Matrix& data,
                         const std::vector<bool>& scale_column,
                         RowCounts counts) {
  assert(scale_column.size() == data.cols());
  means_ = data.column_means(counts);
  stddevs_ = data.column_stddevs(means_, counts);
  for (std::size_t c = 0; c < data.cols(); ++c) {
    if (!scale_column[c]) {
      means_[c] = 0.0;
      stddevs_[c] = 1.0;
    } else if (stddevs_[c] == 0.0) {
      stddevs_[c] = 1.0;  // constant column: center only
    }
  }
}

Matrix StandardScaler::transform(const Matrix& data) const {
  assert(fitted() && data.cols() == means_.size());
  Matrix out(data.rows(), data.cols());
  bp::util::parallel_for(
      std::size_t{0}, data.rows(), kRowGrain,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          transform_row(data.row(r), out.row(r));
        }
      });
  return out;
}

Matrix StandardScaler::fit_transform(const Matrix& data) {
  fit(data);
  return transform(data);
}

void StandardScaler::transform_row(std::span<const double> in,
                                   std::span<double> out) const {
  assert(fitted() && in.size() == means_.size() && out.size() == in.size());
  for (std::size_t c = 0; c < in.size(); ++c) {
    out[c] = (in[c] - means_[c]) / stddevs_[c];
  }
}

StandardScaler StandardScaler::from_params(std::vector<double> means,
                                           std::vector<double> stddevs) {
  assert(means.size() == stddevs.size());
  StandardScaler scaler;
  scaler.means_ = std::move(means);
  scaler.stddevs_ = std::move(stddevs);
  return scaler;
}

Matrix StandardScaler::inverse_transform(const Matrix& data) const {
  assert(fitted() && data.cols() == means_.size());
  Matrix out(data.rows(), data.cols());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const auto src = data.row(r);
    const auto dst = out.row(r);
    for (std::size_t c = 0; c < data.cols(); ++c) {
      dst[c] = src[c] * stddevs_[c] + means_[c];
    }
  }
  return out;
}

}  // namespace bp::ml
