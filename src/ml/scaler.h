// StandardScaler — per-feature zero-mean / unit-variance scaling.
//
// Paper §6.4.1: "Some of our features had large values which could skew
// the results of our model towards them.  Therefore, we used Standard
// Scaler to scale some of our deviation-based attributes.  The time-based
// attributes were already in the binary format which was suitable."
//
// We support per-column opt-out so the binary time-based features can be
// passed through untouched, exactly as deployed.
#pragma once

#include <vector>

#include "ml/matrix.h"

namespace bp::ml {

class StandardScaler {
 public:
  // Fit on all columns.
  void fit(const Matrix& data);

  // Fit, but leave columns with `scale_column[c] == false` untouched
  // (identity transform).  `scale_column` must have data.cols() entries.
  // With `counts`, the moments are those of the expanded multiset (row
  // r weighted counts[r]; see RowCounts).
  void fit(const Matrix& data, const std::vector<bool>& scale_column,
           RowCounts counts = {});

  // Apply the fitted transform.  Columns whose training standard
  // deviation was zero are centered only (sklearn behaviour).
  Matrix transform(const Matrix& data) const;
  Matrix fit_transform(const Matrix& data);

  // Single-row transform into a caller-owned buffer (`out.size() ==
  // in.size() == cols`).  Allocation-free: the serving tier calls this
  // per session under its latency budget.  `in` and `out` may alias.
  void transform_row(std::span<const double> in, std::span<double> out) const;

  // Invert the transform (used by tests to verify round-tripping).
  Matrix inverse_transform(const Matrix& data) const;

  bool fitted() const noexcept { return !means_.empty(); }
  const std::vector<double>& means() const noexcept { return means_; }
  const std::vector<double>& stddevs() const noexcept { return stddevs_; }

  // Reconstruct a fitted scaler from persisted parameters (model_io).
  static StandardScaler from_params(std::vector<double> means,
                                    std::vector<double> stddevs);

 private:
  std::vector<double> means_;
  std::vector<double> stddevs_;  // 1.0 entries encode "pass through"
};

}  // namespace bp::ml
