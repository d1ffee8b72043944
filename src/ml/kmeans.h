// Lloyd's k-means with k-means++ seeding.
//
// Paper §6.4.3 clusters the PCA-projected fingerprints with k-means,
// picking k = 11 via the elbow method (Figures 3 & 4).  We implement the
// standard algorithm with a few deployment-grade details:
//   * k-means++ initialization with a configurable number of restarts,
//     keeping the run with the lowest inertia (sklearn's n_init);
//   * empty-cluster repair by re-seeding from the point farthest from its
//     centroid;
//   * deterministic behaviour given an Rng seed;
//   * row multiplicities (RowCounts): weighted Lloyd, w * D^2 seeding and
//     a count-weighted first pick, so a collapsed multiset clusters like
//     its expansion.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/matrix.h"
#include "util/rng.h"

namespace bp::ml {

struct KMeansConfig {
  std::size_t k = 8;
  int max_iterations = 300;
  int n_init = 4;           // independent k-means++ restarts
  double tolerance = 1e-6;  // relative centroid-shift convergence bound
  std::uint64_t seed = 42;
};

class KMeans {
 public:
  explicit KMeans(KMeansConfig config = {}) : config_(config) {}

  // Fit on `data` (rows = observations, row r repeated counts[r] times
  // when `counts` is given).  Requires data.rows() >= k.  Labels are
  // per data row; inertia and centroids weigh each row by its count.
  void fit(const Matrix& data, RowCounts counts = {});

  // Nearest-centroid assignment for each row.
  std::vector<std::size_t> predict(const Matrix& data) const;
  std::size_t predict_one(std::span<const double> point) const;
  // Assignment plus the squared distance to the winning centroid (the
  // audit trail's per-decision evidence); `distance2` may be null.
  std::size_t predict_one(std::span<const double> point,
                          double* distance2) const;

  bool fitted() const noexcept { return !centroids_.empty(); }
  const Matrix& centroids() const noexcept { return centroids_; }
  std::size_t k() const noexcept { return config_.k; }

  // Within-cluster sum of squares of the training run (a.k.a. inertia).
  double inertia() const noexcept { return inertia_; }

  // Training-set labels from the final iteration.
  const std::vector<std::size_t>& labels() const noexcept { return labels_; }

  // Reconstruct a fitted model from persisted centroids (model_io).
  static KMeans from_centroids(Matrix centroids, KMeansConfig config = {});

 private:
  struct RunResult {
    Matrix centroids;
    std::vector<std::size_t> labels;
    double inertia = 0.0;
  };

  RunResult run_once(const Matrix& data, RowCounts counts,
                     bp::util::Rng& rng) const;
  Matrix init_plus_plus(const Matrix& data, RowCounts counts,
                        bp::util::Rng& rng) const;

  KMeansConfig config_;
  Matrix centroids_;
  std::vector<std::size_t> labels_;
  double inertia_ = 0.0;
};

// Convenience: WCSS (inertia) after fitting k-means with each k in
// [k_begin, k_end]; used by the elbow-method benches (Figures 3 & 4).
std::vector<double> wcss_curve(const Matrix& data, std::size_t k_begin,
                               std::size_t k_end, std::uint64_t seed = 42);

// The paper's Figure 4 statistic: relative WCSS improvement
//   rel[k] = (wcss[k-1] - wcss[k]) / wcss[k-1]
// evaluated over a wcss curve indexed from k_begin.
std::vector<double> relative_wcss_drops(const std::vector<double>& wcss);

// The paper's Figure 4 *reading*: the first pronounced late-stage local
// peak of the relative-WCSS curve — the smallest k >= min_k whose drop is
// a local maximum of at least `threshold`.  Falls back to the largest
// late-stage drop when no peak clears the threshold.  `wcss[i]` is the
// inertia at k = k_begin + i.
std::size_t elbow_k(const std::vector<double>& wcss, std::size_t k_begin,
                    std::size_t min_k = 9, double threshold = 0.30);

}  // namespace bp::ml
