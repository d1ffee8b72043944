#include "reference.h"

#include <limits>

namespace polybench {

ReferenceScorer::ReferenceScorer(const bp::core::Polygraph& model)
    : means_(model.scaler().means()),
      stddevs_(model.scaler().stddevs()),
      pca_mean_(model.pca().mean()),
      table_(model.cluster_table().entries()) {
  features_ = means_.size();
  components_ = model.pca().n_components();
  const bp::ml::Matrix& basis = model.pca().components();
  basis_.reserve(features_ * components_);
  for (std::size_t f = 0; f < features_; ++f) {
    for (std::size_t c = 0; c < components_; ++c) basis_.push_back(basis(f, c));
  }
  const bp::ml::Matrix& centroids = model.kmeans().centroids();
  k_ = centroids.rows();
  centroids_.reserve(k_ * components_);
  for (std::size_t j = 0; j < k_; ++j) {
    for (std::size_t c = 0; c < components_; ++c) {
      centroids_.push_back(centroids(j, c));
    }
  }
}

ReferenceVerdict ReferenceScorer::score(std::span<const std::int32_t> features,
                                        const bp::ua::UserAgent& claimed) const {
  std::vector<double> projected(components_, 0.0);
  for (std::size_t f = 0; f < features_ && f < features.size(); ++f) {
    const double z = (static_cast<double>(features[f]) - means_[f]) / stddevs_[f];
    const double centered = z - pca_mean_[f];
    for (std::size_t c = 0; c < components_; ++c) {
      projected[c] += centered * basis_[f * components_ + c];
    }
  }
  double best = std::numeric_limits<double>::infinity();
  double second = std::numeric_limits<double>::infinity();
  std::size_t best_cluster = 0;
  std::size_t second_cluster = 0;
  for (std::size_t j = 0; j < k_; ++j) {
    double d2 = 0.0;
    for (std::size_t c = 0; c < components_; ++c) {
      const double d = projected[c] - centroids_[j * components_ + c];
      d2 += d * d;
    }
    if (d2 < best) {
      second = best;
      second_cluster = best_cluster;
      best = d2;
      best_cluster = j;
    } else if (d2 < second) {
      second = d2;
      second_cluster = j;
    }
  }
  ReferenceVerdict verdict;
  verdict.predicted_cluster = static_cast<std::uint32_t>(best_cluster);
  verdict.runner_up = static_cast<std::uint32_t>(second_cluster);
  verdict.near_tie = k_ > 1 && second - best <= kNearTieMargin * (1.0 + best);
  const auto it = table_.find(claimed.key());
  if (it != table_.end()) verdict.expected_cluster = static_cast<int>(it->second);
  verdict.flagged = verdict.expected_cluster >= 0 &&
                    static_cast<std::size_t>(verdict.expected_cluster) != best_cluster;
  return verdict;
}

bool ReferenceVerdict::accepts(std::uint32_t cluster, bool served_flagged) const {
  if (cluster != predicted_cluster && !(near_tie && cluster == runner_up)) {
    return false;
  }
  const bool flag_for_cluster =
      expected_cluster >= 0 && static_cast<std::uint32_t>(expected_cluster) != cluster;
  return served_flagged == flag_for_cluster;
}

}  // namespace polybench
