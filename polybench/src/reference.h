// Reference scorer: the benchmark's independent statement of what a
// verdict must be.
//
// It is built only from the parameters a model exposes (scaler(),
// pca(), kmeans(), cluster_table()) and recomputes a session's verdict
// the plain way: z-score each feature, project onto the principal
// components, take the nearest centroid, look the claimed UA up in the
// cluster table.  It shares no code with the serving kernel, so a
// kernel change that alters a verdict shows up as a mismatch.
//
// Near ties.  The kernel and this scorer may sum in different orders,
// so when the two nearest centroids are closer than kNearTieMargin
// (relative to the winning squared distance) either of the two is
// accepted as the predicted cluster; the flag must still follow from
// the cluster the verdict names.  Such verdicts are counted.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/polygraph.h"
#include "ua/user_agent.h"

namespace polybench {

struct ReferenceVerdict {
  std::uint32_t predicted_cluster = 0;
  std::uint32_t runner_up = 0;  // second-nearest centroid
  int expected_cluster = -1;    // the claimed UA's cluster; -1 unknown UA
  bool flagged = false;
  bool near_tie = false;  // the runner-up centroid is within the margin

  // Whether a served (cluster, flagged) pair agrees with this verdict.
  bool accepts(std::uint32_t cluster, bool served_flagged) const;
};

class ReferenceScorer {
 public:
  static constexpr double kNearTieMargin = 1e-9;

  explicit ReferenceScorer(const bp::core::Polygraph& model);

  ReferenceVerdict score(std::span<const std::int32_t> features,
                         const bp::ua::UserAgent& claimed) const;

 private:
  std::size_t features_ = 0;
  std::size_t components_ = 0;
  std::vector<double> means_;
  std::vector<double> stddevs_;
  std::vector<double> pca_mean_;
  std::vector<double> basis_;      // features_ x components_, row-major
  std::vector<double> centroids_;  // k x components_, row-major
  std::size_t k_ = 0;
  std::map<std::uint32_t, std::size_t> table_;  // UA key -> cluster
};

}  // namespace polybench
