// Tests the reference scorer against a toy model whose verdicts can be
// worked out by hand, and against Polygraph::score on the same model.
// Exit code 0 when every check holds.
//
//   scaler   means (10, 0), stddevs (2, 1)   z = ((f0 - 10) / 2, f1)
//   PCA      mean (0.5, 0), basis swaps axes  p = (z1, z0 - 0.5)
//   centroids c0 (0, 0), c1 (4, 0), c2 (0, 4)
//   table    Chrome 112 -> c0, Firefox 115 -> c1
#include <cstdio>
#include <vector>

#include "core/polygraph.h"
#include "reference.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bp::core::Polygraph toy_model() {
  bp::core::PolygraphConfig config;
  config.feature_indices = {0, 1};
  config.pca_components = 2;
  config.k = 3;
  bp::ml::Matrix basis(2, 2);
  basis(0, 1) = 1.0;
  basis(1, 0) = 1.0;
  bp::ml::Matrix centroids(3, 2);
  centroids(1, 0) = 4.0;
  centroids(2, 1) = 4.0;
  bp::core::ClusterTable table;
  table.assign({bp::ua::Vendor::kChrome, 112, bp::ua::Os::kWindows10}, 0);
  table.assign({bp::ua::Vendor::kFirefox, 115, bp::ua::Os::kWindows10}, 1);
  return bp::core::Polygraph::from_parts(
      config, bp::ml::StandardScaler::from_params({10.0, 0.0}, {2.0, 1.0}),
      bp::ml::Pca::from_params({0.5, 0.0}, {2.0, 1.0}, basis),
      bp::ml::KMeans::from_centroids(centroids), table);
}

}  // namespace

int main() {
  const bp::core::Polygraph model = toy_model();
  const polybench::ReferenceScorer reference(model);
  const bp::ua::UserAgent chrome{bp::ua::Vendor::kChrome, 112,
                                 bp::ua::Os::kWindows10};
  const bp::ua::UserAgent firefox{bp::ua::Vendor::kFirefox, 115,
                                  bp::ua::Os::kWindows10};
  const bp::ua::UserAgent edge{bp::ua::Vendor::kEdge, 100,
                               bp::ua::Os::kWindows10};

  // (11, 0): p = (0, 0), on c0.
  const std::vector<std::int32_t> at_c0 = {11, 0};
  auto v = reference.score(at_c0, chrome);
  check(v.predicted_cluster == 0 && !v.flagged && v.expected_cluster == 0 &&
            !v.near_tie,
        "(11,0) Chrome 112 is c0, expected c0, not flagged");
  v = reference.score(at_c0, firefox);
  check(v.predicted_cluster == 0 && v.flagged && v.expected_cluster == 1,
        "(11,0) Firefox 115 is flagged (expects c1)");
  v = reference.score(at_c0, edge);
  check(v.expected_cluster == -1 && !v.flagged,
        "an unknown UA is never flagged");

  // (11, 5): p = (5, 0), d2 = 1 to c1, 25 to c0.
  const std::vector<std::int32_t> near_c1 = {11, 5};
  v = reference.score(near_c1, chrome);
  check(v.predicted_cluster == 1 && v.runner_up == 0 && v.flagged,
        "(11,5) is c1 with c0 runner-up; Chrome 112 flagged");
  check(v.accepts(1, true) && !v.accepts(0, false) && !v.accepts(1, false),
        "outside a tie only the nearest cluster and its flag are accepted");

  // (19, 1): p = (1, 4), d2 = 1 to c2, 17 to c0, 25 to c1.
  const std::vector<std::int32_t> near_c2 = {19, 1};
  v = reference.score(near_c2, firefox);
  check(v.predicted_cluster == 2 && v.runner_up == 0 && v.flagged,
        "(19,1) is c2 with c0 runner-up; Firefox 115 flagged");

  // (11, 2): p = (2, 0), d2 = 4 to both c0 and c1.
  const std::vector<std::int32_t> tie = {11, 2};
  v = reference.score(tie, chrome);
  check(v.near_tie, "(11,2) is a tie between c0 and c1");
  check(v.accepts(0, false) && v.accepts(1, true),
        "a tie accepts either cluster with the flag that follows from it");
  check(!v.accepts(1, false) && !v.accepts(0, true) && !v.accepts(2, true),
        "a tie still rejects a wrong flag or a third cluster");

  // The model's own scorer agrees outside ties.
  for (const auto* features : {&at_c0, &near_c1, &near_c2}) {
    for (const auto& claimed : {chrome, firefox, edge}) {
      const auto ref = reference.score(*features, claimed);
      bp::core::ScoringScratch scratch;
      const bp::core::Detection served = model.score(
          std::span<const std::int32_t>(*features), claimed, scratch);
      check(ref.accepts(static_cast<std::uint32_t>(served.predicted_cluster),
                        served.flagged),
            "Polygraph::score agrees with the reference on the toy model");
    }
  }

  if (failures == 0) std::printf("reference scorer: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
