// Row-count weighting (ml::RowCounts) across the training stages.
//
// Two contracts:
//   * unit weights change nothing: every stage fit without counts (or
//     with all counts 1) reproduces, bit for bit, the results the
//     unweighted implementation gave before weighting existed — pinned
//     here as digests of the raw IEEE bits on a fixed fixture;
//   * a weighted fit on distinct rows agrees with the unweighted fit on
//     the explicitly expanded rows (exactly for the isolation forest,
//     to rounding for the floating-point sums).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/isolation_forest.h"
#include "ml/kmeans.h"
#include "ml/metrics.h"
#include "ml/pca.h"
#include "ml/scaler.h"
#include "util/rng.h"

namespace bp {
namespace {

// Three separated blobs in 5-D with integer-rounded coordinates (so
// rows repeat, as coarse fingerprints do), 5,000 rows: several chunks
// of every reduction grain.
ml::Matrix golden_fixture() {
  util::Rng rng(20240611);
  ml::Matrix data;
  const double centers[3][5] = {{0, 0, 0, 1, 0},
                                {12, 3, -4, 0, 1},
                                {-6, 9, 5, 1, 1}};
  for (std::size_t i = 0; i < 5000; ++i) {
    const auto& c = centers[i % 3];
    std::vector<double> row(5);
    for (std::size_t j = 0; j < 5; ++j) {
      row[j] = j >= 3 ? c[j] : std::round(c[j] + rng.normal(0.0, 1.5));
    }
    if (i % 997 == 0) row[0] += 40.0;  // a few far outliers
    data.push_row(row);
  }
  return data;
}

std::uint64_t bits_digest(std::span<const double> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::uint64_t labels_digest(const std::vector<std::size_t>& labels) {
  const std::vector<double> as_double(labels.begin(), labels.end());
  return bits_digest(as_double);
}

// Digests of the unweighted implementation's outputs on golden_fixture()
// (recorded before row counts were introduced).
constexpr std::uint64_t kScalerMeans = 0x3a3313bc876cb126ULL;
constexpr std::uint64_t kScalerStddevs = 0x4dcbfb8f8031ecb9ULL;
constexpr std::uint64_t kPcaMean = 0x44219ccc6f5ecafbULL;
constexpr std::uint64_t kPcaEigenvalues = 0x599dbc56fb270733ULL;
constexpr std::uint64_t kPcaComponents = 0xc8d8768b89da098cULL;
constexpr std::uint64_t kKMeansCentroids = 0xefcb80814d6a901dULL;
constexpr std::uint64_t kKMeansInertia = 0x601c1fa96b1df9d2ULL;
constexpr std::uint64_t kKMeansLabels = 0xaf828cef8d13eb38ULL;
constexpr std::uint64_t kForestScores = 0xa316efd3206fe4b4ULL;
const std::vector<std::size_t> kForestDropped = {655,  997,  1461, 1793, 2202,
                                                 2754, 3184, 4003, 4222, 4272};

class UnitWeights : public ::testing::TestWithParam<bool> {
 protected:
  // The parameter selects an explicit all-ones count vector instead of
  // the empty span.
  ml::RowCounts counts() const {
    return GetParam() ? ml::RowCounts(ones_) : ml::RowCounts{};
  }
  const ml::Matrix data_ = golden_fixture();
  const std::vector<std::size_t> ones_ =
      std::vector<std::size_t>(data_.rows(), 1);
};

TEST_P(UnitWeights, ScalerMatchesUnweightedBits) {
  ml::StandardScaler scaler;
  scaler.fit(data_, {true, true, false, true, true}, counts());
  EXPECT_EQ(bits_digest(scaler.means()), kScalerMeans);
  EXPECT_EQ(bits_digest(scaler.stddevs()), kScalerStddevs);
}

TEST_P(UnitWeights, PcaMatchesUnweightedBits) {
  ml::Pca pca;
  pca.fit(data_, 3, counts());
  EXPECT_EQ(bits_digest(pca.mean()), kPcaMean);
  EXPECT_EQ(bits_digest(pca.eigenvalues()), kPcaEigenvalues);
  EXPECT_EQ(bits_digest(pca.components().data()), kPcaComponents);
}

TEST_P(UnitWeights, KMeansMatchesUnweightedBits) {
  ml::KMeansConfig config;
  config.k = 3;
  config.seed = 9;
  config.n_init = 2;
  ml::KMeans kmeans(config);
  kmeans.fit(data_, counts());
  const double inertia = kmeans.inertia();
  EXPECT_EQ(bits_digest(kmeans.centroids().data()), kKMeansCentroids);
  EXPECT_EQ(bits_digest(std::span<const double>(&inertia, 1)), kKMeansInertia);
  EXPECT_EQ(labels_digest(kmeans.labels()), kKMeansLabels);
}

TEST_P(UnitWeights, IsolationForestMatchesUnweightedBits) {
  ml::IsolationForestConfig config;
  config.seed = 5;
  ml::IsolationForest forest(config);
  forest.fit(data_, counts());
  EXPECT_EQ(bits_digest(forest.score(data_)), kForestScores);

  const std::vector<bool> keep = forest.inlier_mask(data_, 0.002);
  const std::vector<std::size_t> kept = forest.inlier_mask(data_, 0.002, ones_);
  std::vector<std::size_t> dropped;
  for (std::size_t i = 0; i < keep.size(); ++i) {
    EXPECT_EQ(kept[i], keep[i] ? 1u : 0u) << "row " << i;
    if (!keep[i]) dropped.push_back(i);
  }
  EXPECT_EQ(dropped, kForestDropped);
}

INSTANTIATE_TEST_SUITE_P(EmptyOrOnes, UnitWeights, ::testing::Bool());

// ---------------- weighted rows vs their explicit expansion ----------------

struct Multiset {
  ml::Matrix distinct;
  std::vector<std::size_t> counts;
  ml::Matrix expanded;  // distinct row r repeated counts[r] times, in order
};

// Distinct integer points around three centers with uneven counts,
// like a collapsed fingerprint corpus (a few heavy entries, many light).
Multiset make_multiset() {
  util::Rng rng(77);
  Multiset m;
  const double centers[3][4] = {{0, 0, 0, 0}, {9, 1, -3, 2}, {-4, 8, 4, -1}};
  for (std::size_t i = 0; i < 90; ++i) {
    const auto& c = centers[i % 3];
    std::vector<double> row(4);
    for (std::size_t j = 0; j < 4; ++j) {
      row[j] = c[j] + static_cast<double>(i / 3 % 5) * (j == i % 4 ? 1 : 0) +
               0.25 * static_cast<double>(j * (i / 15));
    }
    const std::size_t count = i % 7 == 0 ? 40 + i : 1 + rng.below(6);
    m.distinct.push_row(row);
    m.counts.push_back(count);
    for (std::size_t k = 0; k < count; ++k) m.expanded.push_row(row);
  }
  return m;
}

void expect_relative(std::span<const double> weighted,
                     std::span<const double> expanded, double tolerance) {
  ASSERT_EQ(weighted.size(), expanded.size());
  for (std::size_t i = 0; i < weighted.size(); ++i) {
    const double scale = std::max(1.0, std::abs(expanded[i]));
    EXPECT_NEAR(weighted[i], expanded[i], tolerance * scale) << "entry " << i;
  }
}

TEST(WeightedRows, ScalerMomentsMatchExpansion) {
  const Multiset m = make_multiset();
  const std::vector<bool> all(4, true);
  ml::StandardScaler weighted;
  weighted.fit(m.distinct, all, m.counts);
  ml::StandardScaler expanded;
  expanded.fit(m.expanded, all);
  expect_relative(weighted.means(), expanded.means(), 1e-12);
  expect_relative(weighted.stddevs(), expanded.stddevs(), 1e-12);
}

TEST(WeightedRows, PcaMatchesExpansion) {
  const Multiset m = make_multiset();
  ml::Pca weighted;
  weighted.fit(m.distinct, 3, m.counts);
  ml::Pca expanded;
  expanded.fit(m.expanded, 3);
  expect_relative(weighted.mean(), expanded.mean(), 1e-12);
  expect_relative(weighted.eigenvalues(), expanded.eigenvalues(), 1e-12);
  // Eigenvectors are defined up to sign; align each column first.
  for (std::size_t j = 0; j < 3; ++j) {
    double dot = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
      dot += weighted.components()(i, j) * expanded.components()(i, j);
    }
    const double sign = dot < 0.0 ? -1.0 : 1.0;
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_NEAR(sign * weighted.components()(i, j),
                  expanded.components()(i, j), 1e-9);
    }
  }
}

TEST(WeightedRows, KMeansMatchesExpansion) {
  const Multiset m = make_multiset();
  ml::KMeansConfig config;
  config.k = 3;
  config.seed = 11;
  ml::KMeans weighted(config);
  weighted.fit(m.distinct, m.counts);
  ml::KMeans expanded(config);
  expanded.fit(m.expanded);

  std::size_t row = 0;
  for (std::size_t e = 0; e < m.counts.size(); ++e) {
    for (std::size_t k = 0; k < m.counts[e]; ++k, ++row) {
      ASSERT_EQ(weighted.labels()[e], expanded.labels()[row]) << "entry " << e;
    }
  }
  EXPECT_NEAR(weighted.inertia(), expanded.inertia(),
              1e-9 * expanded.inertia());
  expect_relative(weighted.centroids().data(), expanded.centroids().data(),
                  1e-12);
}

TEST(WeightedRows, IsolationForestGrowsTheExpansionsTrees) {
  const Multiset m = make_multiset();
  ml::IsolationForest weighted;
  weighted.fit(m.distinct, m.counts);
  ml::IsolationForest expanded;
  expanded.fit(m.expanded);
  // Same sampled observations, same split draws: identical trees, so
  // the scores agree exactly.
  EXPECT_EQ(weighted.score(m.distinct), expanded.score(m.distinct));
}

TEST(WeightedRows, ClusteringAccuracyCountsExpandedRows) {
  const std::vector<std::uint32_t> labels = {7, 7, 7, 9, 9};
  const std::vector<std::size_t> clusters = {0, 1, 1, 2, 0};
  const std::vector<std::size_t> counts = {10, 3, 4, 5, 6};
  std::vector<std::uint32_t> expanded_labels;
  std::vector<std::size_t> expanded_clusters;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    expanded_labels.insert(expanded_labels.end(), counts[i], labels[i]);
    expanded_clusters.insert(expanded_clusters.end(), counts[i], clusters[i]);
  }
  const ml::ClusterAccuracy weighted =
      ml::clustering_accuracy(labels, clusters, counts);
  const ml::ClusterAccuracy expanded =
      ml::clustering_accuracy(expanded_labels, expanded_clusters);
  EXPECT_EQ(weighted.majority, expanded.majority);
  EXPECT_EQ(weighted.majority.at(7), 0u);  // 10 rows beat 3 + 4 split
  EXPECT_EQ(weighted.majority.at(9), 0u);  // 6 beat 5
  EXPECT_EQ(weighted.total_rows, 28u);
  EXPECT_EQ(weighted.correct_rows, expanded.correct_rows);
  EXPECT_EQ(weighted.row_accuracy, expanded.row_accuracy);
}

// The filter tie rule: entries leave in (score descending, index
// ascending) order and the boundary entry keeps what the quota spares.
TEST(WeightedRows, InlierMaskPartiallyDropsTheBoundaryEntry) {
  util::Rng rng(5);
  ml::Matrix data;
  std::vector<std::size_t> counts;
  for (std::size_t i = 0; i < 200; ++i) {
    data.push_row(
        std::vector<double>{rng.normal(), rng.normal(), rng.normal()});
    counts.push_back(1);
  }
  // Two copies of one far point: equal, and the highest, scores.
  data.push_row(std::vector<double>{60.0, 60.0, 60.0});
  data.push_row(std::vector<double>{60.0, 60.0, 60.0});
  counts.push_back(3);
  counts.push_back(3);

  ml::IsolationForest forest;
  forest.fit(data, counts);
  const std::vector<double> scores = forest.score(data);
  ASSERT_EQ(scores[200], scores[201]);
  for (std::size_t i = 0; i < 200; ++i) ASSERT_LT(scores[i], scores[200]);

  // 206 observations; ceil(3.5) = 4 to drop: all 3 of entry 200 (the
  // lower index of the tie), then 1 of entry 201's 3.
  const std::vector<std::size_t> kept =
      forest.inlier_mask(data, 3.5 / 206.0, counts);
  EXPECT_EQ(kept[200], 0u);
  EXPECT_EQ(kept[201], 2u);
  for (std::size_t i = 0; i < 200; ++i) EXPECT_EQ(kept[i], 1u) << "row " << i;

  // A quota larger than the top entries spills into the next scores.
  const std::vector<std::size_t> more =
      forest.inlier_mask(data, 8.0 / 206.0, counts);
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < more.size(); ++i) dropped += counts[i] - more[i];
  EXPECT_EQ(dropped, 8u);
  EXPECT_EQ(more[200] + more[201], 0u);
}

}  // namespace
}  // namespace bp
