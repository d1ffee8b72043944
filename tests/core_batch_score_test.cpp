// Scoring equivalence.  Every Polygraph scoring entry point is a call
// into one SoA kernel (a single-row score is a 1-row score_batch), so
// the suite pins that kernel two ways:
//   * golden digests of the Detection bits, recorded from the scalar
//     scale -> project -> nearest-centroid chain the kernel replaced,
//     for panels spanning sub-block, block-boundary and multi-block
//     sizes, on both element types, and for hand-built models that
//     force the edge cases the kernel's reasoning depends on
//     (exact-zero PCA contributions, centroid distance ties, extreme
//     int32 values);
//   * a per-row bit check against a reference composed from the
//     model's public row primitives (scaler(), pca(), kmeans(),
//     cluster_table()).
//
// Engine-level coverage lives at the bottom: a ScoringEngine whose
// workers drain through the kernel must answer with the same bits as
// the reference, and the degraded / deadline paths must be unaffected.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "core/polygraph.h"
#include "serve/degraded.h"
#include "serve/model_registry.h"
#include "serve/scoring_engine.h"
#include "traffic/session_generator.h"
#include "util/parallel.h"

namespace bp::core {
namespace {

struct SharedModel {
  traffic::Dataset data;
  Polygraph model;
};

const SharedModel& shared() {
  static const SharedModel* instance = [] {
    auto* s = new SharedModel{traffic::Dataset{}, Polygraph{}};
    traffic::TrafficConfig config;
    config.n_sessions = 20'000;
    traffic::SessionGenerator gen(config);
    s->data = gen.generate(traffic::experiment_feature_indices());
    const ml::Matrix features =
        s->data.feature_matrix(s->model.config().feature_indices);
    std::vector<ua::UserAgent> uas;
    for (const auto& r : s->data.records()) uas.push_back(r.claimed);
    s->model.train(features, uas);
    return s;
  }();
  return *instance;
}

// FNV-1a over 64-bit words; a Detection contributes every field, the
// distance through its bit pattern.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const Detection& d) {
    add(d.predicted_cluster);
    add(d.expected_cluster.has_value()
            ? static_cast<std::uint64_t>(*d.expected_cluster)
            : ~std::uint64_t{0});
    add(d.flagged ? 1u : 0u);
    add(static_cast<std::uint64_t>(static_cast<std::int64_t>(d.risk_factor)));
    add(std::bit_cast<std::uint64_t>(d.centroid_distance2));
  }
};

std::uint64_t digest_of(const std::vector<Detection>& detections) {
  Digest digest;
  for (const Detection& d : detections) digest.add(d);
  return digest.h;
}

// Golden digests, recorded from the scalar scoring chain that preceded
// the single kernel (the verdicts must not move).
struct PanelGolden {
  std::size_t n;
  std::uint64_t int32;
  std::uint64_t dbl;
};
constexpr PanelGolden kPanelGoldens[] = {
    {1, 0x86b1d558bf83df1aULL, 0xdf5edcb9e258f0a3ULL},
    {2, 0x259dde70ad55de2dULL, 0xc4ce072983701e9aULL},
    {17, 0xf27e8ea3ad8a5fd0ULL, 0x7306edb9a1e57a37ULL},
    {64, 0x061b4c71f8974065ULL, 0xe3630c05132b6efaULL},
    {1000, 0x5b5fda918f28f246ULL, 0xc65fe046f0822fa1ULL},
};
constexpr std::uint64_t kTinyZeroGolden = 0xf4c8fc2258c99fefULL;
constexpr std::uint64_t kTinyTiesGolden = 0x109db02a470e597dULL;
constexpr std::uint64_t kTinyExtremeGolden = 0x7e6b0a9f31c35f89ULL;
// predict_clusters labels over the whole 20k-session corpus.
constexpr std::uint64_t kCorpusLabelsGolden = 0x5599dc3e10e2f801ULL;

std::uint64_t panel_golden(std::size_t n, bool int32) {
  for (const PanelGolden& g : kPanelGoldens) {
    if (g.n == n) return int32 ? g.int32 : g.dbl;
  }
  ADD_FAILURE() << "no golden for panel size " << n;
  return 0;
}

// Bit-level Detection comparison: the double goes through its bit
// pattern, so a -0.0 vs +0.0 or NaN-payload divergence would fail.
void expect_bit_identical(const Detection& batch, const Detection& reference,
                          std::size_t row) {
  EXPECT_EQ(batch.predicted_cluster, reference.predicted_cluster)
      << "row " << row;
  EXPECT_EQ(batch.expected_cluster, reference.expected_cluster)
      << "row " << row;
  EXPECT_EQ(batch.flagged, reference.flagged) << "row " << row;
  EXPECT_EQ(batch.risk_factor, reference.risk_factor) << "row " << row;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(batch.centroid_distance2),
            std::bit_cast<std::uint64_t>(reference.centroid_distance2))
      << "row " << row << ": " << batch.centroid_distance2 << " vs "
      << reference.centroid_distance2;
}

// The reference scorer, composed from the model's public row
// primitives: StandardScaler::transform_row, Pca::transform_row (which
// skips exactly-zero centered values), KMeans::predict_one (early-exit
// nearest centroid), then the cluster table and Algorithm 1.
template <typename T>
Detection reference_score(const Polygraph& model, std::span<const T> row,
                          const ua::UserAgent& claimed) {
  const std::vector<double> raw(row.begin(), row.end());
  std::vector<double> scaled(raw.size());
  std::vector<double> projected(model.pca().n_components());
  model.scaler().transform_row(raw, scaled);
  model.pca().transform_row(scaled, projected);
  Detection detection;
  detection.predicted_cluster =
      model.kmeans().predict_one(projected, &detection.centroid_distance2);
  detection.expected_cluster = model.cluster_table().expected_cluster(claimed);
  if (detection.expected_cluster.has_value() &&
      *detection.expected_cluster != detection.predicted_cluster) {
    detection.flagged = true;
    detection.risk_factor =
        model.risk_factor(claimed, detection.predicted_cluster);
  }
  return detection;
}

// Random panel: a mix of realistic generated sessions and uniformly
// random rows (including values no browser would ever emit), with
// claims drawn from seen and unseen UAs.
struct Panel {
  std::vector<std::vector<std::int32_t>> rows;
  std::vector<ua::UserAgent> claims;
};

Panel make_panel(std::size_t n, std::uint64_t seed) {
  const auto& s = shared();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int32_t> noise(-1000, 1000);
  std::uniform_int_distribution<int> version(1, 200);
  const auto& indices = s.model.config().feature_indices;
  const std::size_t d = indices.size();
  // Records store features in stored_indices() order; the model's
  // feature_indices are candidate-catalog ids, so map id -> position
  // (the same translation Dataset::feature_matrix does).
  const auto& stored = s.data.stored_indices();
  std::vector<std::size_t> cols(d);
  for (std::size_t j = 0; j < d; ++j) {
    const auto it = std::find(stored.begin(), stored.end(), indices[j]);
    EXPECT_NE(it, stored.end()) << "model feature " << indices[j]
                                << " not stored in the dataset";
    cols[j] = static_cast<std::size_t>(it - stored.begin());
  }
  Panel panel;
  panel.rows.reserve(n);
  panel.claims.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 3 != 2) {
      const auto& record = s.data.records()[rng() % s.data.records().size()];
      // Score inputs are the model's selected columns, not the raw
      // 42-wide record vector.
      std::vector<std::int32_t> row(d);
      for (std::size_t j = 0; j < d; ++j) row[j] = record.features[cols[j]];
      panel.rows.push_back(std::move(row));
      panel.claims.push_back(record.claimed);
    } else {
      std::vector<std::int32_t> row(d);
      for (auto& v : row) v = noise(rng);
      panel.rows.push_back(std::move(row));
      // Unseen UA versions exercise the nullopt expected_cluster path.
      panel.claims.push_back(
          {rng() % 2 == 0 ? ua::Vendor::kChrome : ua::Vendor::kFirefox,
           version(rng), ua::Os::kWindows10});
    }
  }
  return panel;
}

std::vector<Detection> reference_panel(const Polygraph& model,
                                       const Panel& panel) {
  std::vector<Detection> out;
  out.reserve(panel.rows.size());
  for (std::size_t i = 0; i < panel.rows.size(); ++i) {
    out.push_back(reference_score(
        model, std::span<const std::int32_t>(panel.rows[i]), panel.claims[i]));
  }
  return out;
}

class BatchScoreSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchScoreSizes, BitIdenticalToScalarInt32) {
  const std::size_t n = GetParam();
  const Panel panel = make_panel(n, 0xb17c0de + n);
  const auto& model = shared().model;

  std::vector<std::span<const std::int32_t>> rows;
  for (const auto& row : panel.rows) rows.emplace_back(row);
  std::vector<Detection> batch(n);
  BatchScratch scratch;
  model.score_batch(std::span<const std::span<const std::int32_t>>(rows),
                    std::span<const ua::UserAgent>(panel.claims),
                    std::span<Detection>(batch), scratch);
  EXPECT_EQ(digest_of(batch), panel_golden(n, /*int32=*/true));

  // The single-row entry point is a 1-row batch: same bits.
  ScoringScratch row_scratch;
  const std::vector<Detection> reference = reference_panel(model, panel);
  for (std::size_t i = 0; i < n; ++i) {
    expect_bit_identical(batch[i], reference[i], i);
    expect_bit_identical(
        model.score(std::span<const std::int32_t>(panel.rows[i]),
                    panel.claims[i], row_scratch),
        reference[i], i);
  }
}

TEST_P(BatchScoreSizes, BitIdenticalToScalarDouble) {
  const std::size_t n = GetParam();
  const Panel panel = make_panel(n, 0xd0b1e + n);
  const auto& model = shared().model;

  std::vector<std::vector<double>> wide;
  wide.reserve(n);
  for (const auto& row : panel.rows) {
    wide.emplace_back(row.begin(), row.end());
  }
  std::vector<std::span<const double>> rows;
  for (const auto& row : wide) rows.emplace_back(row);
  std::vector<Detection> batch(n);
  BatchScratch scratch;
  model.score_batch(std::span<const std::span<const double>>(rows),
                    std::span<const ua::UserAgent>(panel.claims),
                    std::span<Detection>(batch), scratch);
  EXPECT_EQ(digest_of(batch), panel_golden(n, /*int32=*/false));

  for (std::size_t i = 0; i < n; ++i) {
    const Detection reference = reference_score(
        model, std::span<const double>(wide[i]), panel.claims[i]);
    expect_bit_identical(batch[i], reference, i);
    expect_bit_identical(
        model.score(std::span<const double>(wide[i]), panel.claims[i]),
        reference, i);
  }
}

// N spans sub-block (1, 2, 17), exactly one block (64), and many blocks
// with a ragged tail (1000 = 15*64 + 40).
INSTANTIATE_TEST_SUITE_P(Panels, BatchScoreSizes,
                         ::testing::Values(1u, 2u, 17u, 64u, 1000u));

TEST(BatchScore, ScratchReuseAcrossPanelsStaysIdentical) {
  // One scratch across differently-sized panels (and so different lane
  // counts): stale lanes from a larger earlier batch must never leak
  // into a smaller later one.
  const auto& model = shared().model;
  BatchScratch scratch;
  for (const std::size_t n : {64u, 3u, 128u, 1u, 17u}) {
    const Panel panel = make_panel(n, 0x5eed + n);
    std::vector<std::span<const std::int32_t>> rows;
    for (const auto& row : panel.rows) rows.emplace_back(row);
    std::vector<Detection> batch(n);
    model.score_batch(std::span<const std::span<const std::int32_t>>(rows),
                      std::span<const ua::UserAgent>(panel.claims),
                      std::span<Detection>(batch), scratch);
    const std::vector<Detection> reference = reference_panel(model, panel);
    for (std::size_t i = 0; i < n; ++i) {
      expect_bit_identical(batch[i], reference[i], i);
    }
  }
}

TEST(BatchScore, PredictClustersIsThreadCountInvariantAndGolden) {
  // The drift module labels whole corpora through predict_clusters: its
  // labels must not depend on the pool size, must equal predict_cluster
  // row by row, and must not move.
  const auto& s = shared();
  const ml::Matrix features =
      s.data.feature_matrix(s.model.config().feature_indices);
  const std::size_t threads_before = util::parallel_threads();
  util::set_parallel_threads(1);
  const std::vector<std::size_t> serial = s.model.predict_clusters(features);
  util::set_parallel_threads(4);
  const std::vector<std::size_t> parallel = s.model.predict_clusters(features);
  util::set_parallel_threads(threads_before);

  ASSERT_EQ(serial.size(), features.rows());
  EXPECT_EQ(serial, parallel);
  Digest digest;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], s.model.predict_cluster(features.row(i)))
        << "row " << i;
    digest.add(serial[i]);
  }
  EXPECT_EQ(digest.h, kCorpusLabelsGolden);
}

// ----- hand-built models forcing the kernel's documented edge cases ----

const ua::UserAgent kChrome100{ua::Vendor::kChrome, 100, ua::Os::kWindows10};
const ua::UserAgent kFirefox100{ua::Vendor::kFirefox, 100,
                                ua::Os::kWindows10};

Polygraph make_tiny_model(bool tied_centroids) {
  PolygraphConfig config;
  config.feature_indices = {0, 1};
  config.pca_components = 2;
  config.k = 2;
  ml::Matrix centroids(2, 2);
  if (!tied_centroids) {
    centroids(1, 0) = 10.0;
    centroids(1, 1) = 10.0;
  }  // tied: both centroids at the origin — every distance is a tie
  ml::KMeansConfig kconfig;
  kconfig.k = 2;
  ClusterTable table;
  table.assign(kChrome100, 0);
  table.assign(kFirefox100, 1);
  return Polygraph::from_parts(
      config, ml::StandardScaler::from_params({0.0, 0.0}, {1.0, 1.0}),
      ml::Pca::from_params({0.0, 0.0}, {1.0, 1.0}, ml::Matrix::identity(2)),
      ml::KMeans::from_centroids(std::move(centroids), kconfig),
      std::move(table));
}

void expect_panel_identical(const Polygraph& model,
                            const std::vector<std::vector<std::int32_t>>& raw,
                            const std::vector<ua::UserAgent>& claims,
                            std::uint64_t golden) {
  std::vector<std::span<const std::int32_t>> rows;
  for (const auto& row : raw) rows.emplace_back(row);
  std::vector<Detection> batch(raw.size());
  BatchScratch scratch;
  model.score_batch(std::span<const std::span<const std::int32_t>>(rows),
                    std::span<const ua::UserAgent>(claims),
                    std::span<Detection>(batch), scratch);
  EXPECT_EQ(digest_of(batch), golden);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    expect_bit_identical(
        batch[i],
        reference_score(model, std::span<const std::int32_t>(raw[i]),
                        claims[i]),
        i);
  }
}

TEST(BatchScore, ExactZeroCenteredValuesMatchScalarSkipPath) {
  // Identity scaler + zero PCA mean: a zero feature makes `centered`
  // exactly 0.0, the one case where Pca::transform_row skips the
  // accumulation and the kernel adds +/-0.0 instead.
  const Polygraph model = make_tiny_model(false);
  expect_panel_identical(model,
                         {{0, 0}, {0, 7}, {-3, 0}, {10, 10}, {0, 0}},
                         {kChrome100, kChrome100, kFirefox100, kFirefox100,
                          kFirefox100},
                         kTinyZeroGolden);
}

TEST(BatchScore, CentroidDistanceTiesPickLowestIndexLikeScalar) {
  const Polygraph model = make_tiny_model(true);
  expect_panel_identical(model, {{0, 0}, {5, -5}, {-2, 9}},
                         {kChrome100, kFirefox100, kChrome100},
                         kTinyTiesGolden);
}

TEST(BatchScore, ExtremeInt32ValuesSurviveWidening) {
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  const Polygraph model = make_tiny_model(false);
  expect_panel_identical(
      model, {{kMin, kMax}, {kMax, kMax}, {kMin, kMin}, {kMax, 0}},
      {kChrome100, kFirefox100, kChrome100, kFirefox100},
      kTinyExtremeGolden);
}

// --------------------- engine-level equivalence ---------------------

TEST(BatchScore, EngineBatchPathMatchesScalarReference) {
  // Requests drained in batches by the engine must carry the same bits
  // as the row-primitive reference — across enough traffic that the
  // workers actually form multi-request batches.
  const auto& s = shared();
  serve::ModelRegistry registry;
  ASSERT_GT(registry.publish(Polygraph(s.model)), 0u);

  std::mutex mutex;
  std::vector<serve::ScoreResponse> responses;
  serve::EngineConfig config;
  config.workers = 2;
  config.max_batch = 64;
  serve::ScoringEngine engine(registry, config,
                              [&](const serve::ScoreResponse& response) {
                                std::lock_guard lock(mutex);
                                responses.push_back(response);
                              });

  const Panel panel = make_panel(500, 0xe2e);
  for (std::size_t i = 0; i < panel.rows.size(); ++i) {
    serve::ScoreRequest request;
    request.id = i;
    request.features = panel.rows[i];
    request.claimed = panel.claims[i];
    ASSERT_EQ(engine.submit(std::move(request)),
              serve::SubmitResult::kAdmitted);
  }
  engine.drain();
  engine.stop();

  const std::vector<Detection> reference = reference_panel(s.model, panel);
  ASSERT_EQ(responses.size(), panel.rows.size());
  for (const auto& response : responses) {
    ASSERT_EQ(response.status, serve::ResponseStatus::kScored);
    EXPECT_EQ(response.model_version, 1u);
    EXPECT_FALSE(response.cached);
    expect_bit_identical(response.detection, reference[response.id],
                         response.id);
  }
}

TEST(BatchScore, DegradedPathUnchangedByBatchRewrite) {
  serve::ModelRegistry registry;  // never published
  std::mutex mutex;
  std::vector<serve::ScoreResponse> responses;
  serve::EngineConfig config;
  config.workers = 1;
  config.degrade_without_model = true;
  serve::ScoringEngine engine(registry, config,
                              [&](const serve::ScoreResponse& response) {
                                std::lock_guard lock(mutex);
                                responses.push_back(response);
                              });
  for (std::uint64_t i = 0; i < 32; ++i) {
    serve::ScoreRequest request;
    request.id = i;
    request.features = {0, 0};
    request.claimed = kChrome100;
    ASSERT_EQ(engine.submit(std::move(request)),
              serve::SubmitResult::kAdmitted);
  }
  engine.drain();
  engine.stop();
  const Detection expected = serve::degraded_score(kChrome100);
  ASSERT_EQ(responses.size(), 32u);
  for (const auto& response : responses) {
    ASSERT_EQ(response.status, serve::ResponseStatus::kDegraded);
    expect_bit_identical(response.detection, expected, response.id);
  }
}

TEST(BatchScore, DeadlinePathUnchangedByBatchRewrite) {
  // Workers hold the popped batch while no model is published; by the
  // time one appears, every request is past its 1 ms deadline and must
  // be answered kDeadlineExceeded, exactly as before the batch rewrite.
  serve::ModelRegistry registry;
  std::mutex mutex;
  std::vector<serve::ScoreResponse> responses;
  serve::EngineConfig config;
  config.workers = 1;
  config.deadline = std::chrono::milliseconds(1);
  serve::ScoringEngine engine(registry, config,
                              [&](const serve::ScoreResponse& response) {
                                std::lock_guard lock(mutex);
                                responses.push_back(response);
                              });
  for (std::uint64_t i = 0; i < 16; ++i) {
    serve::ScoreRequest request;
    request.id = i;
    request.features = {0, 0};
    request.claimed = kChrome100;
    ASSERT_EQ(engine.submit(std::move(request)),
              serve::SubmitResult::kAdmitted);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_GT(registry.publish(make_tiny_model(false)), 0u);
  engine.drain();
  engine.stop();
  ASSERT_EQ(responses.size(), 16u);
  for (const auto& response : responses) {
    EXPECT_EQ(response.status, serve::ResponseStatus::kDeadlineExceeded)
        << "id " << response.id;
  }
}

}  // namespace
}  // namespace bp::core
