// Determinism across thread counts — the hard requirement of the
// parallel training pipeline: the SAME seed must produce bit-identical
// models, labels, and generated traffic whether the pool runs 1, 2, 4
// or 8 threads.  Every parallel region decomposes work by a fixed grain
// (never by thread count) and merges partials in chunk order, so these
// suites compare serialized bytes with plain string equality.  Training
// runs on the corpus's multiset of fingerprints, so the model must not
// depend on the order of the rows either.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/model_io.h"
#include "core/polygraph.h"
#include "ml/isolation_forest.h"
#include "ml/kmeans.h"
#include "traffic/session_generator.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace bp {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

// Restores the default pool size so thread-count experiments cannot
// leak into unrelated suites.
class TrainingDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { util::set_parallel_threads(0); }
};

traffic::Dataset make_dataset(std::size_t n_sessions) {
  traffic::TrafficConfig config;
  config.n_sessions = n_sessions;
  traffic::SessionGenerator gen(config);
  return gen.generate(traffic::experiment_feature_indices());
}

std::string record_digest(const traffic::SessionRecord& r) {
  std::string out = r.session_id;
  out += '|';
  out += r.user_agent;
  out += '|';
  for (std::int32_t f : r.features) {
    out += std::to_string(f);
    out += ',';
  }
  out += r.untrusted_ip ? '1' : '0';
  out += r.untrusted_cookie ? '1' : '0';
  out += r.ato ? '1' : '0';
  return out;
}

TEST_F(TrainingDeterminismTest, GeneratedTrafficIdenticalAcrossThreadCounts) {
  // 3 shards' worth plus a partial tail shard.
  const std::size_t n = traffic::SessionGenerator::kGenerateShard * 3 + 257;
  std::vector<std::string> digests;
  for (std::size_t threads : kThreadCounts) {
    util::set_parallel_threads(threads);
    const traffic::Dataset data = make_dataset(n);
    ASSERT_EQ(data.size(), n);
    std::string digest;
    for (const auto& r : data.records()) {
      digest += record_digest(r);
      digest += '\n';
    }
    digests.push_back(std::move(digest));
  }
  for (std::size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[0], digests[i]) << kThreadCounts[i] << " threads";
  }
}

TEST_F(TrainingDeterminismTest, SerializedModelBytesIdenticalAcrossThreadCounts) {
  // Small but structurally complete corpus: all vendors, privacy
  // browsers, fraud, rare labels.
  const std::size_t n = 12'000;
  std::vector<std::string> serialized;
  std::vector<std::vector<std::size_t>> labels;
  std::vector<core::TrainingSummary> summaries;
  for (std::size_t threads : kThreadCounts) {
    util::set_parallel_threads(threads);
    const traffic::Dataset data = make_dataset(n);
    core::Polygraph model;
    const ml::Matrix features =
        data.feature_matrix(model.config().feature_indices);
    std::vector<ua::UserAgent> uas;
    uas.reserve(data.size());
    for (const auto& r : data.records()) uas.push_back(r.claimed);
    summaries.push_back(model.train(features, uas));
    serialized.push_back(core::serialize_model(model));
    labels.push_back(model.kmeans().labels());
  }
  for (std::size_t i = 1; i < serialized.size(); ++i) {
    // Bit-identical model bytes: scaler moments, PCA basis, centroids,
    // and the UA <-> cluster table all round through the same text.
    EXPECT_EQ(serialized[0], serialized[i]) << kThreadCounts[i] << " threads";
    // Identical cluster labels, multiset entry by entry.
    EXPECT_EQ(labels[0], labels[i]) << kThreadCounts[i] << " threads";
  }
  EXPECT_GT(summaries[0].distinct_rows, 0u);
  EXPECT_LT(summaries[0].distinct_rows, summaries[0].rows_total);
  // One label per entry that survived the outlier filter.
  EXPECT_LE(labels[0].size(), summaries[0].distinct_rows);
  EXPECT_GE(labels[0].size() + summaries[0].rows_outliers_removed,
            summaries[0].distinct_rows);
  // And the summary statistics that derive from them.
  for (std::size_t i = 1; i < summaries.size(); ++i) {
    EXPECT_EQ(summaries[0].distinct_rows, summaries[i].distinct_rows);
    EXPECT_EQ(summaries[0].rows_outliers_removed,
              summaries[i].rows_outliers_removed);
    EXPECT_EQ(summaries[0].wcss, summaries[i].wcss);
    EXPECT_EQ(summaries[0].clustering_accuracy,
              summaries[i].clustering_accuracy);
    EXPECT_EQ(summaries[0].labels_realigned, summaries[i].labels_realigned);
  }
}

TEST_F(TrainingDeterminismTest, IsolationForestScoresIdenticalAcrossThreads) {
  util::set_parallel_threads(1);
  const traffic::Dataset data = make_dataset(4'000);
  const ml::Matrix features =
      data.feature_matrix(core::PolygraphConfig::production().feature_indices);

  std::vector<std::vector<double>> scores;
  for (std::size_t threads : kThreadCounts) {
    util::set_parallel_threads(threads);
    ml::IsolationForest forest;
    forest.fit(features);
    scores.push_back(forest.score(features));
  }
  for (std::size_t i = 1; i < scores.size(); ++i) {
    EXPECT_EQ(scores[0], scores[i]) << kThreadCounts[i] << " threads";
  }
}

TEST_F(TrainingDeterminismTest, ShuffledCorpusSerializesIdentically) {
  const traffic::Dataset data = make_dataset(12'000);
  core::Polygraph reference;
  const ml::Matrix features =
      data.feature_matrix(reference.config().feature_indices);
  std::vector<ua::UserAgent> uas;
  for (const auto& r : data.records()) uas.push_back(r.claimed);
  reference.train(features, uas);

  std::vector<std::size_t> order(features.rows());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  util::Rng rng(99);
  rng.shuffle(order);
  ml::Matrix shuffled;
  std::vector<ua::UserAgent> shuffled_uas;
  for (std::size_t r : order) {
    shuffled.push_row(features.row(r));
    shuffled_uas.push_back(uas[r]);
  }
  for (std::size_t threads : {1, 4}) {
    util::set_parallel_threads(threads);
    core::Polygraph model;
    model.train(shuffled, shuffled_uas);
    EXPECT_EQ(core::serialize_model(model), core::serialize_model(reference))
        << threads << " threads";
  }
}

TEST_F(TrainingDeterminismTest, TrainingTimingsArePopulated) {
  const traffic::Dataset data = make_dataset(6'000);
  core::Polygraph model;
  const ml::Matrix features =
      data.feature_matrix(model.config().feature_indices);
  std::vector<ua::UserAgent> uas;
  for (const auto& r : data.records()) uas.push_back(r.claimed);
  const core::TrainingSummary summary = model.train(features, uas);
  EXPECT_GT(summary.timings.total, 0.0);
  const double stage_sum = summary.timings.scale + summary.timings.filter +
                           summary.timings.pca + summary.timings.kmeans +
                           summary.timings.table;
  EXPECT_GT(stage_sum, 0.0);
  EXPECT_LE(stage_sum, summary.timings.total * 1.01);
}

}  // namespace
}  // namespace bp
