#include "core/polygraph.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "browser/engine_timelines.h"
#include "browser/release_db.h"
#include "core/fingerprint_counts.h"
#include "obs/metrics_registry.h"
#include "obs/prof/prof.h"
#include "util/parallel.h"

namespace bp::core {

PolygraphConfig PolygraphConfig::production() {
  PolygraphConfig config;
  config.feature_indices =
      browser::FeatureCatalog::instance().final_indices();
  return config;
}

void ClusterTable::assign(const ua::UserAgent& ua, std::size_t cluster) {
  const std::uint32_t key = ua.key();
  const auto it = ua_to_cluster_.find(key);
  if (it != ua_to_cluster_.end()) {
    if (it->second == cluster) return;
    // Re-assignment: swap-remove from the old cluster's list via the
    // per-UA position index.  (A remove_if scan here made bulk table
    // rebuilds — every retrain reassigns most UAs — quadratic.)
    auto& old_list = cluster_to_uas_[it->second];
    const std::size_t pos = position_in_cluster_.at(key);
    old_list[pos] = old_list.back();
    old_list.pop_back();
    if (pos < old_list.size()) {
      position_in_cluster_[old_list[pos].key()] = pos;
    }
    it->second = cluster;
  } else {
    ua_to_cluster_.emplace(key, cluster);
  }
  auto& list = cluster_to_uas_[cluster];
  position_in_cluster_[key] = list.size();
  list.push_back(ua);
}

std::optional<std::size_t> ClusterTable::expected_cluster(
    const ua::UserAgent& ua) const {
  const auto it = ua_to_cluster_.find(ua.key());
  if (it == ua_to_cluster_.end()) return std::nullopt;
  return it->second;
}

const std::vector<ua::UserAgent>& ClusterTable::user_agents_in(
    std::size_t cluster) const {
  const auto it = cluster_to_uas_.find(cluster);
  return it != cluster_to_uas_.end() ? it->second : empty_;
}

std::vector<std::size_t> ClusterTable::populated_clusters() const {
  std::vector<std::size_t> out;
  for (const auto& [cluster, uas] : cluster_to_uas_) {
    if (!uas.empty()) out.push_back(cluster);
  }
  return out;
}

Polygraph::Polygraph(PolygraphConfig config) : config_(std::move(config)) {
  if (config_.feature_indices.empty()) {
    config_.feature_indices =
        browser::FeatureCatalog::instance().final_indices();
  }
}

TrainingSummary Polygraph::train(const ml::Matrix& features,
                                 const std::vector<ua::UserAgent>& user_agents,
                                 const obs::ObsContext* obs) {
  assert(features.rows() == user_agents.size());
  assert(features.cols() == config_.feature_indices.size());
  TrainingSummary summary;
  summary.rows_total = features.rows();

  using Clock = std::chrono::steady_clock;
  const auto stage_start = Clock::now();
  auto lap = [last = stage_start]() mutable {
    const auto now = Clock::now();
    const double seconds = std::chrono::duration<double>(now - last).count();
    last = now;
    return seconds;
  };

  // Optional tracing: one span per stage under the caller's trace id.
  // Span ids are fixed (root 1, stages 2..6) so retrain traces render
  // deterministically; see obs/trace.h.
  obs::TraceSink* trace = obs != nullptr ? obs->trace : nullptr;
  const std::uint64_t trace_id = obs != nullptr ? obs->trace_id : 0;
  const std::int64_t train_begin_us = obs::steady_now_us();
  std::int64_t stage_begin_us = train_begin_us;
  auto emit_span = [&](const char* name, std::uint32_t span_id) {
    const std::int64_t now_us = obs::steady_now_us();
    if (trace != nullptr) {
      trace->record({trace_id, span_id, /*parent_id=*/1, name,
                     stage_begin_us, now_us});
    }
    stage_begin_us = now_us;
  };

  // Profiler attribution: each stage runs inside its own tag scope, so
  // samples landing in this thread carry train.<stage>.
  PROF_SCOPE("train");

  // 1. Collapse + scale.  The corpus becomes its multiset of distinct
  //    (feature row, UA key) entries with counts, in canonical order;
  //    every later stage runs on the entries, weighted by their counts.
  //    Deviation-based columns are standardized; time-based presence
  //    bits pass through (§6.4.1).
  FingerprintCounts corpus;
  ml::Matrix scaled;
  {
    PROF_SCOPE("train.scale");
    corpus = FingerprintCounts::collapse(features, user_agents);
    summary.distinct_rows = corpus.size();
    const auto& catalog = browser::FeatureCatalog::instance();
    std::vector<bool> scale_column;
    scale_column.reserve(config_.feature_indices.size());
    for (std::size_t idx : config_.feature_indices) {
      scale_column.push_back(catalog.spec(idx).kind ==
                             browser::FeatureKind::kDeviationBased);
    }
    scaler_.fit(corpus.features, scale_column, corpus.counts);
    scaled = scaler_.transform(corpus.features);
    summary.timings.scale = lap();
    emit_span("scale", 2);
  }

  // 2. Outlier filtering (§6.4.1): scores are computed once per entry;
  //    the tie rule of IsolationForest::inlier_mask decides how much of
  //    the boundary entry's count goes.  Entries left with no rows drop.
  ml::Matrix inliers;
  std::vector<std::size_t> counts;
  std::vector<std::uint32_t> keys;
  {
    PROF_SCOPE("train.filter");
    ml::IsolationForestConfig forest_config;
    forest_config.seed = config_.seed ^ 0xF0E1D2C3ULL;
    ml::IsolationForest forest(forest_config);
    forest.fit(scaled, corpus.counts);
    const std::vector<std::size_t> kept =
        forest.inlier_mask(scaled, config_.contamination, corpus.counts);
    std::size_t rows_kept = 0;
    for (std::size_t e = 0; e < corpus.size(); ++e) {
      if (kept[e] == 0) continue;
      inliers.push_row(scaled.row(e));
      counts.push_back(kept[e]);
      keys.push_back(corpus.user_agents[e].key());
      rows_kept += kept[e];
    }
    summary.rows_outliers_removed = summary.rows_total - rows_kept;
    summary.timings.filter = lap();
    emit_span("filter", 3);
  }

  // 3. PCA (§6.4.2).
  ml::Matrix projected;
  {
    PROF_SCOPE("train.pca");
    pca_.fit(inliers, config_.pca_components, counts);
    projected = pca_.transform(inliers);
    summary.timings.pca = lap();
    emit_span("pca", 4);
  }

  // 4. k-means (§6.4.3).
  {
    PROF_SCOPE("train.kmeans");
    ml::KMeansConfig kconfig;
    kconfig.k = config_.k;
    kconfig.seed = config_.seed;
    kconfig.n_init = config_.kmeans_restarts;
    kmeans_ = ml::KMeans(kconfig);
    kmeans_.fit(projected, counts);
    summary.wcss = kmeans_.inertia();
    summary.timings.kmeans = lap();
    emit_span("kmeans", 5);
  }

  {
    PROF_SCOPE("train.table");
    // 5. Majority-cluster table + training accuracy (Appendix-4
    //    Formula 1), both counting corpus rows.
    const ml::ClusterAccuracy accuracy =
        ml::clustering_accuracy(keys, kmeans_.labels(), counts);
    summary.clustering_accuracy = accuracy.row_accuracy;

    table_ = ClusterTable();
    std::map<std::uint32_t, ua::UserAgent> key_to_ua;
    for (const ua::UserAgent& ua : corpus.user_agents) {
      key_to_ua.emplace(ua.key(), ua);
    }
    for (const auto& [key, cluster] : accuracy.majority) {
      table_.assign(key_to_ua.at(key), cluster);
    }

    // 6. Rare-label re-alignment (§6.4.3): user-agents with too few
    //    rows get their cluster from the legitimate baseline fingerprint
    //    of the candidate-generation stage rather than from noisy live
    //    data.  A user-agent whose every row the filter removed has zero
    //    rows left and is re-aligned the same way, so it stays in the
    //    table.
    if (config_.align_rare_labels) {
      std::map<std::uint32_t, std::size_t> label_rows;
      for (std::size_t e = 0; e < keys.size(); ++e) {
        label_rows[keys[e]] += counts[e];
      }
      const auto& db = browser::ReleaseDatabase::instance();
      for (const auto& [key, ua] : key_to_ua) {
        if (label_rows[key] >= config_.rare_label_min_rows) continue;
        const auto* release = db.find(ua);
        if (release == nullptr) continue;
        const std::vector<double> baseline = baseline_features(*release);
        const std::size_t aligned = predict_cluster(baseline);
        if (table_.expected_cluster(ua) != aligned) {
          table_.assign(ua, aligned);
          ++summary.labels_realigned;
        }
      }
    }
    summary.timings.table = lap();
    emit_span("table", 6);
  }
  summary.timings.total =
      std::chrono::duration<double>(Clock::now() - stage_start).count();

  if (trace != nullptr) {
    trace->record({trace_id, /*span_id=*/1, /*parent_id=*/0, "train",
                   train_begin_us, stage_begin_us});
  }
  if (obs != nullptr && obs->registry != nullptr) {
    obs::MetricsRegistry& r = *obs->registry;
    r.counter("bp_training_runs_total", "training pipeline runs").increment();
    r.counter("bp_training_rows_total", "training rows consumed")
        .add(summary.rows_total);
    r.counter("bp_training_outliers_removed_total",
              "rows discarded by the isolation-forest filter")
        .add(summary.rows_outliers_removed);
    r.counter("bp_training_labels_realigned_total",
              "rare-UA labels re-aligned to baseline fingerprints")
        .add(summary.labels_realigned);
    r.gauge("bp_training_last_accuracy",
            "clustering accuracy of the last training run")
        .set(summary.clustering_accuracy);
    r.gauge("bp_training_last_wcss", "k-means inertia of the last run")
        .set(summary.wcss);
    r.gauge("bp_training_scale_seconds", "scaler fit+transform, last run")
        .set(summary.timings.scale);
    r.gauge("bp_training_filter_seconds", "outlier filter, last run")
        .set(summary.timings.filter);
    r.gauge("bp_training_pca_seconds", "PCA, last run")
        .set(summary.timings.pca);
    r.gauge("bp_training_kmeans_seconds", "k-means restarts, last run")
        .set(summary.timings.kmeans);
    r.gauge("bp_training_table_seconds", "cluster table, last run")
        .set(summary.timings.table);
    r.gauge("bp_training_total_seconds", "whole pipeline, last run")
        .set(summary.timings.total);
  }
  return summary;
}

std::size_t Polygraph::predict_cluster(std::span<const double> features) const {
  BatchScratch scratch;
  const std::span<const double> row[] = {features};
  std::size_t cluster = 0;
  nearest_centroids(std::span<const std::span<const double>>(row), scratch,
                    [&](std::size_t, std::size_t c, double) { cluster = c; });
  return cluster;
}

std::vector<std::size_t> Polygraph::predict_clusters(
    const ml::Matrix& features) const {
  assert(trained());
  // Block-aligned chunks, one scratch each; a row's label does not
  // depend on its chunk, so neither does the result on the thread count.
  constexpr std::size_t kGrain = 16 * kScoreBatchBlock;
  std::vector<std::size_t> labels(features.rows());
  util::parallel_for(
      std::size_t{0}, features.rows(), kGrain,
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::span<const double>> rows;
        rows.reserve(end - begin);
        for (std::size_t r = begin; r < end; ++r) {
          rows.push_back(features.row(r));
        }
        BatchScratch scratch;
        nearest_centroids(
            std::span<const std::span<const double>>(rows), scratch,
            [&](std::size_t i, std::size_t c, double) {
              labels[begin + i] = c;
            });
      });
  return labels;
}

int Polygraph::risk_factor(const ua::UserAgent& session_ua,
                           std::size_t predicted_cluster) const {
  // Algorithm 1.  An empty (noise) cluster leaves the minimum at its
  // initial value; we cap it at the vendor distance — no known-good UA
  // resembles the session at all.
  int risk = std::numeric_limits<int>::max();
  for (const ua::UserAgent& ua : table_.user_agents_in(predicted_cluster)) {
    int distance = 0;
    if (!ua::same_vendor(session_ua.vendor, ua.vendor)) {
      distance = config_.vendor_distance;
    } else {
      const int diff = std::abs(session_ua.major_version - ua.major_version);
      distance = diff / config_.version_divisor;
    }
    risk = std::min(risk, distance);
  }
  return risk == std::numeric_limits<int>::max() ? config_.vendor_distance
                                                 : risk;
}

Detection Polygraph::score(std::span<const double> features,
                           const ua::UserAgent& claimed) const {
  BatchScratch scratch;
  const std::span<const double> row[] = {features};
  Detection detection;
  score_batch(row, {&claimed, 1}, {&detection, 1}, scratch);
  return detection;
}

Detection Polygraph::score(std::span<const std::int32_t> features,
                           const ua::UserAgent& claimed,
                           ScoringScratch& scratch) const {
  const std::span<const std::int32_t> row[] = {features};
  Detection detection;
  score_batch(row, {&claimed, 1}, {&detection, 1}, scratch);
  return detection;
}

template <typename T, typename Emit>
void Polygraph::nearest_centroids(std::span<const std::span<const T>> rows,
                                  BatchScratch& scratch, Emit&& emit) const {
  assert(trained());
  // Lanes per block: a 1-row call holds one lane, not a full block.
  const std::size_t lanes = std::min(rows.size(), kScoreBatchBlock);
  const std::size_t n_features = config_.feature_indices.size();
  const std::size_t n_components = pca_.n_components();
  const std::size_t n_centroids = kmeans_.centroids().rows();
  const double* const means = scaler_.means().data();
  const double* const stddevs = scaler_.stddevs().data();
  const double* const pca_mean = pca_.mean().data();
  const ml::Matrix& components = pca_.components();  // n_features x p
  const ml::Matrix& centroids = kmeans_.centroids();  // k x p

  scratch.panel_.resize(n_features * lanes);
  scratch.centered_.resize(lanes);
  scratch.projected_.resize(n_components * lanes);
  scratch.distance_.resize(lanes);
  scratch.best_d2_.resize(lanes);
  scratch.best_cluster_.resize(lanes);
  double* const panel = scratch.panel_.data();
  double* const centered = scratch.centered_.data();
  double* const projected = scratch.projected_.data();
  double* const distance = scratch.distance_.data();
  double* const best_d2 = scratch.best_d2_.data();
  std::uint32_t* const best_cluster = scratch.best_cluster_.data();

  for (std::size_t base = 0; base < rows.size(); base += lanes) {
    const std::size_t n = std::min(lanes, rows.size() - base);
    const T* row_ptr[kScoreBatchBlock];
    for (std::size_t r = 0; r < n; ++r) {
      assert(rows[base + r].size() == n_features);
      row_ptr[r] = rows[base + r].data();
    }

    // Gather + scale: transpose the block into feature-major lanes,
    // fusing the StandardScaler (same expression as transform_row, so
    // identical rounding).
    for (std::size_t c = 0; c < n_features; ++c) {
      const double mean = means[c];
      const double stddev = stddevs[c];
      double* const lane = panel + c * lanes;
      for (std::size_t r = 0; r < n; ++r) {
        lane[r] = (static_cast<double>(row_ptr[r][c]) - mean) / stddev;
      }
    }

    // PCA: accumulate components in feature order, Pca::transform_row's
    // reduction order.  (transform_row skips exactly-zero centered
    // values; adding their +/-0.0 contribution here can only change the
    // sign of a zero accumulator, which the squaring below erases.)
    std::fill_n(projected, n_components * lanes, 0.0);
    for (std::size_t c = 0; c < n_features; ++c) {
      const double center = pca_mean[c];
      const double* const lane = panel + c * lanes;
      for (std::size_t r = 0; r < n; ++r) {
        centered[r] = lane[r] - center;
      }
      const auto weights = components.row(c);  // n_components entries
      for (std::size_t j = 0; j < n_components; ++j) {
        const double weight = weights[j];
        double* const proj = projected + j * lanes;
        for (std::size_t r = 0; r < n; ++r) {
          proj[r] += centered[r] * weight;
        }
      }
    }

    // Nearest centroid: full distance per centroid, strict < argmin, so
    // ties keep the lower centroid index — the winner and winning
    // distance of KMeans::predict_one, whose early exit only abandons
    // sums already over the bound.
    for (std::size_t r = 0; r < n; ++r) {
      best_d2[r] = std::numeric_limits<double>::max();
      best_cluster[r] = 0;
    }
    for (std::size_t c = 0; c < n_centroids; ++c) {
      const auto centroid = centroids.row(c);
      std::fill_n(distance, n, 0.0);
      for (std::size_t j = 0; j < n_components; ++j) {
        const double coord = centroid[j];
        const double* const proj = projected + j * lanes;
        for (std::size_t r = 0; r < n; ++r) {
          const double diff = proj[r] - coord;
          distance[r] += diff * diff;
        }
      }
      for (std::size_t r = 0; r < n; ++r) {
        if (distance[r] < best_d2[r]) {
          best_d2[r] = distance[r];
          best_cluster[r] = static_cast<std::uint32_t>(c);
        }
      }
    }

    for (std::size_t r = 0; r < n; ++r) {
      emit(base + r, std::size_t{best_cluster[r]}, best_d2[r]);
    }
  }
}

template <typename T>
void Polygraph::score_rows(std::span<const std::span<const T>> rows,
                           std::span<const ua::UserAgent> claims,
                           std::span<Detection> out,
                           BatchScratch& scratch) const {
  assert(claims.size() == rows.size() && out.size() == rows.size());
  nearest_centroids(rows, scratch, [&](std::size_t i, std::size_t cluster,
                                       double d2) {
    // Verdict tail (§6.5): the table's expected cluster for the claimed
    // UA; a mismatch flags the session with Algorithm 1's risk factor.
    Detection detection;
    detection.predicted_cluster = cluster;
    detection.centroid_distance2 = d2;
    detection.expected_cluster = table_.expected_cluster(claims[i]);
    if (detection.expected_cluster.has_value() &&
        *detection.expected_cluster != cluster) {
      detection.flagged = true;
      detection.risk_factor = risk_factor(claims[i], cluster);
    }
    out[i] = detection;
  });
}

void Polygraph::score_batch(std::span<const std::span<const std::int32_t>> rows,
                            std::span<const ua::UserAgent> claims,
                            std::span<Detection> out,
                            BatchScratch& scratch) const {
  score_rows(rows, claims, out, scratch);
}

void Polygraph::score_batch(std::span<const std::span<const double>> rows,
                            std::span<const ua::UserAgent> claims,
                            std::span<Detection> out,
                            BatchScratch& scratch) const {
  score_rows(rows, claims, out, scratch);
}

Polygraph Polygraph::from_parts(PolygraphConfig config,
                                ml::StandardScaler scaler, ml::Pca pca,
                                ml::KMeans kmeans, ClusterTable table) {
  Polygraph model(std::move(config));
  model.scaler_ = std::move(scaler);
  model.pca_ = std::move(pca);
  model.kmeans_ = std::move(kmeans);
  model.table_ = std::move(table);
  return model;
}

std::vector<double> Polygraph::baseline_features(
    const browser::BrowserRelease& release) const {
  const auto& baseline =
      browser::baseline_candidates(release.engine, release.engine_version);
  std::vector<double> out;
  out.reserve(config_.feature_indices.size());
  for (std::size_t idx : config_.feature_indices) {
    out.push_back(static_cast<double>(baseline[idx]));
  }
  return out;
}

}  // namespace bp::core
