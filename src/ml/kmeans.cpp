#include "ml/kmeans.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "util/parallel.h"

namespace bp::ml {

namespace {

// Row-blocking grain for assignment-style passes.  Fixed so the chunked
// floating-point merges are a function of the data alone: the same
// labels, centroids, and inertia fall out at any thread count.
constexpr std::size_t kAssignGrain = 2048;

// Nearest centroid of `point` with the early-exit distance bound: a
// centroid is abandoned as soon as its partial sum exceeds the best
// distance seen so far.  Ties keep the lowest centroid index, exactly
// like the historical full-distance scan (an abandoned accumulation can
// only happen on a strictly larger distance).
std::pair<std::size_t, double> nearest_centroid(
    std::span<const double> point, const Matrix& centroids) noexcept {
  double best = std::numeric_limits<double>::max();
  std::size_t best_c = 0;
  for (std::size_t c = 0; c < centroids.rows(); ++c) {
    const double d2 = squared_distance_bounded(point, centroids.row(c), best);
    if (d2 < best) {
      best = d2;
      best_c = c;
    }
  }
  return {best_c, best};
}

// Per-chunk partial of one assignment sweep: the centroid accumulators
// for the update step ride along with the labels so the data is walked
// once per iteration instead of twice.
struct AssignPartial {
  std::vector<double> sums;         // k * d, empty when not accumulating
  std::vector<std::size_t> counts;  // k, observations per cluster
  double inertia = 0.0;
};

// Assign rows [begin, end) to their nearest centroid, writing labels in
// place (row-disjoint across chunks) and returning the chunk partial.
// A row of count w adds w observations: w * point to its cluster sum,
// w * d^2 to the inertia.
AssignPartial assign_rows(const Matrix& data, RowCounts row_counts,
                          const Matrix& centroids, std::size_t begin,
                          std::size_t end, std::vector<std::size_t>& labels,
                          bool accumulate) {
  const std::size_t k = centroids.rows();
  const std::size_t d = centroids.cols();
  AssignPartial partial;
  if (accumulate) {
    partial.sums.assign(k * d, 0.0);
    partial.counts.assign(k, 0);
  }
  for (std::size_t i = begin; i < end; ++i) {
    const auto point = data.row(i);
    const auto [best_c, best] = nearest_centroid(point, centroids);
    labels[i] = best_c;
    const double w = row_weight(row_counts, i);
    partial.inertia += w * best;
    if (accumulate) {
      partial.counts[best_c] += row_counts.empty() ? 1 : row_counts[i];
      double* s = &partial.sums[best_c * d];
      for (std::size_t j = 0; j < d; ++j) s[j] += w * point[j];
    }
  }
  return partial;
}

// One full assignment sweep as an ordered parallel reduction.
AssignPartial assign_sweep(const Matrix& data, RowCounts row_counts,
                           const Matrix& centroids,
                           std::vector<std::size_t>& labels,
                           bool accumulate) {
  const std::size_t k = centroids.rows();
  const std::size_t d = centroids.cols();
  AssignPartial init;
  if (accumulate) {
    init.sums.assign(k * d, 0.0);
    init.counts.assign(k, 0);
  }
  return bp::util::parallel_reduce(
      std::size_t{0}, data.rows(), kAssignGrain, std::move(init),
      [&](std::size_t begin, std::size_t end) {
        return assign_rows(data, row_counts, centroids, begin, end, labels,
                           accumulate);
      },
      [](AssignPartial& acc, AssignPartial&& part) {
        acc.inertia += part.inertia;
        for (std::size_t i = 0; i < acc.sums.size(); ++i) {
          acc.sums[i] += part.sums[i];
        }
        for (std::size_t i = 0; i < acc.counts.size(); ++i) {
          acc.counts[i] += part.counts[i];
        }
      });
}

// A uniformly drawn observation of the expanded multiset, as its row.
// Linear in the rows, but drawn only once or twice per restart.
std::size_t draw_row(RowCounts counts, std::size_t total,
                     bp::util::Rng& rng) {
  std::size_t position = static_cast<std::size_t>(rng.below(total));
  if (counts.empty()) return position;
  std::size_t row = 0;
  while (position >= counts[row]) position -= counts[row++];
  return row;
}

}  // namespace

Matrix KMeans::init_plus_plus(const Matrix& data, RowCounts counts,
                              bp::util::Rng& rng) const {
  const std::size_t n = data.rows();
  const std::size_t total_rows = total_count(counts, n);
  const std::size_t k = config_.k;
  Matrix centroids(k, data.cols());

  // First centroid: a uniform observation.
  std::size_t first = draw_row(counts, total_rows, rng);
  std::copy_n(data.row(first).data(), data.cols(), centroids.row(0).data());

  std::vector<double> min_d2(n, std::numeric_limits<double>::max());
  for (std::size_t c = 1; c < k; ++c) {
    // Update distances to the nearest chosen centroid.  Row-disjoint
    // min_d2 updates run in parallel; only the total is reduced, in
    // chunk order, so the k-means++ weights are thread-count invariant.
    // A row's seeding weight is count * D^2.
    const auto prev = centroids.row(c - 1);
    const double total = bp::util::parallel_reduce(
        std::size_t{0}, n, kAssignGrain, 0.0,
        [&](std::size_t begin, std::size_t end) {
          double chunk_total = 0.0;
          for (std::size_t i = begin; i < end; ++i) {
            const double d2 =
                squared_distance_bounded(data.row(i), prev, min_d2[i]);
            if (d2 < min_d2[i]) min_d2[i] = d2;
            chunk_total += row_weight(counts, i) * min_d2[i];
          }
          return chunk_total;
        },
        [](double& acc, double part) { acc += part; });
    std::size_t chosen = 0;
    if (total <= 0.0) {
      chosen = draw_row(counts, total_rows, rng);
    } else {
      double target = rng.uniform() * total;
      for (std::size_t i = 0; i < n; ++i) {
        const double weight = row_weight(counts, i) * min_d2[i];
        if (target < weight) {
          chosen = i;
          break;
        }
        target -= weight;
        chosen = i;  // numeric slop: fall through to the last point
      }
    }
    std::copy_n(data.row(chosen).data(), data.cols(),
                centroids.row(c).data());
  }
  return centroids;
}

KMeans::RunResult KMeans::run_once(const Matrix& data, RowCounts counts,
                                   bp::util::Rng& rng) const {
  const std::size_t n = data.rows();
  const std::size_t d = data.cols();
  const std::size_t k = config_.k;

  RunResult result;
  result.centroids = init_plus_plus(data, counts, rng);
  result.labels.assign(n, 0);

  for (int iter = 0; iter < config_.max_iterations; ++iter) {
    // Assignment step (fused with the update-step accumulation).
    AssignPartial assignment =
        assign_sweep(data, counts, result.centroids, result.labels, true);
    result.inertia = assignment.inertia;

    // Update step.
    double shift = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      auto centroid = result.centroids.row(c);
      if (assignment.counts[c] == 0) {
        // Empty cluster: re-seed from the point farthest from its current
        // centroid (standard repair; keeps k clusters alive).  The scan
        // reduces (worst, index) in chunk order with strict comparisons,
        // so ties resolve to the lowest row index like the serial scan.
        struct Farthest {
          double worst = -1.0;
          std::size_t index = 0;
        };
        const Farthest farthest = bp::util::parallel_reduce(
            std::size_t{0}, n, kAssignGrain, Farthest{},
            [&](std::size_t begin, std::size_t end) {
              Farthest chunk;
              for (std::size_t i = begin; i < end; ++i) {
                const double d2 = squared_distance(
                    data.row(i), result.centroids.row(result.labels[i]));
                if (d2 > chunk.worst) {
                  chunk.worst = d2;
                  chunk.index = i;
                }
              }
              return chunk;
            },
            [](Farthest& acc, Farthest&& part) {
              if (part.worst > acc.worst) acc = part;
            });
        const auto src = data.row(farthest.index);
        shift += squared_distance(centroid, src);
        std::copy_n(src.data(), d, centroid.data());
        continue;
      }
      const double inv = 1.0 / static_cast<double>(assignment.counts[c]);
      double* s = &assignment.sums[c * d];
      double cluster_shift = 0.0;
      for (std::size_t j = 0; j < d; ++j) {
        const double updated = s[j] * inv;
        const double delta = updated - centroid[j];
        cluster_shift += delta * delta;
        centroid[j] = updated;
      }
      shift += cluster_shift;
    }

    if (shift <= config_.tolerance * (1.0 + result.inertia)) break;
  }

  // Final assignment with the converged centroids so labels and inertia
  // are consistent with what predict() would report.
  result.inertia =
      assign_sweep(data, counts, result.centroids, result.labels, false)
          .inertia;
  return result;
}

void KMeans::fit(const Matrix& data, RowCounts counts) {
  assert(data.rows() >= config_.k && config_.k > 0);
  assert(counts.empty() || counts.size() == data.rows());

  // The n_init restarts are independent jobs: each draws from its own
  // pre-split RNG stream (split() leaves the parent untouched, so the
  // streams do not depend on execution order) and the winner is picked
  // by lowest inertia with lowest restart index breaking ties.
  const bp::util::Rng root(config_.seed);
  const std::size_t restarts =
      static_cast<std::size_t>(std::max(config_.n_init, 1));
  std::vector<bp::util::Rng> streams;
  streams.reserve(restarts);
  for (std::size_t r = 0; r < restarts; ++r) streams.push_back(root.split(r));

  std::vector<RunResult> results(restarts);
  bp::util::parallel_for(
      std::size_t{0}, restarts, 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          results[r] = run_once(data, counts, streams[r]);
        }
      });

  std::size_t best = 0;
  for (std::size_t r = 1; r < restarts; ++r) {
    if (results[r].inertia < results[best].inertia) best = r;
  }
  centroids_ = std::move(results[best].centroids);
  labels_ = std::move(results[best].labels);
  inertia_ = results[best].inertia;
}

KMeans KMeans::from_centroids(Matrix centroids, KMeansConfig config) {
  config.k = centroids.rows();
  KMeans model(config);
  model.centroids_ = std::move(centroids);
  return model;
}

std::size_t KMeans::predict_one(std::span<const double> point) const {
  return predict_one(point, nullptr);
}

std::size_t KMeans::predict_one(std::span<const double> point,
                                double* distance2) const {
  assert(fitted() && point.size() == centroids_.cols());
  const auto [cluster, d2] = nearest_centroid(point, centroids_);
  if (distance2 != nullptr) *distance2 = d2;
  return cluster;
}

std::vector<std::size_t> KMeans::predict(const Matrix& data) const {
  std::vector<std::size_t> labels(data.rows());
  bp::util::parallel_for(
      std::size_t{0}, data.rows(), kAssignGrain,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          labels[i] = predict_one(data.row(i));
        }
      });
  return labels;
}

std::vector<double> wcss_curve(const Matrix& data, std::size_t k_begin,
                               std::size_t k_end, std::uint64_t seed) {
  std::vector<double> out;
  for (std::size_t k = k_begin; k <= k_end; ++k) {
    KMeansConfig config;
    config.k = k;
    config.seed = seed + k;
    KMeans model(config);
    model.fit(data);
    out.push_back(model.inertia());
  }
  return out;
}

std::vector<double> relative_wcss_drops(const std::vector<double>& wcss) {
  std::vector<double> out;
  for (std::size_t i = 1; i < wcss.size(); ++i) {
    out.push_back(wcss[i - 1] > 0.0
                      ? (wcss[i - 1] - wcss[i]) / wcss[i - 1]
                      : 0.0);
  }
  return out;
}

std::size_t elbow_k(const std::vector<double>& wcss, std::size_t k_begin,
                    std::size_t min_k, double threshold) {
  const std::vector<double> drops = relative_wcss_drops(wcss);
  auto drop_at = [&](std::size_t i) {
    return i < drops.size() ? drops[i] : 0.0;
  };

  std::size_t fallback = min_k;
  double fallback_drop = -1.0;
  for (std::size_t i = 0; i < drops.size(); ++i) {
    const std::size_t k = k_begin + 1 + i;  // drops[i] = improvement at k
    if (k < min_k) continue;
    const bool local_peak =
        (i == 0 || drops[i] > drop_at(i - 1)) && drops[i] > drop_at(i + 1);
    if (local_peak && drops[i] >= threshold) return k;
    if (drops[i] > fallback_drop) {
      fallback_drop = drops[i];
      fallback = k;
    }
  }
  return fallback;
}

}  // namespace bp::ml
