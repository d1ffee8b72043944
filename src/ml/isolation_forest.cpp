#include "ml/isolation_forest.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "util/parallel.h"

namespace bp::ml {

namespace {

// Row-blocking grain for batch scoring; fixed for thread-count-invariant
// decomposition (per-row scores are independent, so this only bounds
// dispatch overhead).
constexpr std::size_t kScoreGrain = 1024;

// Inclusive prefix sums of `counts`; empty when counts is empty.
std::vector<std::size_t> cumulative_counts(RowCounts counts) {
  std::vector<std::size_t> cumulative(counts.size());
  std::size_t running = 0;
  for (std::size_t r = 0; r < counts.size(); ++r) {
    running += counts[r];
    cumulative[r] = running;
  }
  return cumulative;
}

// The row holding observation `position` of the expansion that repeats
// row r counts[r] times, rows in order (the identity for unit counts).
std::size_t row_of_observation(const std::vector<std::size_t>& cumulative,
                               std::size_t position) noexcept {
  if (cumulative.empty()) return position;
  return static_cast<std::size_t>(
      std::upper_bound(cumulative.begin(), cumulative.end(), position) -
      cumulative.begin());
}

}  // namespace

double IsolationForest::average_path_length(std::size_t n) noexcept {
  if (n <= 1) return 0.0;
  if (n == 2) return 1.0;
  const double nd = static_cast<double>(n);
  constexpr double kEulerMascheroni = 0.5772156649015329;
  const double harmonic = std::log(nd - 1.0) + kEulerMascheroni;
  return 2.0 * harmonic - 2.0 * (nd - 1.0) / nd;
}

IsolationForest::Tree IsolationForest::build_tree(
    const Matrix& data, std::vector<std::size_t>& indices,
    bp::util::Rng& rng) const {
  Tree tree;
  const std::size_t d = data.cols();
  const int height_limit = static_cast<int>(
      std::ceil(std::log2(std::max<double>(2.0, static_cast<double>(indices.size())))));

  struct Frame {
    std::size_t begin;
    std::size_t end;
    int depth;
    std::int32_t node;
  };

  tree.nodes.emplace_back();
  std::vector<Frame> stack{{0, indices.size(), 0, 0}};

  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    Node& node = tree.nodes[static_cast<std::size_t>(frame.node)];
    const std::size_t count = frame.end - frame.begin;

    if (count <= 1 || frame.depth >= height_limit) {
      node.size = count;
      continue;
    }

    // Pick a split feature with spread; try a few features before giving
    // up (constant subsets become leaves).
    std::size_t feature = Node::npos;
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t attempt = 0; attempt < d; ++attempt) {
      const std::size_t f = static_cast<std::size_t>(rng.below(d));
      lo = hi = data(indices[frame.begin], f);
      for (std::size_t i = frame.begin + 1; i < frame.end; ++i) {
        const double v = data(indices[i], f);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      if (hi > lo) {
        feature = f;
        break;
      }
    }
    if (feature == Node::npos) {
      node.size = count;
      continue;
    }

    const double threshold = rng.uniform(lo, hi);
    const auto mid_it = std::partition(
        indices.begin() + static_cast<std::ptrdiff_t>(frame.begin),
        indices.begin() + static_cast<std::ptrdiff_t>(frame.end),
        [&](std::size_t idx) { return data(idx, feature) < threshold; });
    std::size_t mid =
        static_cast<std::size_t>(mid_it - indices.begin());
    // Degenerate partitions can happen when threshold == lo; force a
    // non-empty split to guarantee progress.
    if (mid == frame.begin) ++mid;
    if (mid == frame.end) --mid;

    node.feature = feature;
    node.threshold = threshold;
    node.left = static_cast<std::int32_t>(tree.nodes.size());
    node.right = node.left + 1;
    const std::int32_t left = node.left;
    const std::int32_t right = node.right;
    tree.nodes.emplace_back();
    tree.nodes.emplace_back();
    stack.push_back({frame.begin, mid, frame.depth + 1, left});
    stack.push_back({mid, frame.end, frame.depth + 1, right});
  }
  return tree;
}

double IsolationForest::Tree::path_length(
    std::span<const double> point) const {
  std::size_t node_idx = 0;
  double depth = 0.0;
  for (;;) {
    const Node& node = nodes[node_idx];
    if (node.feature == Node::npos) {
      return depth + IsolationForest::average_path_length(node.size);
    }
    depth += 1.0;
    node_idx = point[node.feature] < node.threshold
                   ? static_cast<std::size_t>(node.left)
                   : static_cast<std::size_t>(node.right);
  }
}

void IsolationForest::fit(const Matrix& data, RowCounts counts) {
  assert(data.rows() > 0);
  assert(counts.empty() || counts.size() == data.rows());
  const bp::util::Rng rng(config_.seed);
  const std::size_t total = total_count(counts, data.rows());
  const std::vector<std::size_t> cumulative = cumulative_counts(counts);
  const std::size_t sample = std::min(config_.max_samples, total);
  c_norm_ = std::max(average_path_length(sample), 1e-9);

  // Trees are embarrassingly parallel: tree t draws from the pre-split
  // stream rng.split(t), which is a pure function of (seed, t), so the
  // forest is identical no matter which thread builds which tree.
  trees_.clear();
  trees_.resize(config_.n_trees);
  bp::util::parallel_for(
      std::size_t{0}, config_.n_trees, 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t t = begin; t < end; ++t) {
          bp::util::Rng tree_rng = rng.split(t);
          auto indices = tree_rng.sample_indices(total, sample);
          for (std::size_t& index : indices) {
            index = row_of_observation(cumulative, index);
          }
          trees_[t] = build_tree(data, indices, tree_rng);
        }
      });
}

double IsolationForest::score_one(std::span<const double> point) const {
  assert(fitted());
  double total = 0.0;
  for (const Tree& tree : trees_) total += tree.path_length(point);
  const double mean_depth = total / static_cast<double>(trees_.size());
  return std::pow(2.0, -mean_depth / c_norm_);
}

std::vector<double> IsolationForest::score(const Matrix& data) const {
  std::vector<double> out(data.rows());
  bp::util::parallel_for(
      std::size_t{0}, data.rows(), kScoreGrain,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = score_one(data.row(i));
        }
      });
  return out;
}

std::vector<bool> IsolationForest::inlier_mask(const Matrix& data,
                                               double contamination) const {
  const std::vector<double> scores = score(data);
  const std::size_t n = scores.size();
  std::vector<bool> keep(n, true);
  if (contamination <= 0.0 || n == 0) return keep;

  const std::size_t drop = std::min<std::size_t>(
      n, static_cast<std::size_t>(
             std::ceil(contamination * static_cast<double>(n))));
  if (drop == 0) return keep;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::nth_element(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(drop) - 1,
                   order.end(), [&](std::size_t a, std::size_t b) {
                     return scores[a] > scores[b];
                   });
  for (std::size_t i = 0; i < drop; ++i) keep[order[i]] = false;
  return keep;
}

std::vector<std::size_t> IsolationForest::inlier_mask(
    const Matrix& data, double contamination, RowCounts counts) const {
  assert(counts.size() == data.rows());
  std::vector<std::size_t> kept(counts.begin(), counts.end());
  const std::size_t total = total_count(counts, data.rows());
  if (contamination <= 0.0 || total == 0) return kept;
  std::size_t drop = std::min<std::size_t>(
      total, static_cast<std::size_t>(
                 std::ceil(contamination * static_cast<double>(total))));
  if (drop == 0) return kept;

  const std::vector<double> scores = score(data);
  std::vector<std::size_t> order(data.rows());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] != scores[b] ? scores[a] > scores[b] : a < b;
  });
  for (std::size_t r : order) {
    const std::size_t take = std::min(drop, kept[r]);
    kept[r] -= take;
    drop -= take;
    if (drop == 0) break;
  }
  return kept;
}

}  // namespace bp::ml
