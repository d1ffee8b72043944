#include "ml/metrics.h"

#include <cassert>
#include <cstdint>

namespace bp::ml {

namespace {

std::size_t count_of(std::span<const std::size_t> counts, std::size_t i) {
  return counts.empty() ? 1 : counts[i];
}

// label -> (cluster -> row count)
std::map<std::uint32_t, std::map<std::size_t, std::size_t>> tally(
    const std::vector<std::uint32_t>& labels,
    const std::vector<std::size_t>& clusters,
    std::span<const std::size_t> row_counts = {}) {
  assert(labels.size() == clusters.size());
  assert(row_counts.empty() || row_counts.size() == labels.size());
  std::map<std::uint32_t, std::map<std::size_t, std::size_t>> counts;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    counts[labels[i]][clusters[i]] += count_of(row_counts, i);
  }
  return counts;
}

std::map<std::uint32_t, std::size_t> majority_of(
    const std::map<std::uint32_t, std::map<std::size_t, std::size_t>>&
        tallies) {
  std::map<std::uint32_t, std::size_t> majority;
  for (const auto& [label, per_cluster] : tallies) {
    std::size_t best_cluster = 0;
    std::size_t best_count = 0;
    for (const auto& [cluster, count] : per_cluster) {
      if (count > best_count) {
        best_count = count;
        best_cluster = cluster;
      }
    }
    majority[label] = best_cluster;
  }
  return majority;
}

}  // namespace

std::map<std::uint32_t, std::size_t> majority_clusters(
    const std::vector<std::uint32_t>& labels,
    const std::vector<std::size_t>& clusters) {
  return majority_of(tally(labels, clusters));
}

ClusterAccuracy clustering_accuracy(const std::vector<std::uint32_t>& labels,
                                    const std::vector<std::size_t>& clusters,
                                    std::span<const std::size_t> counts) {
  ClusterAccuracy out;
  out.majority = majority_of(tally(labels, clusters, counts));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::size_t n = count_of(counts, i);
    out.total_rows += n;
    if (clusters[i] == out.majority.at(labels[i])) out.correct_rows += n;
  }
  out.row_accuracy = out.total_rows > 0
                         ? static_cast<double>(out.correct_rows) /
                               static_cast<double>(out.total_rows)
                         : 0.0;
  return out;
}

std::map<std::uint32_t, LabelAccuracy> per_label_accuracy(
    const std::vector<std::uint32_t>& labels,
    const std::vector<std::size_t>& clusters) {
  std::map<std::uint32_t, LabelAccuracy> out;
  for (const auto& [label, per_cluster] : tally(labels, clusters)) {
    LabelAccuracy acc;
    std::size_t best_count = 0;
    for (const auto& [cluster, count] : per_cluster) {
      acc.count += count;
      if (count > best_count) {
        best_count = count;
        acc.cluster = cluster;
      }
    }
    acc.accuracy = acc.count > 0 ? static_cast<double>(best_count) /
                                       static_cast<double>(acc.count)
                                 : 0.0;
    out[label] = acc;
  }
  return out;
}

}  // namespace bp::ml
