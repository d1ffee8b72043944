// Isolation Forest anomaly detection (Liu, Ting, Zhou — ICDM 2008).
//
// Paper §6.4.1 filters outliers from the training data with an Isolation
// Forest at a contamination threshold of 0.002% — on the 205k-row FinOrg
// dataset this removed 172 rows, none of which matched a legitimate
// browser baseline.  We implement the standard algorithm: an ensemble of
// isolation trees built on subsamples, anomaly score
//   s(x, n) = 2 ^ ( -E[h(x)] / c(n) )
// where h is the path length and c(n) the average unsuccessful-search
// path length of a BST.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ml/matrix.h"
#include "util/rng.h"

namespace bp::ml {

struct IsolationForestConfig {
  std::size_t n_trees = 100;
  std::size_t max_samples = 256;  // subsample size per tree
  std::uint64_t seed = 7;
};

class IsolationForest {
 public:
  explicit IsolationForest(IsolationForestConfig config = {})
      : config_(config) {}

  // Fit on `data`, row r repeated counts[r] times when `counts` is
  // given.  Tree t subsamples max_samples observation positions of the
  // expansion (rows in order) from rng.split(t) and maps each position
  // to its row through the cumulative counts, so a collapsed multiset
  // grows exactly the trees its expansion would.
  void fit(const Matrix& data, RowCounts counts = {});

  // Anomaly score in (0, 1); higher = more anomalous.  A score depends
  // only on the point, so scoring a multiset once per distinct row is
  // exact.
  double score_one(std::span<const double> point) const;
  std::vector<double> score(const Matrix& data) const;

  // Rows to KEEP after removing the `contamination` fraction with the
  // highest anomaly scores (ceil(contamination * n) rows are dropped
  // whenever contamination > 0 and n > 0).  Rows tied on the boundary
  // score are split as std::nth_element leaves them; on raw rows,
  // where duplicates tie, this keeps the paper benches that filter
  // rows directly (Figs. 3-4) on their recorded outputs.
  std::vector<bool> inlier_mask(const Matrix& data,
                                double contamination) const;

  // Multiset form: how many of row r's counts[r] observations to KEEP.
  // Exactly ceil(contamination * sum(counts)) observations are dropped
  // (capped at the total).  Tie rule: rows are taken in order of
  // (score descending, row index ascending), each dropped whole while
  // the remaining quota covers its count; the boundary row loses only
  // the remainder of the quota and keeps the rest of its count.  Rows
  // of a collapsed multiset are in canonical order, so the result is a
  // function of the multiset alone.  With unit counts this drops the
  // rows the mask above drops whenever no two rows tie on the boundary
  // score.
  std::vector<std::size_t> inlier_mask(const Matrix& data,
                                       double contamination,
                                       RowCounts counts) const;

  bool fitted() const noexcept { return !trees_.empty(); }

  // Average unsuccessful-search path length of a BST with n nodes.
  static double average_path_length(std::size_t n) noexcept;

 private:
  struct Node {
    // Leaf when feature == npos; `size` then holds the number of training
    // points that reached the leaf.
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::size_t feature = npos;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::size_t size = 0;
  };

  struct Tree {
    std::vector<Node> nodes;
    double path_length(std::span<const double> point) const;
  };

  Tree build_tree(const Matrix& data, std::vector<std::size_t>& indices,
                  bp::util::Rng& rng) const;

  IsolationForestConfig config_;
  std::vector<Tree> trees_;
  double c_norm_ = 1.0;  // c(max_samples)
};

}  // namespace bp::ml
