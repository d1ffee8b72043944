// FingerprintCounts: the training corpus collapsed to its multiset of
// distinct (feature row, UA key) entries, in canonical order.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/fingerprint_counts.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace bp::core {
namespace {

const ua::UserAgent kChrome112{ua::Vendor::kChrome, 112, ua::Os::kWindows10};
const ua::UserAgent kChrome112Mac{ua::Vendor::kChrome, 112,
                                  ua::Os::kMacSonoma};
const ua::UserAgent kFirefox110{ua::Vendor::kFirefox, 110, ua::Os::kLinux};

void expect_same(const FingerprintCounts& a, const FingerprintCounts& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.user_agents, b.user_agents);
  ASSERT_EQ(a.features.rows(), b.features.rows());
  for (std::size_t r = 0; r < a.features.rows(); ++r) {
    for (std::size_t c = 0; c < a.features.cols(); ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.features(r, c)),
                std::bit_cast<std::uint64_t>(b.features(r, c)));
    }
  }
}

TEST(FingerprintCounts, CollapsesByBitsAndUaKeyInCanonicalOrder) {
  const ml::Matrix features = ml::Matrix::from_rows({
      {3, 1},
      {1, 2},
      {3, 1},
      {1, 2},
      {1, 2},
      {0.0, 5},
      {-0.0, 5},  // equal value, different bits: a distinct entry
  });
  const std::vector<ua::UserAgent> uas = {
      kChrome112, kChrome112, kChrome112Mac,  // OS is not part of the key
      kChrome112, kFirefox110, kChrome112, kChrome112};
  const FingerprintCounts corpus = FingerprintCounts::collapse(features, uas);

  ASSERT_EQ(corpus.size(), 5u);
  // Sorted by feature values (-0.0 before +0.0), then UA key.
  const std::vector<std::vector<double>> rows = {
      {-0.0, 5}, {0.0, 5}, {1, 2}, {1, 2}, {3, 1}};
  for (std::size_t e = 0; e < rows.size(); ++e) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(corpus.features(e, c)),
                std::bit_cast<std::uint64_t>(rows[e][c]))
          << "entry " << e;
    }
  }
  EXPECT_EQ(corpus.counts, (std::vector<std::size_t>{1, 1, 2, 1, 2}));
  EXPECT_EQ(corpus.user_agents[2].vendor, ua::Vendor::kChrome);
  EXPECT_EQ(corpus.user_agents[3].vendor, ua::Vendor::kFirefox);
  // Entries carry the key's UA: vendor and version, default OS.
  EXPECT_EQ(corpus.user_agents[4],
            (ua::UserAgent{ua::Vendor::kChrome, 112, ua::Os::kWindows10}));
}

// Enough rows for several collapse chunks, in a shuffled order, at
// several thread counts: the multiset alone decides the result.
TEST(FingerprintCounts, IndependentOfRowOrderAndThreadCount) {
  util::Rng rng(3);
  ml::Matrix features;
  std::vector<ua::UserAgent> uas;
  for (std::size_t i = 0; i < 50'000; ++i) {
    features.push_row(std::vector<double>{
        static_cast<double>(rng.below(9)), static_cast<double>(rng.below(4)),
        static_cast<double>(rng.below(3))});
    uas.push_back({ua::Vendor::kChrome, 100 + static_cast<int>(rng.below(3))});
  }
  const FingerprintCounts reference =
      FingerprintCounts::collapse(features, uas);
  EXPECT_EQ(reference.size(), 9u * 4u * 3u * 3u);
  EXPECT_EQ(std::accumulate(reference.counts.begin(), reference.counts.end(),
                            std::size_t{0}),
            features.rows());

  std::vector<std::size_t> order(features.rows());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  ml::Matrix shuffled;
  std::vector<ua::UserAgent> shuffled_uas;
  for (std::size_t r : order) {
    shuffled.push_row(features.row(r));
    shuffled_uas.push_back(uas[r]);
  }
  for (std::size_t threads : {1, 4}) {
    util::set_parallel_threads(threads);
    expect_same(FingerprintCounts::collapse(shuffled, shuffled_uas), reference);
  }
  util::set_parallel_threads(0);
}

}  // namespace
}  // namespace bp::core
