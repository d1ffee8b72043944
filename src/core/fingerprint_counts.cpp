#include "core/fingerprint_counts.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <unordered_map>

#include "util/parallel.h"
#include "util/rng.h"

namespace bp::core {

namespace {

// Rows per chunk-local map.  Fixed, like every training grain; the
// canonical sort makes the result independent of it anyway.
constexpr std::size_t kCollapseGrain = 16384;

// The corpus as seen by the hash maps: a row is identified by its
// index, hashed and compared through its bit pattern and UA key.
struct RowView {
  const ml::Matrix& features;
  const std::vector<std::uint32_t>& ua_keys;
  const std::vector<std::uint64_t>& hashes;

  bool equal(std::size_t a, std::size_t b) const noexcept {
    if (hashes[a] != hashes[b] || ua_keys[a] != ua_keys[b]) return false;
    const auto ra = features.row(a);
    const auto rb = features.row(b);
    return std::memcmp(ra.data(), rb.data(), ra.size_bytes()) == 0;
  }
};

std::uint64_t row_hash(std::span<const double> row, std::uint32_t ua_key) {
  std::uint64_t h = util::mix64(ua_key);
  for (double v : row) {
    h ^= std::bit_cast<std::uint64_t>(v);
    h *= 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
  }
  return h;
}

// Distinct rows in first-seen order, each with its running count.
class DistinctRows {
 public:
  explicit DistinctRows(const RowView& view)
      : index_(0, Hash{&view}, Equal{&view}) {}

  void add(std::size_t row, std::size_t count) {
    const auto [it, inserted] = index_.try_emplace(row, rows_.size());
    if (inserted) {
      rows_.push_back(row);
      counts_.push_back(count);
    } else {
      counts_[it->second] += count;
    }
  }

  const std::vector<std::size_t>& rows() const noexcept { return rows_; }
  const std::vector<std::size_t>& counts() const noexcept { return counts_; }

 private:
  struct Hash {
    const RowView* view;
    std::size_t operator()(std::size_t row) const noexcept {
      return static_cast<std::size_t>(view->hashes[row]);
    }
  };
  struct Equal {
    const RowView* view;
    bool operator()(std::size_t a, std::size_t b) const noexcept {
      return view->equal(a, b);
    }
  };

  std::unordered_map<std::size_t, std::size_t, Hash, Equal> index_;
  std::vector<std::size_t> rows_;
  std::vector<std::size_t> counts_;
};

// Order-preserving image of a double's bit pattern: numeric order for
// every non-NaN value, -0.0 just before +0.0, and a total order over
// all bit patterns (so distinct rows never compare equal).
std::uint64_t order_key(double v) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

}  // namespace

FingerprintCounts FingerprintCounts::collapse(
    const ml::Matrix& features, std::span<const ua::UserAgent> user_agents) {
  assert(features.rows() == user_agents.size());
  const std::size_t n = features.rows();
  std::vector<std::uint32_t> ua_keys(n);
  std::vector<std::uint64_t> hashes(n);
  const RowView view{features, ua_keys, hashes};

  // Chunk-local maps: each chunk hashes its own rows and collapses them.
  const std::size_t chunks = (n + kCollapseGrain - 1) / kCollapseGrain;
  std::vector<DistinctRows> local(chunks, DistinctRows(view));
  util::parallel_for(std::size_t{0}, chunks, 1,
                     [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) {
      const std::size_t first = c * kCollapseGrain;
      const std::size_t last = std::min(n, first + kCollapseGrain);
      for (std::size_t r = first; r < last; ++r) {
        ua_keys[r] = user_agents[r].key();
        hashes[r] = row_hash(features.row(r), ua_keys[r]);
        local[c].add(r, 1);
      }
    }
  });

  // Merge in chunk order, then sort into canonical order: the sorted
  // entries are a function of the distinct (bits, key) pairs alone.
  DistinctRows merged(view);
  for (const DistinctRows& part : local) {
    for (std::size_t i = 0; i < part.rows().size(); ++i) {
      merged.add(part.rows()[i], part.counts()[i]);
    }
  }
  std::vector<std::size_t> order(merged.rows().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t ra = merged.rows()[a];
    const std::size_t rb = merged.rows()[b];
    const auto va = features.row(ra);
    const auto vb = features.row(rb);
    for (std::size_t c = 0; c < va.size(); ++c) {
      const std::uint64_t ka = order_key(va[c]);
      const std::uint64_t kb = order_key(vb[c]);
      if (ka != kb) return ka < kb;
    }
    return ua_keys[ra] < ua_keys[rb];
  });

  FingerprintCounts out;
  out.features = ml::Matrix(order.size(), features.cols());
  out.user_agents.reserve(order.size());
  out.counts.reserve(order.size());
  for (std::size_t e = 0; e < order.size(); ++e) {
    const std::size_t row = merged.rows()[order[e]];
    const auto src = features.row(row);
    std::copy(src.begin(), src.end(), out.features.row(e).begin());
    const std::uint32_t key = ua_keys[row];
    out.user_agents.push_back(ua::UserAgent{static_cast<ua::Vendor>(key >> 16),
                                            static_cast<int>(key & 0xffff)});
    out.counts.push_back(merged.counts()[order[e]]);
  }
  return out;
}

}  // namespace bp::core
