// The training corpus as a multiset of fingerprints.
//
// A coarse fingerprint puts users into large anonymity sets (the
// paper's Fig. 5): a 200k-session corpus holds only a few thousand
// distinct (28-feature vector, claimed UA) pairs.  Training collapses
// the corpus once into those distinct pairs and their counts, and every
// stage then runs weighted on the entries (ml::RowCounts), so a retrain
// costs O(distinct fingerprints) after one hashing pass over the rows.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/matrix.h"
#include "ua/user_agent.h"

namespace bp::core {

struct FingerprintCounts {
  // One row per distinct (feature row, UA key) pair, in canonical order.
  ml::Matrix features;
  // The entry's user-agent, rebuilt from its key (vendor + major
  // version; the key, like the cluster table, ignores the OS).
  std::vector<ua::UserAgent> user_agents;
  // Corpus rows collapsed into the entry (each >= 1).
  std::vector<std::size_t> counts;

  std::size_t size() const noexcept { return counts.size(); }

  // Collapse `features` (one row per session) and the per-row claimed
  // user-agents.  Rows are equal when their bit patterns are equal and
  // their UA keys match.  Rows are hashed in fixed-size chunks with
  // local maps merged in chunk order, then the entries are sorted by
  // (feature values, UA key), so the result depends only on the
  // multiset of rows: not on their order, nor on the thread count.
  static FingerprintCounts collapse(const ml::Matrix& features,
                                    std::span<const ua::UserAgent> user_agents);
};

}  // namespace bp::core
