// Content-addressed (fingerprint, UA) -> verdict cache.
//
// Real traffic is heavy-tailed: most sessions present the identical
// per-release fingerprint (the release-popularity model in
// traffic::SessionGenerator reproduces this), so the serving tier keeps
// recomputing the same scale -> PCA -> nearest-centroid answer.  The
// cache short-circuits that work at the admission edge: a session whose
// (feature vector, claimed UA) pair was already scored under the
// *current* model version is answered without touching the queue or a
// worker.
//
// Keying.  Entries are content-addressed by a 128-bit hash pair of the
// raw int32 feature vector plus the claimed UA key (vendor + major
// version — exactly the pair Algorithm 1 consumes).  The primary hash
// picks the slot and is verified together with an independently-mixed
// check hash, so serving a wrong verdict requires two simultaneous
// 64-bit collisions between live entries (~2^-88 at 2^20 occupied
// slots) — far below the synthetic substrate's own noise floor.
//
// Invalidation.  Every entry records the model version that produced
// its verdict, and a lookup matches only when the entry's version
// equals the version the caller is serving.  A ModelRegistry hot swap
// therefore invalidates the whole cache *atomically and for free*: the
// moment version K+1 is published, every version-K entry stops
// matching — no stop-the-world flush, no invalidation storm.  Stale
// entries are lazily overwritten by the first miss that rescoring
// fills.
//
// Concurrency.  The table is a fixed, power-of-two array of
// direct-mapped seqlock slots.  Slot words are atomics bracketed by an
// acquire/release sequence counter (Boehm's seqlock recipe, in its
// fence-free form: writers store each word with release, readers load
// each with acquire, so a reader that sees any word of a concurrent
// write also sees that write's odd sequence number on its re-check).
// Readers never block, writers never block readers, and the whole
// structure is ThreadSanitizer-clean — there is no standalone fence,
// which TSan cannot model.  Concurrent writers to
// one slot are resolved by a CAS on the sequence word; the loser drops
// its insert (inserts are best-effort — the next identical session
// refills).
//
// Counters land in the supplied MetricsRegistry under
// `<prefix>_{hits,misses,stale,evictions,inserts}_total` plus an
// `<prefix>_occupancy` callback gauge and a `<prefix>_capacity` gauge,
// so exporters and /statusz see hit rate and fill level live.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/polygraph.h"
#include "obs/metrics_registry.h"
#include "obs/prof/contention.h"
#include "ua/user_agent.h"

namespace bp::serve {

// Folded counter view; exact once writers are quiescent (same
// consistency model as MetricsSnapshot).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;     // all unusable lookups (incl. stale)
  std::uint64_t stale = 0;      // entry matched the key but an older version
  std::uint64_t evictions = 0;  // live same-version entries displaced
  std::uint64_t inserts = 0;
  std::uint64_t occupancy = 0;  // slots holding any entry, live or stale
  std::uint64_t capacity = 0;

  double hit_rate() const noexcept {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

struct VerdictCacheConfig {
  std::size_t capacity = 1 << 16;  // slots; rounded up to a power of two
  // Registry the cache counters register into; null keeps them in a
  // private registry (isolated, invisible to exporters).
  obs::MetricsRegistry* registry = nullptr;
  std::string metrics_prefix = "bp_cache";
};

class VerdictCache {
 public:
  // The 128-bit content address of a (fingerprint, UA) pair.
  struct Key {
    std::uint64_t primary = 0;  // slot selector + first verifier
    std::uint64_t check = 0;    // independently mixed second verifier
  };

  explicit VerdictCache(VerdictCacheConfig config = {});
  ~VerdictCache();

  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

  // Pure content hash; identical inputs always produce identical keys,
  // and the primary is never 0 (0 marks an empty slot).
  static Key key_of(std::span<const std::int32_t> features,
                    const ua::UserAgent& claimed) noexcept;

  // Wait-free read.  True (and `out` filled) only when the slot holds
  // this exact key at exactly `version`; a key match at any other
  // version counts as stale + miss.  `stripe_hint` routes the counter
  // update (pass the worker index or a request id).
  bool lookup(const Key& key, std::uint64_t version, core::Detection& out,
              std::size_t stripe_hint = 0) noexcept;

  // Best-effort write: a concurrent writer to the same slot makes the
  // loser drop its insert (the next identical session refills it).
  void insert(const Key& key, std::uint64_t version,
              const core::Detection& detection,
              std::size_t stripe_hint = 0) noexcept;

  CacheStats stats() const;
  std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  // 7 atomic words = 60 bytes: one seqlock slot per cache line.
  struct alignas(64) Slot {
    std::atomic<std::uint32_t> seq{0};  // odd = write in progress
    std::atomic<std::uint64_t> key{0};  // 0 = empty
    std::atomic<std::uint64_t> check{0};
    std::atomic<std::uint64_t> version{0};
    std::atomic<std::uint64_t> verdict_a{0};  // predicted | expected
    std::atomic<std::uint64_t> verdict_b{0};  // risk | flagged
    std::atomic<std::uint64_t> distance_bits{0};
  };

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> filled_{0};

  std::unique_ptr<obs::MetricsRegistry> owned_;  // set iff none supplied
  obs::MetricsRegistry* registry_ = nullptr;
  std::string prefix_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* stale_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* inserts_ = nullptr;
  // Contention site for lost insert races (writer already in the slot
  // or CAS lost); see obs/prof/contention.h.
  obs::prof::ContentionSite* insert_cas_losses_ = nullptr;
};

}  // namespace bp::serve
