#include "serve/verdict_cache.h"

#include <bit>
#include <limits>

#include "obs/prof/contention.h"

namespace bp::serve {
namespace {

// splitmix64 finalizer — the same mix the EngineRouter uses for shard
// affinity, applied here to whiten the FNV accumulators.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::size_t round_up_pow2(std::size_t n) noexcept {
  if (n < 2) return 2;
  return std::bit_ceil(n);
}

// Detection <-> three 64-bit words.  expected_cluster's nullopt maps to
// an all-ones sentinel (cluster ids are tiny — k is 11 in production).
constexpr std::uint32_t kNoExpected = 0xffffffffu;

std::uint64_t pack_verdict_a(const core::Detection& d) noexcept {
  const std::uint32_t expected =
      d.expected_cluster ? static_cast<std::uint32_t>(*d.expected_cluster)
                         : kNoExpected;
  return (static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(d.predicted_cluster))
          << 32) |
         expected;
}

std::uint64_t pack_verdict_b(const core::Detection& d) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(d.risk_factor))
          << 1) |
         (d.flagged ? 1u : 0u);
}

core::Detection unpack(std::uint64_t a, std::uint64_t b,
                       std::uint64_t distance_bits) noexcept {
  core::Detection d;
  d.predicted_cluster = static_cast<std::uint32_t>(a >> 32);
  const std::uint32_t expected = static_cast<std::uint32_t>(a);
  if (expected != kNoExpected) d.expected_cluster = expected;
  d.flagged = (b & 1) != 0;
  d.risk_factor = static_cast<std::int32_t>(static_cast<std::uint32_t>(b >> 1));
  d.centroid_distance2 = std::bit_cast<double>(distance_bits);
  return d;
}

}  // namespace

VerdictCache::VerdictCache(VerdictCacheConfig config)
    : slots_(round_up_pow2(config.capacity)),
      mask_(slots_.size() - 1),
      prefix_(std::move(config.metrics_prefix)) {
  if (config.registry != nullptr) {
    registry_ = config.registry;
  } else {
    owned_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_.get();
  }
  hits_ = &registry_->counter(prefix_ + "_hits_total",
                              "verdicts served straight from the cache");
  misses_ = &registry_->counter(prefix_ + "_misses_total",
                                "lookups that had to fall through to scoring");
  stale_ = &registry_->counter(
      prefix_ + "_stale_total",
      "misses whose entry matched the key but an older model version");
  evictions_ = &registry_->counter(
      prefix_ + "_evictions_total",
      "live same-version entries displaced by a colliding key");
  inserts_ = &registry_->counter(prefix_ + "_inserts_total",
                                 "verdicts written into the cache");
  registry_->gauge(prefix_ + "_capacity", "cache slot count")
      .set(static_cast<double>(slots_.size()));
  registry_->gauge_callback(
      prefix_ + "_occupancy",
      [this] {
        return static_cast<double>(filled_.load(std::memory_order_relaxed));
      },
      "slots holding an entry (live or stale)");
  // Resolved once: record_event on the hot insert path must not pay the
  // registry's name lookup.
  insert_cas_losses_ =
      &obs::prof::ContentionRegistry::instance().site("serve.cache.insert_cas");
}

VerdictCache::~VerdictCache() {
  // The occupancy callback captures `this`; unhook it before the fields
  // it reads are torn down.
  registry_->remove(prefix_ + "_occupancy");
}

VerdictCache::Key VerdictCache::key_of(std::span<const std::int32_t> features,
                                       const ua::UserAgent& claimed) noexcept {
  // Two FNV-1a-style streams over the same words with independent bases
  // and (odd) multipliers, each whitened by splitmix64.  An engineered
  // collision in one stream does not survive the other.
  std::uint64_t h1 = 0xcbf29ce484222325ULL;  // FNV offset basis
  std::uint64_t h2 = 0x6c62272e07bb0142ULL;  // FNV-0 1024-bit basis word
  auto update = [&](std::uint64_t word) noexcept {
    h1 = (h1 ^ word) * 0x00000100000001b3ULL;  // FNV prime
    h2 = (h2 ^ word) * 0x9e3779b97f4a7c15ULL;  // odd golden-ratio constant
  };
  // Feature words are folded in pairs: the multiply chains are the
  // critical path of the submit-side hit (two dependent imuls per
  // word), and halving their length costs nothing — a pair-packed
  // word carries both values exactly, and the trailing length word
  // keeps {1, 2} and {1, 2, 0} distinct.
  std::size_t i = 0;
  for (; i + 1 < features.size(); i += 2) {
    update(static_cast<std::uint32_t>(features[i]) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                features[i + 1]))
            << 32));
  }
  if (i < features.size()) {
    update(static_cast<std::uint32_t>(features[i]));
  }
  update(claimed.key());
  update(static_cast<std::uint64_t>(features.size()));
  Key key{mix64(h1), mix64(h2 ^ h1)};
  if (key.primary == 0) key.primary = 0x9e3779b97f4a7c15ULL;  // 0 marks empty
  return key;
}

bool VerdictCache::lookup(const Key& key, std::uint64_t version,
                          core::Detection& out,
                          std::size_t stripe_hint) noexcept {
  const Slot& slot = slots_[key.primary & mask_];
  // One retry absorbs the common torn-read case (a writer finished
  // mid-read); a slot under sustained rewrite is treated as a miss
  // rather than spinning.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const std::uint32_t seq_before = slot.seq.load(std::memory_order_acquire);
    if ((seq_before & 1) != 0) continue;  // write in progress
    const std::uint64_t entry_key = slot.key.load(std::memory_order_acquire);
    const std::uint64_t entry_check =
        slot.check.load(std::memory_order_acquire);
    const std::uint64_t entry_version =
        slot.version.load(std::memory_order_acquire);
    const std::uint64_t verdict_a =
        slot.verdict_a.load(std::memory_order_acquire);
    const std::uint64_t verdict_b =
        slot.verdict_b.load(std::memory_order_acquire);
    const std::uint64_t distance_bits =
        slot.distance_bits.load(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq_before) {
      continue;  // torn by a concurrent writer; retry once
    }
    if (entry_key != key.primary || entry_check != key.check) {
      break;  // empty slot or a different fingerprint lives here
    }
    if (entry_version != version) {
      // The verdict exists but was produced by another model version; a
      // hot swap leaves every old entry in exactly this state.
      stale_->increment(stripe_hint);
      break;
    }
    out = unpack(verdict_a, verdict_b, distance_bits);
    hits_->increment(stripe_hint);
    return true;
  }
  misses_->increment(stripe_hint);
  return false;
}

void VerdictCache::insert(const Key& key, std::uint64_t version,
                          const core::Detection& detection,
                          std::size_t stripe_hint) noexcept {
  Slot& slot = slots_[key.primary & mask_];
  std::uint32_t seq = slot.seq.load(std::memory_order_relaxed);
  if ((seq & 1) != 0) {
    insert_cas_losses_->record_event();
    return;  // another writer holds the slot
  }
  if (!slot.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
    insert_cas_losses_->record_event();
    return;  // lost the race; inserts are best-effort
  }
  // Exclusive between the CAS and the release below.  Each word is a
  // release store, so a reader that loads it (acquire) is ordered after
  // the odd sequence number above and fails its re-check.
  const std::uint64_t old_key = slot.key.load(std::memory_order_relaxed);
  const std::uint64_t old_version =
      slot.version.load(std::memory_order_relaxed);
  slot.key.store(key.primary, std::memory_order_release);
  slot.check.store(key.check, std::memory_order_release);
  slot.version.store(version, std::memory_order_release);
  slot.verdict_a.store(pack_verdict_a(detection), std::memory_order_release);
  slot.verdict_b.store(pack_verdict_b(detection), std::memory_order_release);
  slot.distance_bits.store(std::bit_cast<std::uint64_t>(
                               detection.centroid_distance2),
                           std::memory_order_release);
  slot.seq.store(seq + 2, std::memory_order_release);
  inserts_->increment(stripe_hint);
  if (old_key == 0) {
    filled_.fetch_add(1, std::memory_order_relaxed);
  } else if (old_key != key.primary && old_version == version) {
    // Overwrote a *live* entry of the current version — a genuine
    // capacity eviction, unlike reclaiming a stale or same-key slot.
    evictions_->increment(stripe_hint);
  }
}

CacheStats VerdictCache::stats() const {
  CacheStats stats;
  stats.hits = hits_->value();
  stats.misses = misses_->value();
  stats.stale = stale_->value();
  stats.evictions = evictions_->value();
  stats.inserts = inserts_->value();
  stats.occupancy = filled_.load(std::memory_order_relaxed);
  stats.capacity = slots_.size();
  return stats;
}

}  // namespace bp::serve
