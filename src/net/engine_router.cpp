#include "net/engine_router.h"

#include <algorithm>
#include <thread>

namespace bp::net {

namespace {

std::size_t resolve_shards(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(2, hw / 4);
}

// splitmix64 finalizer: session ids are often sequential, and a plain
// modulus would then stripe neighbours across shards while leaving any
// stride pattern intact.  The finalizer's avalanche makes the shard
// choice uniform regardless of how the caller mints ids.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

EngineRouter::EngineRouter(const serve::ModelRegistry& registry,
                           RouterConfig config,
                           serve::ScoringEngine::ResponseCallback on_response)
    : registry_(registry) {
  const std::size_t n_shards = resolve_shards(config.shards);
  engines_.reserve(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i) {
    serve::EngineConfig shard_config = config.engine;
    shard_config.metrics_prefix =
        config.engine.metrics_prefix + "_shard" + std::to_string(i);
    engines_.push_back(std::make_unique<serve::ScoringEngine>(
        registry, std::move(shard_config), on_response));
  }
}

EngineRouter::~EngineRouter() { stop(); }

std::size_t EngineRouter::shard_of(std::uint64_t session_id) const noexcept {
  return static_cast<std::size_t>(mix64(session_id) % engines_.size());
}

serve::SubmitResult EngineRouter::submit(std::uint64_t session_id,
                                         serve::ScoreRequest request) {
  return engines_[shard_of(session_id)]->submit(std::move(request));
}

void EngineRouter::drain() {
  for (auto& engine : engines_) engine->drain();
}

void EngineRouter::stop() {
  for (auto& engine : engines_) engine->stop();
}

serve::MetricsSnapshot EngineRouter::shard_metrics(std::size_t shard) const {
  return engines_[shard]->metrics();
}

serve::MetricsSnapshot EngineRouter::metrics() const {
  serve::MetricsSnapshot total;
  for (const auto& engine : engines_) {
    const serve::MetricsSnapshot shard = engine->metrics();
    total.scored += shard.scored;
    total.flagged += shard.flagged;
    total.shed += shard.shed;
    total.rejected += shard.rejected;
    total.batches += shard.batches;
    total.cached += shard.cached;
    total.degraded += shard.degraded;
    total.stalled_workers += shard.stalled_workers;
    total.queue_depth += shard.queue_depth;
    for (std::size_t b = 0; b < total.latency_histogram.size(); ++b) {
      total.latency_histogram[b] += shard.latency_histogram[b];
    }
    for (std::size_t b = 0; b < total.batch_size_histogram.size(); ++b) {
      total.batch_size_histogram[b] += shard.batch_size_histogram[b];
    }
  }
  total.model_version = registry_.version();
  return total;
}

serve::CacheStats EngineRouter::cache_stats() const {
  serve::CacheStats total;
  for (const auto& engine : engines_) {
    const serve::CacheStats shard = engine->cache_stats();
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.stale += shard.stale;
    total.evictions += shard.evictions;
    total.inserts += shard.inserts;
    total.occupancy += shard.occupancy;
    total.capacity += shard.capacity;
  }
  return total;
}

}  // namespace bp::net
