#include "serve/serve_metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace bp::serve {

std::size_t latency_bucket(std::uint64_t micros) noexcept {
  const auto it = std::lower_bound(kLatencyBucketBoundsMicros.begin(),
                                   kLatencyBucketBoundsMicros.end(), micros);
  return static_cast<std::size_t>(it - kLatencyBucketBoundsMicros.begin());
}

double MetricsSnapshot::latency_quantile_micros(double q) const noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t c : latency_histogram) total += c;
  if (total == 0) return 0.0;
  // Guard before clamping: std::clamp on NaN would propagate it into
  // the rank arithmetic and return NaN, which every caller would then
  // compare against the budget.  Treat NaN as q = 0.
  if (std::isnan(q)) q = 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < latency_histogram.size(); ++b) {
    if (latency_histogram[b] == 0) continue;
    const std::uint64_t next = cumulative + latency_histogram[b];
    if (rank <= static_cast<double>(next)) {
      const double lo =
          b == 0 ? 0.0
                 : static_cast<double>(kLatencyBucketBoundsMicros[b - 1]);
      // Open-ended last bucket: report its lower bound.
      const double hi =
          b < kLatencyBucketBoundsMicros.size()
              ? static_cast<double>(kLatencyBucketBoundsMicros[b])
              : lo;
      const double fraction =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(latency_histogram[b]);
      return lo + (hi - lo) * fraction;
    }
    cumulative = next;
  }
  return static_cast<double>(kLatencyBucketBoundsMicros.back());
}

std::string MetricsSnapshot::summary() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "scored=%llu cached=%llu flagged=%llu (%.2f%%) shed=%llu "
      "rejected=%llu degraded=%llu stalled=%llu depth=%llu "
      "model=v%llu p50=%.0fus p95=%.0fus p99=%.0fus%s",
      static_cast<unsigned long long>(scored),
      static_cast<unsigned long long>(cached),
      static_cast<unsigned long long>(flagged), 100.0 * flag_rate(),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(degraded),
      static_cast<unsigned long long>(stalled_workers),
      static_cast<unsigned long long>(queue_depth),
      static_cast<unsigned long long>(model_version), p50_micros(),
      p95_micros(), p99_micros(),
      within_budget() ? "" : " [OVER 100ms BUDGET]");
  return buf;
}

ServeMetrics::ServeMetrics(std::size_t n_workers,
                           obs::MetricsRegistry* registry,
                           std::string_view prefix)
    : n_workers_(n_workers == 0 ? 1 : n_workers) {
  if (registry == nullptr) {
    owned_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_.get();
  }
  registry_ = registry;
  const std::string p(prefix);
  scored_ = &registry_->counter(p + "_scored_total",
                                "responses delivered with a detection");
  flagged_ = &registry_->counter(p + "_flagged_total",
                                 "scored responses with detection.flagged");
  shed_ = &registry_->counter(p + "_shed_total",
                              "responses delivered as shed");
  rejected_ = &registry_->counter(p + "_rejected_total",
                                  "submissions refused at admission");
  batches_ = &registry_->counter(p + "_batches_total",
                                 "worker batch iterations");
  cached_ = &registry_->counter(
      p + "_cached_total", "scored responses answered by the verdict cache");
  degraded_ = &registry_->counter(p + "_degraded_total",
                                  "responses from the UA-prior fallback");
  latency_ = &registry_->histogram(
      p + "_latency_micros",
      std::span<const std::uint64_t>(kLatencyBucketBoundsMicros),
      "queue wait + scoring per answered session, microseconds");
  batch_size_ = &registry_->histogram(
      p + "_batch_size", std::span<const std::uint64_t>(kBatchSizeBucketBounds),
      "requests drained per worker batch");
  stalled_workers_ = &registry_->gauge(
      p + "_stalled_workers", "workers stuck inside one batch (watchdog)");
}

void ServeMetrics::record_scored(std::size_t worker, bool flagged,
                                 std::uint64_t latency_micros,
                                 std::uint64_t exemplar_trace_id) noexcept {
  scored_->increment(worker);
  if (flagged) flagged_->increment(worker);
  latency_->observe_exemplar(latency_micros, exemplar_trace_id, worker);
}

void ServeMetrics::record_cached(std::size_t stripe, bool flagged,
                                 std::uint64_t latency_micros,
                                 std::uint64_t exemplar_trace_id) noexcept {
  scored_->increment(stripe);
  cached_->increment(stripe);
  if (flagged) flagged_->increment(stripe);
  latency_->observe_exemplar(latency_micros, exemplar_trace_id, stripe);
}

void ServeMetrics::record_shed(std::size_t worker) noexcept {
  shed_->increment(worker);
}

void ServeMetrics::record_degraded(std::size_t worker, bool flagged,
                                   std::uint64_t latency_micros,
                                   std::uint64_t exemplar_trace_id) noexcept {
  degraded_->increment(worker);
  if (flagged) flagged_->increment(worker);
  latency_->observe_exemplar(latency_micros, exemplar_trace_id, worker);
}

void ServeMetrics::record_batch(std::size_t worker,
                                std::uint64_t batch_size) noexcept {
  batches_->increment(worker);
  batch_size_->observe(batch_size, worker);
}

void ServeMetrics::record_rejected() noexcept { rejected_->increment(); }

MetricsSnapshot ServeMetrics::snapshot() const {
  MetricsSnapshot out;
  out.scored = scored_->value();
  out.flagged = flagged_->value();
  out.shed = shed_->value();
  out.rejected = rejected_->value();
  out.batches = batches_->value();
  out.cached = cached_->value();
  out.degraded = degraded_->value();
  out.stalled_workers =
      static_cast<std::uint64_t>(stalled_workers_->value());
  const std::vector<std::uint64_t> latency = latency_->bucket_counts();
  for (std::size_t b = 0; b < out.latency_histogram.size(); ++b) {
    out.latency_histogram[b] = latency[b];
  }
  const std::vector<std::uint64_t> batch_sizes = batch_size_->bucket_counts();
  for (std::size_t b = 0; b < out.batch_size_histogram.size(); ++b) {
    out.batch_size_histogram[b] = batch_sizes[b];
  }
  return out;
}

}  // namespace bp::serve
