// Concurrent scoring engine: the serving tier of §6.5.
//
// A sharded pool of worker threads drains a bounded MPMC queue in
// batches and scores each session with the registry's current model
// snapshot:
//
//   submit()  ->  BoundedQueue  ->  worker pool  ->  ResponseCallback
//                                     |  one ModelSnapshot per batch
//                                     |  one BatchScratch per worker
//                                     v
//                                 ServeMetrics (per-worker counters)
//
// Invariants the tests pin down:
//   * every admitted request produces exactly one response — a score
//     (kScored), an explicit shed (kShed, stopped before any model was
//     published) or a model-less fallback verdict (kDegraded); a
//     rejected submission produces none and is reported synchronously;
//   * a batch is scored by exactly one published model version (the
//     snapshot is taken once per batch), and every response names the
//     version that produced it (0 for sheds/degraded);
//   * the worker hot path performs no per-session allocation: requests
//     are moved through the queue and each drained batch is scored in
//     one fused pass through Polygraph::score_batch (a per-worker
//     BatchScratch holds the SoA panels) — the same kernel a
//     single-session Polygraph::score runs, so the same bits;
//   * every answer — scored, cached (at submit or at pickup), degraded,
//     shed — goes out through one respond step that records
//     the status's metric, then the audit record, then the trace spans,
//     and calls the response callback last;
//   * with EngineConfig::cache_capacity > 0, a verdict cache
//     short-circuits repeat (fingerprint, UA) sessions at submit() and
//     again at batch pickup; cached responses are kScored with
//     ScoreResponse::cached set, always carry the version whose model
//     produced the verdict, and a hot swap atomically invalidates every
//     older entry (version-keyed lookups — see serve/verdict_cache.h).
//
// Failure posture (the robustness layer):
//   * the bounded queue's overflow policy (kBlock or kReject) is the
//     engine's only admission control: overload is pushed back to the
//     submitter or refused synchronously, never answered late;
//   * `degrade_without_model` keeps the engine answering when nothing
//     is published: the UA-prior fallback (serve/degraded.h) scores the
//     claimed UA alone and the response is marked kDegraded, instead of
//     requests queueing unboundedly behind a model that may never come;
//   * a watchdog thread (armed via `watchdog_interval`) detects workers
//     stuck inside one batch longer than `stall_threshold` and surfaces
//     the count as MetricsSnapshot::stalled_workers.
//
// The callback runs on worker threads (and, for submit-side cache hits,
// on the submitting thread); it must be thread-safe and cheap.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "obs/audit.h"
#include "obs/trace.h"
#include "serve/bounded_queue.h"
#include "serve/model_registry.h"
#include "serve/serve_metrics.h"
#include "serve/verdict_cache.h"
#include "ua/user_agent.h"

namespace bp::serve {

struct ScoreRequest {
  std::uint64_t id = 0;                 // caller-chosen correlation id
  std::vector<std::int32_t> features;   // native session feature storage
  ua::UserAgent claimed;
  std::chrono::steady_clock::time_point admitted_at{};  // set by submit()
  // Content address of (features, claimed); computed once by submit()
  // when the verdict cache is enabled, so the worker-side lookup and
  // the post-score insert never rehash.
  VerdictCache::Key cache_key{};
  // Cross-hop trace context adopted from the wire (net/wire.h `t:`
  // segment).  trace_id == 0: no inbound context — local tracing rules
  // apply (trace id = request id, the sink's own sampling decision,
  // spans 1/2/3).  trace_id != 0: the request's spans join the client's
  // trace, parented under trace_parent in the adopted span-id block
  // (see adopted_span_base), and trace_sampled — the *client's*
  // head-sampling decision — overrides the local sink's in both
  // directions, so a sampled trace assembles completely or not at all.
  std::uint64_t trace_id = 0;
  std::uint32_t trace_parent = 0;
  bool trace_sampled = false;
};

// Span-id block for an adopted trace context: each distinct client
// parent span owns a disjoint 16-wide id range on the server side, so
// the two server visits of a hedged twin (distinct attempt parent
// spans, one shared trace id) can never collide.  Within a block:
// base+1 "server_request" (parented under the client span), base+2
// "queue_wait", base+3 terminal, base+4 "slot_admission", base+5
// "serialize" (the last two recorded by net::ScoreServer).
inline constexpr std::uint32_t adopted_span_base(
    std::uint32_t trace_parent) noexcept {
  return trace_parent * 16u;
}

enum class ResponseStatus : std::uint8_t {
  kScored,
  kShed,  // stopped before any model was published; detection empty
  kDegraded,  // no model published; UA-prior fallback verdict in detection
};

struct ScoreResponse {
  std::uint64_t id = 0;
  ResponseStatus status = ResponseStatus::kScored;
  core::Detection detection;        // valid iff kScored or kDegraded
  std::uint64_t model_version = 0;  // publishing version that scored it
  std::uint32_t worker = 0;         // scoring worker (0 for sheds)
  std::chrono::microseconds latency{0};  // admission -> response
  // kScored answered by the verdict cache — the detection was produced
  // by `model_version` for an identical (fingerprint, UA) earlier and
  // replayed without rescoring.  Audited with AuditRecord::kCached.
  bool cached = false;
};

enum class SubmitResult : std::uint8_t {
  kAdmitted,  // a response will follow
  kRejected,  // queue full under kReject; no response follows
  kStopped,   // engine stopped; no response follows
};

struct EngineConfig {
  std::size_t workers = 0;  // 0 = std::thread::hardware_concurrency()
  std::size_t queue_capacity = 4096;
  std::size_t max_batch = 32;  // requests scored per snapshot load
  OverflowPolicy overflow_policy = OverflowPolicy::kBlock;

  // Slot count of the content-addressed (fingerprint, UA) -> verdict
  // cache (rounded up to a power of two); 0 disables it.  With the
  // cache on, submit() answers repeat sessions synchronously on the
  // submitting thread (the response callback runs before submit
  // returns), and workers check it again per request against the
  // batch's snapshot version before falling through to the SoA kernel.  Version-keyed entries make a
  // registry hot swap an atomic whole-cache invalidation.  Counters
  // appear under `<metrics_prefix>_cache_*`.
  std::size_t cache_capacity = 0;

  // Answer with the UA-prior fallback (kDegraded) when no model is
  // published, instead of parking requests until one appears.
  bool degrade_without_model = false;

  // Watchdog cadence; zero disables the watchdog thread.
  std::chrono::milliseconds watchdog_interval{0};
  // A worker inside one batch for longer than this is counted stalled.
  std::chrono::milliseconds stall_threshold{250};

  // ---- observability (all optional; null = that plane disabled) ----
  //
  // Registry to export serving metrics into (alongside drift, retrain,
  // fault and training telemetry).  Null keeps the engine's metrics in
  // a private registry — isolated, but invisible to exporters.  Two
  // engines sharing a registry must use distinct metrics_prefix values.
  // The engine also registers two render-time callback gauges,
  // `<prefix>_queue_depth` and `<prefix>_model_version` (removed again
  // on stop()), so exported gauges are exactly as fresh as the render —
  // the uniform gauge semantics MetricsSnapshot documents.
  obs::MetricsRegistry* registry = nullptr;
  std::string metrics_prefix = "bp_serve";

  // Request-path tracing.  Per sampled request (trace id = request id,
  // decided deterministically by the sink) the engine records spans:
  //   1 "request"    admission -> response          (root)
  //   2 "queue_wait" admission -> batch pickup      (parent 1)
  //   3 terminal     "score" | "cache_hit" | "degrade" | "shed" (parent 1)
  // A request carrying an adopted cross-hop context (trace_id != 0)
  // instead records "server_request"/"queue_wait"/terminal at
  // adopted_span_base(trace_parent)+{1,2,3} under the client's trace
  // id, honoring the client's sampling decision over the local sink's.
  obs::TraceSink* trace = nullptr;

  // Decision audit trail: every flagged (and sampled unflagged) scored
  // or degraded response records its Algorithm-1 evidence.
  obs::AuditTrail* audit = nullptr;
};

class ScoringEngine {
 public:
  using ResponseCallback = std::function<void(const ScoreResponse&)>;

  // Starts the worker pool immediately.  `registry` must outlive the
  // engine; scoring waits (requests queue up) until the registry has a
  // published model, unless degrade_without_model answers them first.
  // On every answer path `on_response` runs last: by the time a caller
  // holds a verdict, its audit record and trace spans already exist.
  ScoringEngine(const ModelRegistry& registry, EngineConfig config,
                ResponseCallback on_response);
  ~ScoringEngine();

  ScoringEngine(const ScoringEngine&) = delete;
  ScoringEngine& operator=(const ScoringEngine&) = delete;

  // Thread-safe admission.  On kAdmitted the engine owns the request
  // and will deliver exactly one response for it.  The const& overload
  // is the cache fast path's friend: a submit-side hit answers without
  // ever copying the request (the rvalue overload is identical for
  // hits; on a miss the const& form copies, exactly as a by-value
  // parameter would have).
  SubmitResult submit(ScoreRequest&& request);
  SubmitResult submit(const ScoreRequest& request);

  // Blocks until every admitted request has been responded to.
  // Producers should be quiescent (or the wait is racy by nature).
  void drain();

  // Closes the queue, scores what was already admitted, joins workers.
  // Idempotent; the destructor calls it.
  void stop();

  // Counter fold + engine context (queue depth, registry version).
  MetricsSnapshot metrics() const;

  // Verdict-cache counters; all-zero when the cache is disabled.
  CacheStats cache_stats() const {
    return cache_ != nullptr ? cache_->stats() : CacheStats{};
  }
  const VerdictCache* cache() const noexcept { return cache_.get(); }

  const EngineConfig& config() const noexcept { return config_; }
  std::size_t queue_depth() const { return queue_.size(); }

 private:
  // Per-worker liveness beacon for the watchdog.  Microseconds since
  // steady_clock epoch when the worker entered its current batch; 0
  // while idle (waiting in pop_batch).
  struct alignas(64) Heartbeat {
    std::atomic<std::int64_t> busy_since_us{0};
  };

  void worker_loop(std::uint32_t worker_index);
  void watchdog_loop();
  // Records the request's spans; `admitted_us` is request.admitted_at
  // except on the submit-side cache path, which never stamps one.
  void record_request_trace(const ScoreRequest& request, const char* terminal,
                            std::int64_t admitted_us,
                            std::int64_t picked_up_us,
                            std::int64_t done_us) const;
  // The trace id this request's spans land under when its trace is
  // sampled, 0 otherwise — the latency histogram's exemplar.
  std::uint64_t exemplar_trace_id(const ScoreRequest& request) const noexcept;
  void record_audit(const ScoreRequest& request, const ScoreResponse& response);
  // The one answer path.  Records the status's metric, the audit record
  // and the trace spans (terminal span named by the status; admission
  // stamp done_us - response.latency), then calls on_response_.  Does
  // not touch the completion accounting; callers do.
  void respond(const ScoreRequest& request, const ScoreResponse& response,
               std::int64_t picked_up_us, std::int64_t done_us);
  // respond() with kShed and no verdict, picked up and answered now.
  void respond_shed(const ScoreRequest& request, std::uint32_t worker_index);
  // Submit-side cache fast path; true = answered, request not admitted.
  bool try_cached_submit(const ScoreRequest& request);
  // The queue path both public submit overloads fall through to after
  // a cache miss (or with the cache off).
  SubmitResult submit_miss(ScoreRequest&& request);
  void note_completed(std::uint64_t n);
  void retract_admission();

  const ModelRegistry& registry_;
  EngineConfig config_;
  ResponseCallback on_response_;
  BoundedQueue<ScoreRequest> queue_;
  ServeMetrics metrics_;
  // Declared after metrics_: the cache registers a callback gauge into
  // metrics_.registry() and must unhook (destruct) first.
  std::unique_ptr<VerdictCache> cache_;

  // On separate cache lines: every worker bumps completed_ while every
  // submitter bumps admitted_; sharing a line put the two hottest
  // atomics in the process into one ping-ponging cache line.
  alignas(64) std::atomic<std::uint64_t> admitted_{0};
  alignas(64) std::atomic<std::uint64_t> completed_{0};
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  std::atomic<bool> stopping_{false};
  std::mutex stop_mutex_;
  std::vector<std::thread> workers_;
  // Render-time callback gauges registered into config_.registry; they
  // read live engine state, so stop() must remove them before the
  // engine can be destroyed under a longer-lived registry.
  bool callback_gauges_registered_ = false;

  std::vector<Heartbeat> heartbeats_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  std::thread watchdog_;
};

}  // namespace bp::serve
