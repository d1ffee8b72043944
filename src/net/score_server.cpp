#include "net/score_server.h"

#include <algorithm>
#include <utility>

#include "obs/export.h"
#include "obs/prof/prof.h"
#include "obs/trace.h"

namespace bp::net {

namespace {

HttpResponse plain(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.content_type = "text/plain";
  response.body = std::move(body);
  return response;
}

}  // namespace

ScoreServer::ScoreServer(const serve::ModelRegistry& models,
                         ScoreServerConfig config)
    : config_(std::move(config)),
      slots_(std::max<std::size_t>(config_.listener.handler_threads, 1)),
      router_(models, config_.router,
              [this](const serve::ScoreResponse& response) {
                dispatch(response);
              }) {
  free_.reserve(slots_.size());
  for (std::size_t i = slots_.size(); i > 0; --i) {
    free_.push_back(static_cast<std::uint32_t>(i - 1));
  }
  if (config_.registry != nullptr) {
    config_.registry->gauge_callback(
        config_.metrics_prefix + "_inflight",
        [this] { return static_cast<std::int64_t>(inflight()); });
    gauge_registered_ = true;
    trace_adopted_ = &config_.registry->counter(
        "bp_trace_adopted_total",
        "request frames whose t: trace context this ingress adopted");
  }
  ListenerConfig listener_config = config_.listener;
  listener_config.keep_alive = true;
  listener_.emplace(listener_config,
                    [this](const HttpRequest& request) {
                      return handle(request);
                    });
  if (config_.registry != nullptr) {
    // The listener's serving + hardening counters (reaps, slow-loris
    // cutoffs) ride the same exposition as the ingress gauges.
    obs::register_http_listener_metrics(*config_.registry, *listener_,
                                        config_.metrics_prefix + "_http");
  }
}

ScoreServer::~ScoreServer() {
  stop();
  if (gauge_registered_ && config_.registry != nullptr) {
    config_.registry->remove(config_.metrics_prefix + "_inflight");
  }
  if (config_.registry != nullptr) {
    obs::remove_http_listener_metrics(*config_.registry,
                                      config_.metrics_prefix + "_http");
  }
}

std::optional<std::uint32_t> ScoreServer::acquire_slot() {
  std::lock_guard<std::mutex> lock(free_mutex_);
  if (free_.empty()) return std::nullopt;
  const std::uint32_t index = free_.back();
  free_.pop_back();
  return index;
}

void ScoreServer::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  {
    std::lock_guard<std::mutex> lock(slot.mutex);
    slot.done = false;
    slot.abandoned = false;
  }
  std::lock_guard<std::mutex> lock(free_mutex_);
  free_.push_back(index);
}

void ScoreServer::dispatch(const serve::ScoreResponse& response) {
  // The exactly-once engine contract means this id was minted by an
  // acquire_slot() whose handler is either waiting or has abandoned the
  // slot after a timeout — never anything else.
  const auto index = static_cast<std::uint32_t>(response.id);
  Slot& slot = slots_[index];
  bool reclaim = false;
  {
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.abandoned) {
      reclaim = true;  // the handler gave up; the slot is ours to free
    } else {
      slot.response = response;
      slot.done = true;
    }
  }
  if (reclaim) {
    release_slot(index);
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  } else {
    slot.cv.notify_one();
  }
}

HttpResponse ScoreServer::handle(const HttpRequest& request) {
  if (request.method != "POST") {
    return plain(405, "method not allowed\n");
  }
  if (request.path != "/score") {
    return plain(404, "not found\n");
  }
  if (stopping_.load(std::memory_order_acquire)) {
    return plain(503, "shutting down\n");
  }

  // Parse the frame into thread-local scratch: the feature vector and
  // render buffers keep their capacity across requests on this handler
  // thread, so the steady-state path allocates nothing.
  thread_local WireScoreRequest wire_request;
  thread_local std::string wire_body;
  const WireError parse = [&] {
    PROF_SCOPE("net.parse");
    return parse_score_request(request.body, &wire_request);
  }();
  if (parse != WireError::kOk) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    std::string body("bad frame: ");
    body.append(wire_error_name(parse));
    body.push_back('\n');
    return plain(400, std::move(body));
  }
  if (config_.expected_features != 0 &&
      wire_request.features.size() != config_.expected_features) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    std::string body("bad frame: expected ");
    body.append(std::to_string(config_.expected_features));
    body.append(" features, got ");
    body.append(std::to_string(wire_request.features.size()));
    body.push_back('\n');
    return plain(400, std::move(body));
  }

  // Adopted cross-hop trace context (the wire's t: segment): the
  // engine's spans for this request join the client's trace, and the
  // ingress contributes slot_admission/serialize spans of its own into
  // the shards' shared sink.  The client's sampling decision is final —
  // an unsampled context is adopted (counted, propagated to the engine)
  // but records nothing.
  const WireTraceContext trace = wire_request.trace;
  obs::TraceSink* trace_sink =
      trace.present() ? config_.router.engine.trace : nullptr;
  const bool trace_record = trace_sink != nullptr && trace.sampled;
  const std::uint32_t span_base = serve::adopted_span_base(trace.parent_span);
  if (trace.present() && trace_adopted_ != nullptr) {
    trace_adopted_->increment();
  }

  const std::int64_t admission_start_us =
      trace_record ? obs::steady_now_us() : 0;
  const auto slot_index = acquire_slot();
  if (!slot_index) {
    admission_rejected_.fetch_add(1, std::memory_order_relaxed);
    return plain(503, "in-flight budget exhausted\n");
  }
  inflight_.fetch_add(1, std::memory_order_relaxed);

  serve::ScoreRequest score_request;
  score_request.id = *slot_index;
  score_request.features = wire_request.features;  // copy; engine owns it
  score_request.claimed = wire_request.claimed;
  score_request.trace_id = trace.trace_id;
  score_request.trace_parent = trace.parent_span;
  score_request.trace_sampled = trace.sampled;
  const serve::SubmitResult submit =
      router_.submit(wire_request.session_id, std::move(score_request));
  if (submit != serve::SubmitResult::kAdmitted) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    release_slot(*slot_index);
    admission_rejected_.fetch_add(1, std::memory_order_relaxed);
    return plain(503, submit == serve::SubmitResult::kStopped
                          ? "shutting down\n"
                          : "shard queue full\n");
  }
  if (trace_record) {
    // Recorded only once the request is truly admitted, so the span's
    // parent ("server_request", base+1) is guaranteed to follow from
    // the engine — a refused admission leaves no dangling child.
    trace_sink->record_forced({trace.trace_id, span_base + 4, span_base + 1,
                               "slot_admission", admission_start_us,
                               obs::steady_now_us()});
  }

  Slot& slot = slots_[*slot_index];
  serve::ScoreResponse engine_response;
  {
    PROF_SCOPE("net.await");
    std::unique_lock<std::mutex> lock(slot.mutex);
    if (!slot.cv.wait_for(lock, config_.response_timeout,
                          [&slot] { return slot.done; })) {
      // Shard wedged past the defensive bound.  Mark the slot so the
      // late delivery reclaims it; this handler answers 503 and the
      // in-flight count stays held until that delivery.
      slot.abandoned = true;
      return plain(503, "scoring timeout\n");
    }
    engine_response = slot.response;
  }
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  release_slot(*slot_index);

  WireScoreResponse wire_response;
  wire_response.session_id = wire_request.session_id;
  wire_response.status = engine_response.status;
  wire_response.flagged = engine_response.detection.flagged;
  wire_response.risk_factor = engine_response.detection.risk_factor;
  wire_response.predicted_cluster = engine_response.detection.predicted_cluster;
  wire_response.model_version = engine_response.model_version;
  wire_response.latency_micros =
      static_cast<std::uint64_t>(engine_response.latency.count());
  const std::int64_t serialize_start_us =
      trace_record ? obs::steady_now_us() : 0;
  {
    PROF_SCOPE("net.serialize");
    render_score_response(wire_response, &wire_body);
  }
  if (trace_record) {
    trace_sink->record_forced({trace.trace_id, span_base + 5, span_base + 1,
                               "serialize", serialize_start_us,
                               obs::steady_now_us()});
  }
  responses_.fetch_add(1, std::memory_order_relaxed);

  HttpResponse response;
  response.status = 200;
  response.content_type = "application/x-bpwire";
  response.body = wire_body;
  return response;
}

void ScoreServer::stop() {
  if (stopped_.exchange(true)) {
    // Another caller ran (or is running) the sequence; serialize on it.
    std::lock_guard<std::mutex> lock(stop_mutex_);
    return;
  }
  std::lock_guard<std::mutex> lock(stop_mutex_);
  stopping_.store(true, std::memory_order_release);
  // 1. Stop intake: no new connections; handlers still answer frames
  //    already read but admit nothing new (stopping_ gate above).
  if (listener_) listener_->begin_stop();
  // 2. Drain shards: every admitted request gets its response, which
  //    unblocks every handler parked on a slot condvar.
  router_.drain();
  // 3. Ordered shard stop.
  router_.stop();
  // 4. Join the handler pool — safe now, nothing left to wait on.
  if (listener_) listener_->stop();
}

}  // namespace bp::net
