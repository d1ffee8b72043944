// The scoring ingress: POST /score over real TCP, in front of a
// sharded EngineRouter.
//
// This is the deployment surface the paper's FinOrg setting implies —
// a verdict served inline on web traffic, within §3's ~100 ms budget.
// The HTTP plumbing is the shared HttpListener (keep-alive +
// pipelining on); the body is one wire frame (net/wire.h); the answer
// is one wire frame carrying the verdict and the model version that
// produced it.
//
// Overload posture, outermost first:
//
//   1. shed-at-accept — the listener drops connections beyond its
//                       bounded pending queue (overloaded());
//   2. engine policy  — each shard's bounded queue applies the
//                       EngineConfig overflow policy: kReject answers
//                       503 "shard queue full" immediately.  (kBlock
//                       would park a handler thread on a full queue —
//                       legal, but the ingress default is kReject: at
//                       the network edge, backpressure means telling
//                       the client, not holding its socket.)
//
// Between the two sits the response-slot table, one slot per handler
// thread: a handler blocks in handle() on one verdict at a time, so
// live slots never outnumber the handler pool.  The slot index doubles
// as the engine correlation id, so dispatching a response back to its
// waiting handler is an array index, not a map.  A handler that waits
// past `response_timeout` answers 503 "scoring timeout" and leaves its
// slot marked abandoned until the late delivery reclaims it.  Only
// while abandoned slots are outstanding can a handler find the table
// empty; it then answers 503 "in-flight budget exhausted" (counted in
// admission_rejected()).
//
// Ordered teardown (stop()): stop intake (listener stops accepting,
// handlers answer in-flight frames but admit no new ones) -> drain
// shards (unblocks every handler waiting on a verdict) -> stop shards
// (ordered, 0..N-1) -> join the handler pool.  Every admitted request
// is answered before its connection closes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/engine_router.h"
#include "net/http_common.h"
#include "net/wire.h"
#include "obs/metrics_registry.h"
#include "serve/model_registry.h"

namespace bp::net {

struct ScoreServerConfig {
  // `listener.keep_alive` is forced on — a scoring ingress that closed
  // every connection would spend its budget on TCP handshakes.
  ListenerConfig listener;
  RouterConfig router;

  // Expected feature-vector length; frames with any other length are
  // refused with 400 before touching a slot.  0 = accept any length
  // (only for tests that control every client).
  std::size_t expected_features = 0;

  // Defensive bound on waiting for a verdict.  The engines answer
  // every admitted request, so this only fires if a shard is wedged;
  // the slot is then marked abandoned and reclaimed when the late
  // response arrives.
  std::chrono::milliseconds response_timeout{10'000};

  // Ingress instruments land here when set (an
  // "<metrics_prefix>_inflight" callback gauge, bp_trace_adopted_total
  // and the listener's "<metrics_prefix>_http_*" hardening gauges via
  // obs/export.h); the router's per-shard instruments are configured
  // via router.engine.registry.
  obs::MetricsRegistry* registry = nullptr;
  std::string metrics_prefix = "bp_net";
};

class ScoreServer {
 public:
  // Binds and serves immediately.  On bind failure running() is false
  // and error() says why (the router's shards are still constructed;
  // stop() tears everything down either way).
  ScoreServer(const serve::ModelRegistry& models, ScoreServerConfig config);
  ~ScoreServer();

  ScoreServer(const ScoreServer&) = delete;
  ScoreServer& operator=(const ScoreServer&) = delete;

  bool running() const noexcept { return listener_ && listener_->running(); }
  std::uint16_t port() const noexcept {
    return listener_ ? listener_->port() : 0;
  }
  std::string error() const { return listener_ ? listener_->error() : ""; }

  EngineRouter& router() noexcept { return router_; }
  const EngineRouter& router() const noexcept { return router_; }

  // HTTP requests answered / connections shed at accept (listener).
  std::uint64_t requests() const noexcept {
    return listener_ ? listener_->requests() : 0;
  }
  std::uint64_t overloaded() const noexcept {
    return listener_ ? listener_->overloaded() : 0;
  }
  // Frames refused 400 by the wire parser or the feature-length check.
  std::uint64_t malformed() const noexcept {
    return malformed_.load(std::memory_order_relaxed);
  }
  // Admissions refused 503: slot table exhausted + engine kReject.
  std::uint64_t admission_rejected() const noexcept {
    return admission_rejected_.load(std::memory_order_relaxed);
  }
  // Wire responses delivered (any status).
  std::uint64_t responses() const noexcept {
    return responses_.load(std::memory_order_relaxed);
  }
  std::size_t inflight() const noexcept {
    return inflight_.load(std::memory_order_relaxed);
  }

  // Ordered teardown; idempotent; the destructor calls it.
  void stop();

 private:
  // One waiting HTTP handler.  The slot's index in `slots_` is the
  // ScoreRequest::id correlation token.
  struct Slot {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool abandoned = false;  // handler timed out; reclaim on delivery
    serve::ScoreResponse response;
  };

  HttpResponse handle(const HttpRequest& request);
  void dispatch(const serve::ScoreResponse& response);
  std::optional<std::uint32_t> acquire_slot();
  void release_slot(std::uint32_t index);

  ScoreServerConfig config_;
  std::vector<Slot> slots_;
  std::mutex free_mutex_;
  std::vector<std::uint32_t> free_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::mutex stop_mutex_;
  std::atomic<std::uint64_t> malformed_{0};
  std::atomic<std::uint64_t> admission_rejected_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::size_t> inflight_{0};
  bool gauge_registered_ = false;
  // bp_trace_adopted_total: request frames carrying a t: trace context
  // this ingress adopted (the server half of the client's
  // bp_trace_propagated_total).  Null when no registry is configured.
  obs::Counter* trace_adopted_ = nullptr;

  // Router before listener: handlers reference the router, so it must
  // outlive (and be constructed before) the listener that runs them.
  EngineRouter router_;
  std::optional<HttpListener> listener_;
};

}  // namespace bp::net
