// The versioned wire format POST /score carries: one compact ASCII
// line per request and per response.
//
// A fraud check rides on every page load, so the frame must be cheap
// to produce in client-side JavaScript, cheap to eyeball in a packet
// capture, and cheap to parse — the parser allocates nothing per frame
// in steady state (fields are views into the input; the feature vector
// reuses its capacity across parses) and rejects malformed input with
// a *typed* error, so the ingress can answer 400 with a name the
// client can act on and tests can pin every rejection path.
//
// Version 1 grammar ('|' is the field delimiter and is reserved —
// it cannot appear inside a field):
//
//   request:   bp1|<session_id>|<claimed-ua>|<f0 f1 ... fN-1>[|<ext>...]
//   response:  bp1|<session_id>|<status>|<flagged>|<risk>|<cluster>|
//              <model_version>|<latency_us>[|<ext>...]    (one line)
//
//   session_id  decimal uint64, echoed verbatim in the response
//   claimed-ua  the browser's User-Agent header, or the short label
//               form the paper's tables use ("Chrome 112");
//               unparseable vendors are *not* an error — an unknown
//               claimed UA is a legitimate scoring scenario (the
//               engine's risk path handles it) — only an empty field is
//   f0..fN-1    space-separated int32 fingerprint features, in the
//               model's feature-index order (1..kMaxWireFeatures)
//   status      scored | shed | degraded
//   ext         optional extension segments, each `<tag>:<payload>`
//               where <tag> is 1+ lowercase letters.  A peer that does
//               not know a well-formed tag ignores it — that is how a
//               version-1 frame stays readable by older version-1
//               parsers as new segments appear.  A segment that is not
//               tag:payload shaped is kBadExtension, never ignored.
//
// The one extension tag defined today is trace context:
//
//   t:<trace_id>:<parent_span>:<sampled>
//
//   trace_id    decimal uint64, nonzero (0 would be indistinguishable
//               from "absent")
//   parent_span decimal uint32 — the client span the server's spans
//               parent under
//   sampled     '0' or '1' — the client's head-sampling decision,
//               honored verbatim by the receiving side
//
// A duplicated `t:` segment, a zero trace id, a malformed number, or a
// sampled flag outside {0,1} is kBadTraceContext — a bogus id is
// refused with a typed error, never silently adopted.
//
// A trailing '\n' is tolerated on both frames.  A version bump changes
// the digits after "bp"; an ingress refuses versions it does not speak
// with kBadVersion rather than guessing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serve/scoring_engine.h"
#include "ua/user_agent.h"

namespace bp::net {

inline constexpr int kWireVersion = 1;
// An over-size frame is refused before field parsing begins: the
// production feature vector is 28 ints, so legitimate frames are a few
// hundred bytes.
inline constexpr std::size_t kMaxFrameBytes = 8192;
inline constexpr std::size_t kMaxWireFeatures = 512;

// Every way a frame can be refused.  Names (wire_error_name) are what
// the ingress puts in its 400 body.
enum class WireError : std::uint8_t {
  kOk = 0,
  kEmptyFrame,       // zero bytes (or only the tolerated newline)
  kOversized,        // frame longer than kMaxFrameBytes
  kBadMagic,         // does not start with "bp" — garbage bytes
  kBadVersion,       // "bp" followed by a version this parser is not
  kTruncated,        // fewer fields than the grammar requires
  kBadSessionId,     // session id not a decimal uint64
  kBadUserAgent,     // empty claimed-ua field
  kNoFeatures,       // empty feature field
  kBadFeature,       // feature not a decimal int32 (or '|' inside)
  kTooManyFeatures,  // more than kMaxWireFeatures
  kBadStatus,        // response status token unknown (response parse)
  kBadExtension,     // extension segment not <tag>:<payload> shaped
  kBadTraceContext,  // t: segment malformed, duplicated, or zero id
};

std::string_view wire_error_name(WireError error) noexcept;

// Optional cross-hop trace context carried as a `t:` extension segment.
// trace_id == 0 means "no context on the frame".
struct WireTraceContext {
  std::uint64_t trace_id = 0;
  std::uint32_t parent_span = 0;
  bool sampled = false;
  bool present() const noexcept { return trace_id != 0; }
};

struct WireScoreRequest {
  std::uint64_t session_id = 0;
  ua::UserAgent claimed;
  // Reused across parses: parse_score_request clears it but never
  // shrinks, so steady-state parsing performs no allocation.
  std::vector<std::int32_t> features;
  // Reset on every parse; present() only when the frame carried a
  // well-formed t: segment.
  WireTraceContext trace;
};

// Parse one request frame.  On any error the out-params are
// unspecified.  `frame` may end in '\n'.
WireError parse_score_request(std::string_view frame, WireScoreRequest* out);

// Render one request frame into `out` (cleared first; capacity reused).
// `claimed_ua` is written verbatim — pass a full User-Agent header or a
// short label.
void render_score_request(std::uint64_t session_id,
                          std::string_view claimed_ua,
                          std::span<const std::int32_t> features,
                          std::string* out);

// Append a `t:` trace-context segment to an already-rendered frame
// (request or response) ending in '\n'.  Lets a client render the base
// frame once per call and stamp a per-attempt parent span cheaply.
// No-op when `trace.present()` is false.
void append_trace_context(const WireTraceContext& trace, std::string* frame);

struct WireScoreResponse {
  std::uint64_t session_id = 0;
  serve::ResponseStatus status = serve::ResponseStatus::kScored;
  bool flagged = false;
  int risk_factor = 0;
  std::uint32_t predicted_cluster = 0;
  std::uint64_t model_version = 0;
  std::uint64_t latency_micros = 0;
  // Reset on every parse, filled when the response carried a t: segment
  // (servers do not send one today; the parser tolerates it).
  WireTraceContext trace;
};

std::string_view wire_status_token(serve::ResponseStatus status) noexcept;

// Render one response frame into `out` (cleared first; capacity
// reused).
void render_score_response(const WireScoreResponse& response,
                           std::string* out);

// Parse one response frame (the client half: load generator, tests).
WireError parse_score_response(std::string_view frame,
                               WireScoreResponse* out);

}  // namespace bp::net
