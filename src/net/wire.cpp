#include "net/wire.h"

#include <charconv>
#include <limits>

namespace bp::net {

namespace {

// Strip the one tolerated trailing newline (and a preceding '\r', so
// curl with --data-binary $'...\r\n' still round-trips).
std::string_view strip_line_ending(std::string_view frame) noexcept {
  if (!frame.empty() && frame.back() == '\n') frame.remove_suffix(1);
  if (!frame.empty() && frame.back() == '\r') frame.remove_suffix(1);
  return frame;
}

bool parse_u64(std::string_view text, std::uint64_t* out) noexcept {
  if (text.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool parse_i32(std::string_view text, std::int32_t* out) noexcept {
  if (text.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

// Split off the next '|'-terminated field.  Returns false when no '|'
// remains (the caller decides whether the tail is the last field).
bool next_field(std::string_view* rest, std::string_view* field) noexcept {
  const std::size_t bar = rest->find('|');
  if (bar == std::string_view::npos) return false;
  *field = rest->substr(0, bar);
  rest->remove_prefix(bar + 1);
  return true;
}

// "bp<digits>|" prefix check shared by both frame parsers.
WireError check_magic(std::string_view* frame) noexcept {
  if (frame->size() < 2 || (*frame)[0] != 'b' || (*frame)[1] != 'p') {
    return WireError::kBadMagic;
  }
  frame->remove_prefix(2);
  std::string_view version_field;
  if (!next_field(frame, &version_field)) return WireError::kTruncated;
  std::uint64_t version = 0;
  if (!parse_u64(version_field, &version)) return WireError::kBadMagic;
  if (version != static_cast<std::uint64_t>(kWireVersion)) {
    return WireError::kBadVersion;
  }
  return WireError::kOk;
}

void append_u64(std::string* out, std::uint64_t value) {
  char buf[20];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;
  out->append(buf, ptr);
}

void append_i64(std::string* out, std::int64_t value) {
  char buf[21];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;
  out->append(buf, ptr);
}

// One t:<trace_id>:<parent_span>:<sampled> payload (the part after
// "t:").  Exactly three ':'-separated numerics; trace_id must be
// nonzero, sampled must be the literal '0' or '1'.
bool parse_trace_payload(std::string_view payload,
                         WireTraceContext* out) noexcept {
  const std::size_t first = payload.find(':');
  if (first == std::string_view::npos) return false;
  const std::size_t second = payload.find(':', first + 1);
  if (second == std::string_view::npos) return false;
  if (payload.find(':', second + 1) != std::string_view::npos) return false;
  std::uint64_t trace_id = 0;
  if (!parse_u64(payload.substr(0, first), &trace_id) || trace_id == 0) {
    return false;
  }
  std::uint64_t parent = 0;
  if (!parse_u64(payload.substr(first + 1, second - first - 1), &parent) ||
      parent > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  const std::string_view flag = payload.substr(second + 1);
  if (flag != "0" && flag != "1") return false;
  out->trace_id = trace_id;
  out->parent_span = static_cast<std::uint32_t>(parent);
  out->sampled = flag == "1";
  return true;
}

// Everything after the last grammar field: one or more '|'-separated
// `<tag>:<payload>` extension segments (the caller strips the leading
// '|', so an empty `rest` here means a dangling separator).  Well-
// formed unknown tags are skipped (version tolerance); the `t` tag is
// validated into *trace.
WireError parse_extensions(std::string_view rest,
                           WireTraceContext* trace) noexcept {
  while (true) {
    const std::size_t bar = rest.find('|');
    const std::string_view segment =
        bar == std::string_view::npos ? rest : rest.substr(0, bar);
    const std::size_t colon = segment.find(':');
    if (colon == 0 || colon == std::string_view::npos) {
      return WireError::kBadExtension;
    }
    const std::string_view tag = segment.substr(0, colon);
    for (char c : tag) {
      if (c < 'a' || c > 'z') return WireError::kBadExtension;
    }
    if (tag == "t") {
      if (trace->present()) return WireError::kBadTraceContext;
      if (!parse_trace_payload(segment.substr(colon + 1), trace)) {
        return WireError::kBadTraceContext;
      }
    }
    // else: unknown well-formed tag — a newer peer's segment; skip it.
    if (bar == std::string_view::npos) return WireError::kOk;
    rest.remove_prefix(bar + 1);
  }
}

}  // namespace

std::string_view wire_error_name(WireError error) noexcept {
  switch (error) {
    case WireError::kOk: return "ok";
    case WireError::kEmptyFrame: return "empty_frame";
    case WireError::kOversized: return "oversized";
    case WireError::kBadMagic: return "bad_magic";
    case WireError::kBadVersion: return "bad_version";
    case WireError::kTruncated: return "truncated";
    case WireError::kBadSessionId: return "bad_session_id";
    case WireError::kBadUserAgent: return "bad_user_agent";
    case WireError::kNoFeatures: return "no_features";
    case WireError::kBadFeature: return "bad_feature";
    case WireError::kTooManyFeatures: return "too_many_features";
    case WireError::kBadStatus: return "bad_status";
    case WireError::kBadExtension: return "bad_extension";
    case WireError::kBadTraceContext: return "bad_trace_context";
  }
  return "unknown";
}

WireError parse_score_request(std::string_view frame, WireScoreRequest* out) {
  if (frame.size() > kMaxFrameBytes) return WireError::kOversized;
  frame = strip_line_ending(frame);
  if (frame.empty()) return WireError::kEmptyFrame;

  const WireError magic = check_magic(&frame);
  if (magic != WireError::kOk) return magic;

  std::string_view id_field;
  if (!next_field(&frame, &id_field)) return WireError::kTruncated;
  if (!parse_u64(id_field, &out->session_id)) {
    return WireError::kBadSessionId;
  }

  std::string_view ua_field;
  if (!next_field(&frame, &ua_field)) return WireError::kTruncated;
  if (ua_field.empty()) return WireError::kBadUserAgent;
  // The short label form first ("Chrome 112"), then the full header.
  // An unknown vendor is not an error: scoring a claimed UA the table
  // has never seen is exactly the risk path's job.
  if (const auto label = ua::parse_label(ua_field)) {
    out->claimed = *label;
  } else {
    out->claimed = ua::parse_user_agent(ua_field);
  }

  // `frame` is now the feature field, running to the next '|' (the
  // start of the optional extension segments) or the end of the frame.
  out->trace = WireTraceContext{};
  const std::size_t ext_bar = frame.find('|');
  const std::string_view feature_field =
      ext_bar == std::string_view::npos ? frame : frame.substr(0, ext_bar);
  if (feature_field.empty()) return WireError::kNoFeatures;
  out->features.clear();
  std::size_t pos = 0;
  while (pos <= feature_field.size()) {
    std::size_t space = feature_field.find(' ', pos);
    if (space == std::string_view::npos) space = feature_field.size();
    const std::string_view token = feature_field.substr(pos, space - pos);
    std::int32_t value = 0;
    if (!parse_i32(token, &value)) return WireError::kBadFeature;
    if (out->features.size() >= kMaxWireFeatures) {
      return WireError::kTooManyFeatures;
    }
    out->features.push_back(value);
    pos = space + 1;
  }
  if (ext_bar != std::string_view::npos) {
    return parse_extensions(frame.substr(ext_bar + 1), &out->trace);
  }
  return WireError::kOk;
}

void render_score_request(std::uint64_t session_id,
                          std::string_view claimed_ua,
                          std::span<const std::int32_t> features,
                          std::string* out) {
  out->clear();
  out->append("bp");
  append_u64(out, static_cast<std::uint64_t>(kWireVersion));
  out->push_back('|');
  append_u64(out, session_id);
  out->push_back('|');
  out->append(claimed_ua);
  out->push_back('|');
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (i > 0) out->push_back(' ');
    append_i64(out, features[i]);
  }
  out->push_back('\n');
}

void append_trace_context(const WireTraceContext& trace, std::string* frame) {
  if (!trace.present()) return;
  const bool had_newline = !frame->empty() && frame->back() == '\n';
  if (had_newline) frame->pop_back();
  frame->append("|t:");
  append_u64(frame, trace.trace_id);
  frame->push_back(':');
  append_u64(frame, trace.parent_span);
  frame->push_back(':');
  frame->push_back(trace.sampled ? '1' : '0');
  if (had_newline) frame->push_back('\n');
}

std::string_view wire_status_token(serve::ResponseStatus status) noexcept {
  switch (status) {
    case serve::ResponseStatus::kScored: return "scored";
    case serve::ResponseStatus::kShed: return "shed";
    case serve::ResponseStatus::kDegraded: return "degraded";
  }
  return "unknown";
}

void render_score_response(const WireScoreResponse& response,
                           std::string* out) {
  out->clear();
  out->append("bp");
  append_u64(out, static_cast<std::uint64_t>(kWireVersion));
  out->push_back('|');
  append_u64(out, response.session_id);
  out->push_back('|');
  out->append(wire_status_token(response.status));
  out->push_back('|');
  out->push_back(response.flagged ? '1' : '0');
  out->push_back('|');
  append_i64(out, response.risk_factor);
  out->push_back('|');
  append_u64(out, response.predicted_cluster);
  out->push_back('|');
  append_u64(out, response.model_version);
  out->push_back('|');
  append_u64(out, response.latency_micros);
  out->push_back('\n');
}

WireError parse_score_response(std::string_view frame,
                               WireScoreResponse* out) {
  if (frame.size() > kMaxFrameBytes) return WireError::kOversized;
  frame = strip_line_ending(frame);
  if (frame.empty()) return WireError::kEmptyFrame;

  const WireError magic = check_magic(&frame);
  if (magic != WireError::kOk) return magic;

  std::string_view field;
  if (!next_field(&frame, &field)) return WireError::kTruncated;
  if (!parse_u64(field, &out->session_id)) return WireError::kBadSessionId;

  if (!next_field(&frame, &field)) return WireError::kTruncated;
  if (field == "scored") {
    out->status = serve::ResponseStatus::kScored;
  } else if (field == "shed") {
    out->status = serve::ResponseStatus::kShed;
  } else if (field == "degraded") {
    out->status = serve::ResponseStatus::kDegraded;
  } else {
    return WireError::kBadStatus;
  }

  if (!next_field(&frame, &field)) return WireError::kTruncated;
  if (field != "0" && field != "1") return WireError::kBadStatus;
  out->flagged = field == "1";

  if (!next_field(&frame, &field)) return WireError::kTruncated;
  std::int32_t risk = 0;
  if (!parse_i32(field, &risk)) return WireError::kBadStatus;
  out->risk_factor = risk;

  if (!next_field(&frame, &field)) return WireError::kTruncated;
  std::uint64_t cluster = 0;
  if (!parse_u64(field, &cluster) ||
      cluster > std::numeric_limits<std::uint32_t>::max()) {
    return WireError::kBadStatus;
  }
  out->predicted_cluster = static_cast<std::uint32_t>(cluster);

  if (!next_field(&frame, &field)) return WireError::kTruncated;
  if (!parse_u64(field, &out->model_version)) return WireError::kBadStatus;

  // Latency runs to the next '|' (optional extension segments) or the
  // end of the frame.
  out->trace = WireTraceContext{};
  const std::size_t ext_bar = frame.find('|');
  const std::string_view latency_field =
      ext_bar == std::string_view::npos ? frame : frame.substr(0, ext_bar);
  if (!parse_u64(latency_field, &out->latency_micros)) {
    return WireError::kBadStatus;
  }
  if (ext_bar != std::string_view::npos) {
    return parse_extensions(frame.substr(ext_bar + 1), &out->trace);
  }
  return WireError::kOk;
}

}  // namespace bp::net
