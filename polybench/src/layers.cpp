#include "layers.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <string>
#include <utility>

#include "net/http_common.h"
#include "net/wire.h"
#include "serve/verdict_cache.h"
#include "stats.h"

namespace polybench {

namespace {

constexpr std::size_t kMicrobenchEntries = 16384;
constexpr int kRounds = 7;

// Results feed this sink so the timed loops cannot be optimised away.
volatile std::uint64_t g_sink = 0;

template <typename Fn>
double per_op_ns(std::size_t ops, Fn&& round) {
  std::vector<double> samples;
  samples.reserve(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    const auto start = std::chrono::steady_clock::now();
    round();
    const auto stop = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double, std::nano>(stop - start).count() /
                      static_cast<double>(ops));
  }
  return median(samples);
}

}  // namespace

void accumulate_span_self_times(const std::vector<bp::obs::TraceEvent>& events,
                                SpanAccumulator* out) {
  // events() returns (trace_id, span_id) order, so one trace's spans are
  // contiguous.
  std::size_t begin = 0;
  while (begin < events.size()) {
    std::size_t end = begin;
    while (end < events.size() && events[end].trace_id == events[begin].trace_id) {
      ++end;
    }
    for (std::size_t i = begin; i < end; ++i) {
      const bp::obs::TraceEvent& span = events[i];
      SpanSelf& stats = (*out)[span.name];
      if (span.start_us == 0) {
        ++stats.unset_start;
        continue;
      }
      // Union of the children's intervals, clipped to this span.
      std::vector<std::pair<std::int64_t, std::int64_t>> covered;
      for (std::size_t j = begin; j < end; ++j) {
        const bp::obs::TraceEvent& child = events[j];
        if (j == i || child.parent_id != span.span_id) continue;
        const std::int64_t lo = std::max(child.start_us, span.start_us);
        const std::int64_t hi = std::min(child.end_us, span.end_us);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
      std::sort(covered.begin(), covered.end());
      std::int64_t covered_us = 0;
      std::int64_t reach = span.start_us;
      for (const auto& [lo, hi] : covered) {
        const std::int64_t from = std::max(lo, reach);
        if (hi > from) covered_us += hi - from;
        reach = std::max(reach, hi);
      }
      stats.duration_us += static_cast<double>(span.end_us - span.start_us);
      stats.self_us += static_cast<double>(span.end_us - span.start_us - covered_us);
      ++stats.count;
    }
    begin = end;
  }
}

Microbench run_microbench(const Stream& stream, const bp::core::Polygraph& model,
                          std::size_t cache_capacity, std::size_t max_batch) {
  const std::size_t n = std::min(kMicrobenchEntries, stream.entries.size());
  Microbench result;

  // The kernel first: its verdicts feed the render and cache loops.
  std::vector<std::span<const std::int32_t>> rows;
  std::vector<bp::ua::UserAgent> claims;
  rows.reserve(n);
  claims.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows.emplace_back(stream.entries[i].features);
    claims.push_back(stream.entries[i].claimed);
  }
  std::vector<bp::core::Detection> detections(n);
  bp::core::BatchScratch scratch;
  const std::span<const std::span<const std::int32_t>> all_rows(rows);
  const std::span<const bp::ua::UserAgent> all_claims(claims);
  const std::span<bp::core::Detection> all_out(detections);
  result.score_batch_ns = per_op_ns(n, [&] {
    for (std::size_t b = 0; b < n; b += max_batch) {
      const std::size_t len = std::min(max_batch, n - b);
      model.score_batch(all_rows.subspan(b, len), all_claims.subspan(b, len),
                        all_out.subspan(b, len), scratch);
    }
    g_sink = g_sink + detections[n - 1].predicted_cluster;
  });

  std::vector<std::string> bodies(n);
  std::vector<std::string> heads(n);
  for (std::size_t i = 0; i < n; ++i) {
    bodies[i] = "bp1|" + std::to_string(i + 1) + stream.entries[i].frame_tail;
    heads[i] =
        "POST /score HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/x-bpwire\r\nContent-Length: " +
        std::to_string(bodies[i].size()) + "\r\n";
  }
  bp::net::WireScoreRequest request;
  result.wire_parse_ns = per_op_ns(n, [&] {
    std::uint64_t sum = 0;
    for (const std::string& body : bodies) {
      if (bp::net::parse_score_request(body, &request) == bp::net::WireError::kOk) {
        sum += request.session_id;
      }
    }
    g_sink = g_sink + sum;
  });
  bp::net::HttpRequest head;
  result.head_parse_ns = per_op_ns(n, [&] {
    std::uint64_t sum = 0;
    for (const std::string& text : heads) {
      if (bp::net::parse_request_head(text, &head)) sum += head.content_length;
    }
    g_sink = g_sink + sum;
  });

  std::vector<bp::net::WireScoreResponse> responses(n);
  for (std::size_t i = 0; i < n; ++i) {
    responses[i].session_id = i + 1;
    responses[i].flagged = detections[i].flagged;
    responses[i].risk_factor = detections[i].risk_factor;
    responses[i].predicted_cluster =
        static_cast<std::uint32_t>(detections[i].predicted_cluster);
    responses[i].model_version = 1;
  }
  std::string frame;
  result.wire_render_ns = per_op_ns(n, [&] {
    std::uint64_t sum = 0;
    for (const auto& response : responses) {
      bp::net::render_score_response(response, &frame);
      sum += frame.size();
    }
    g_sink = g_sink + sum;
  });
  std::vector<bp::net::HttpResponse> http(n);
  for (std::size_t i = 0; i < n; ++i) {
    bp::net::render_score_response(responses[i], &http[i].body);
    http[i].content_type = "application/x-bpwire";
    http[i].keep_alive = true;
  }
  result.serialize_ns = per_op_ns(n, [&] {
    std::uint64_t sum = 0;
    for (const auto& response : http) sum += bp::net::serialize_response(response).size();
    g_sink = g_sink + sum;
  });

  // The cache at deployed capacity, over the workload's key stream: an
  // insert pass leaves it as the stream's steady state leaves it, and
  // the lookup pass then runs against that state.
  bp::serve::VerdictCacheConfig cache_config;
  cache_config.capacity = cache_capacity;
  bp::serve::VerdictCache cache(cache_config);
  std::vector<bp::serve::VerdictCache::Key> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = bp::serve::VerdictCache::key_of(rows[i], claims[i]);
  }
  result.cache_insert_ns = per_op_ns(n, [&] {
    for (std::size_t i = 0; i < n; ++i) cache.insert(keys[i], 1, detections[i]);
  });
  bp::core::Detection found;
  result.cache_lookup_ns = per_op_ns(n, [&] {
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto key = bp::serve::VerdictCache::key_of(rows[i], claims[i]);
      hits += cache.lookup(key, 1, found) ? 1 : 0;
    }
    g_sink = g_sink + hits;
  });
  return result;
}

}  // namespace polybench
