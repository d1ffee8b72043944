// Per-layer measurements for the traced run, all taken from outside the
// program: public calls timed in a loop over the workload's own inputs,
// and the spans the program already records.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/polygraph.h"
#include "inputs.h"
#include "obs/trace.h"

namespace polybench {

// Durations and self times (a span's duration minus the part of it
// that its child spans cover) of one span name, summed over the spans
// seen.
struct SpanSelf {
  double duration_us = 0.0;
  double self_us = 0.0;
  std::size_t count = 0;
  // Spans that start at steady-clock zero: recorded for a request whose
  // admission time was never set.  Left out of the sums and the count.
  std::size_t unset_start = 0;

  double mean_duration_us() const { return count == 0 ? 0.0 : duration_us / count; }
  double mean_self_us() const { return count == 0 ? 0.0 : self_us / count; }
};
using SpanAccumulator = std::map<std::string, SpanSelf>;

void accumulate_span_self_times(const std::vector<bp::obs::TraceEvent>& events,
                                SpanAccumulator* out);

// Median over rounds of the per-operation time, in nanoseconds.
struct Microbench {
  double wire_parse_ns = 0.0;      // net::parse_score_request
  double wire_render_ns = 0.0;     // net::render_score_response
  double head_parse_ns = 0.0;      // net::parse_request_head
  double serialize_ns = 0.0;       // net::serialize_response
  double cache_lookup_ns = 0.0;    // VerdictCache::key_of + lookup
  double cache_insert_ns = 0.0;    // VerdictCache::insert
  double score_batch_ns = 0.0;     // Polygraph::score_batch, per session
};

// `cache_capacity` and `max_batch` are the deployed plane's values.
Microbench run_microbench(const Stream& stream, const bp::core::Polygraph& model,
                          std::size_t cache_capacity, std::size_t max_batch);

}  // namespace polybench
