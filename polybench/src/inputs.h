// Input synthesis for the benchmark's workloads.
//
// Every input is a pure function of (workload, seed).  Sessions are drawn
// one at a time through SessionGenerator::next_session: the sharded
// SessionGenerator::generate races on the unguarded memo behind
// browser::baseline_candidates (see README.md), and a benchmark whose
// set-up can crash measures nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ml/matrix.h"
#include "traffic/session_generator.h"
#include "ua/user_agent.h"

namespace polybench {

enum class Workload { kPopular, kCampaign, kDrift };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload workload);

// The legitimate release-popularity mix of the generator's default
// Mar-Jul 2023 window: what every initial model is trained on, and the
// pre-drift model of the drift workload.
bp::traffic::TrafficConfig popular_mix(std::uint64_t seed);
// The mix a workload serves and retrains on: popular_mix; for campaign,
// half of the sessions from category-1/2 anti-detect browsers with
// spoofed victim UAs; for drift, the Jul 20 - Nov 3 2023 window
// (Chrome/Firefox 115-119).
bp::traffic::TrafficConfig workload_mix(Workload workload, std::uint64_t seed);

// Training rows in the production model's feature order.
struct Corpus {
  bp::ml::Matrix features;
  std::vector<bp::ua::UserAgent> uas;
};

Corpus make_corpus(const bp::traffic::TrafficConfig& config, std::size_t rows);

// One session of the served traffic.
struct StreamEntry {
  std::vector<std::int32_t> features;  // production feature order
  bp::ua::UserAgent claimed;           // what the UA header parses to
  // "|<User-Agent header>|<f0 ... f27>": the request frame after its
  // session id, rendered once.
  std::string frame_tail;
  bool fraud = false;
  int tool = -1;  // index into Stream::tools for fraud sessions
};

struct Stream {
  std::vector<StreamEntry> entries;  // served in order, cycled
  std::vector<std::string> tools;    // fraud-browser names seen
};

Stream make_stream(const bp::traffic::TrafficConfig& config,
                   std::size_t sessions);

// Counts that describe an input (README "input make-up").
struct Makeup {
  std::size_t rows = 0;
  std::size_t distinct_vectors = 0;
  std::size_t distinct_pairs = 0;  // (vector, UA key)
  double fraud_share = 0.0;
};

Makeup corpus_makeup(const Corpus& corpus);
Makeup stream_makeup(const Stream& stream);

}  // namespace polybench
