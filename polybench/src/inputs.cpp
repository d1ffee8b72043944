#include "inputs.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "core/polygraph.h"

namespace polybench {

namespace {

const std::vector<std::size_t>& model_features() {
  static const std::vector<std::size_t> indices =
      bp::core::PolygraphConfig::production().feature_indices;
  return indices;
}

}  // namespace

bp::traffic::TrafficConfig popular_mix(std::uint64_t seed) {
  bp::traffic::TrafficConfig config;
  config.seed = seed;
  return config;
}

bp::traffic::TrafficConfig workload_mix(Workload workload, std::uint64_t seed) {
  bp::traffic::TrafficConfig config = popular_mix(seed);
  if (workload == Workload::kCampaign) {
    config.p_fraud = 0.5;
    config.fraud_cat12_weight = 1.0;
  } else if (workload == Workload::kDrift) {
    config.start_date = bp::util::Date::from_ymd(2023, 7, 20);
    config.end_date = bp::util::Date::from_ymd(2023, 11, 3);
  }
  return config;
}

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "popular") return Workload::kPopular;
  if (name == "campaign") return Workload::kCampaign;
  if (name == "drift") return Workload::kDrift;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kPopular:
      return "popular";
    case Workload::kCampaign:
      return "campaign";
    case Workload::kDrift:
      return "drift";
  }
  return "?";
}

Corpus make_corpus(const bp::traffic::TrafficConfig& config, std::size_t rows) {
  const std::vector<std::size_t>& indices = model_features();
  bp::traffic::SessionGenerator generator(config);
  Corpus corpus;
  corpus.features = bp::ml::Matrix(rows, indices.size());
  corpus.uas.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const bp::traffic::SessionRecord record = generator.next_session(indices);
    const auto row = corpus.features.row(r);
    std::copy(record.features.begin(), record.features.end(), row.begin());
    corpus.uas.push_back(record.claimed);
  }
  return corpus;
}

Stream make_stream(const bp::traffic::TrafficConfig& config,
                   std::size_t sessions) {
  const std::vector<std::size_t>& indices = model_features();
  bp::traffic::SessionGenerator generator(config);
  Stream stream;
  stream.entries.reserve(sessions);
  std::map<std::string, int> tool_index;
  for (std::size_t i = 0; i < sessions; ++i) {
    bp::traffic::SessionRecord record = generator.next_session(indices);
    StreamEntry entry;
    entry.claimed = bp::ua::parse_user_agent(record.user_agent);
    entry.frame_tail.reserve(record.user_agent.size() + 4 * indices.size() + 4);
    entry.frame_tail.push_back('|');
    entry.frame_tail += record.user_agent;
    entry.frame_tail.push_back('|');
    for (std::size_t f = 0; f < record.features.size(); ++f) {
      if (f > 0) entry.frame_tail.push_back(' ');
      entry.frame_tail += std::to_string(record.features[f]);
    }
    entry.features = std::move(record.features);
    entry.fraud = record.kind == bp::traffic::SessionKind::kFraudBrowser;
    if (entry.fraud) {
      const auto [it, added] = tool_index.emplace(
          record.origin, static_cast<int>(stream.tools.size()));
      if (added) stream.tools.push_back(record.origin);
      entry.tool = it->second;
    }
    stream.entries.push_back(std::move(entry));
  }
  return stream;
}

Makeup corpus_makeup(const Corpus& corpus) {
  Makeup makeup;
  makeup.rows = corpus.features.rows();
  std::set<std::vector<double>> vectors;
  std::set<std::pair<std::vector<double>, std::uint32_t>> pairs;
  for (std::size_t r = 0; r < makeup.rows; ++r) {
    const auto row = corpus.features.row(r);
    std::vector<double> v(row.begin(), row.end());
    pairs.emplace(v, corpus.uas[r].key());
    vectors.insert(std::move(v));
  }
  makeup.distinct_vectors = vectors.size();
  makeup.distinct_pairs = pairs.size();
  return makeup;
}

Makeup stream_makeup(const Stream& stream) {
  Makeup makeup;
  makeup.rows = stream.entries.size();
  std::set<std::vector<std::int32_t>> vectors;
  std::set<std::pair<std::vector<std::int32_t>, std::uint32_t>> pairs;
  std::size_t fraud = 0;
  for (const StreamEntry& entry : stream.entries) {
    vectors.insert(entry.features);
    pairs.emplace(entry.features, entry.claimed.key());
    fraud += entry.fraud ? 1 : 0;
  }
  makeup.distinct_vectors = vectors.size();
  makeup.distinct_pairs = pairs.size();
  makeup.fraud_share =
      makeup.rows == 0 ? 0.0 : static_cast<double>(fraud) / makeup.rows;
  return makeup;
}

}  // namespace polybench
