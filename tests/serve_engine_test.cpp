// Tests for the serving subsystem: ModelRegistry hot-swap semantics and
// the ScoringEngine's concurrency invariants.
//
// The models here are hand-assembled via Polygraph::from_parts (identity
// scaler/PCA over 2 features, two fixed centroids) so the suite runs in
// milliseconds and stays meaningful under TSan: model A and model B
// differ only in their UA<->cluster tables, so whether a response is
// flagged reveals exactly which published version scored it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/audit.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/scoring_engine.h"

namespace bp::serve {
namespace {

const ua::UserAgent kChrome100{ua::Vendor::kChrome, 100, ua::Os::kWindows10};
const ua::UserAgent kFirefox100{ua::Vendor::kFirefox, 100, ua::Os::kWindows10};

// Cluster 0 sits at (0, 0), cluster 1 at (10, 10).  Model A expects
// Chrome 100 in cluster 0; model B expects it in cluster 1.  A session
// with features (0, 0) claiming Chrome 100 is therefore clean under A
// and flagged under B.
core::Polygraph make_model(bool swapped_table) {
  core::PolygraphConfig config;
  config.feature_indices = {0, 1};
  config.pca_components = 2;
  config.k = 2;

  ml::Matrix centroids(2, 2);
  centroids(1, 0) = 10.0;
  centroids(1, 1) = 10.0;
  ml::KMeansConfig kconfig;
  kconfig.k = 2;

  core::ClusterTable table;
  table.assign(kChrome100, swapped_table ? 1 : 0);
  table.assign(kFirefox100, swapped_table ? 0 : 1);

  return core::Polygraph::from_parts(
      config, ml::StandardScaler::from_params({0.0, 0.0}, {1.0, 1.0}),
      ml::Pca::from_params({0.0, 0.0}, {1.0, 1.0}, ml::Matrix::identity(2)),
      ml::KMeans::from_centroids(std::move(centroids), kconfig),
      std::move(table));
}

ScoreRequest request_at_origin(std::uint64_t id) {
  ScoreRequest request;
  request.id = id;
  request.features = {0, 0};
  request.claimed = kChrome100;
  return request;
}

// ------------------------------ registry ------------------------------

TEST(ServeRegistry, EmptyUntilFirstPublish) {
  ModelRegistry registry;
  EXPECT_EQ(registry.version(), 0u);
  const ModelSnapshot snapshot = registry.current();
  EXPECT_FALSE(snapshot);
  EXPECT_EQ(snapshot.model, nullptr);
  EXPECT_EQ(snapshot.version, 0u);
}

TEST(ServeRegistry, PublishAssignsMonotonicVersions) {
  ModelRegistry registry;
  EXPECT_EQ(registry.publish(make_model(false)), 1u);
  EXPECT_EQ(registry.publish(make_model(true)), 2u);
  EXPECT_EQ(registry.publish(make_model(false)), 3u);
  EXPECT_EQ(registry.version(), 3u);
  const ModelSnapshot snapshot = registry.current();
  ASSERT_TRUE(snapshot);
  EXPECT_EQ(snapshot.version, 3u);
}

TEST(ServeRegistry, RejectsNullAndUntrainedModels) {
  ModelRegistry registry;
  EXPECT_EQ(registry.publish(std::shared_ptr<const core::Polygraph>{}), 0u);
  core::PolygraphConfig config;
  config.feature_indices = {0, 1};
  EXPECT_EQ(registry.publish(core::Polygraph(config)), 0u);  // never trained
  EXPECT_EQ(registry.version(), 0u);
  EXPECT_FALSE(registry.current());
}

TEST(ServeRegistry, SnapshotSurvivesSupersedingPublish) {
  ModelRegistry registry;
  registry.publish(make_model(false));
  const ModelSnapshot held = registry.current();
  registry.publish(make_model(true));
  // The old snapshot keeps scoring consistently even after the swap.
  ASSERT_TRUE(held);
  EXPECT_EQ(held.version, 1u);
  core::ScoringScratch scratch;
  const auto detection =
      held.model->score(std::span<const std::int32_t>(
                            std::vector<std::int32_t>{0, 0}),
                        kChrome100, scratch);
  EXPECT_FALSE(detection.flagged);
}

// ------------------------------- engine -------------------------------

TEST(ServeEngine, ScoresMatchDirectModelCalls) {
  ModelRegistry registry;
  registry.publish(make_model(false));
  const ModelSnapshot snapshot = registry.current();

  std::mutex mutex;
  std::vector<ScoreResponse> responses;
  EngineConfig config;
  config.workers = 2;
  ScoringEngine engine(registry, config, [&](const ScoreResponse& r) {
    std::lock_guard lock(mutex);
    responses.push_back(r);
  });

  std::vector<ScoreRequest> sent;
  for (std::uint64_t i = 0; i < 200; ++i) {
    ScoreRequest request;
    request.id = i;
    const bool near_far_cluster = i % 3 == 0;
    request.features = near_far_cluster ? std::vector<std::int32_t>{9, 11}
                                        : std::vector<std::int32_t>{1, 0};
    request.claimed = i % 2 == 0 ? kChrome100 : kFirefox100;
    sent.push_back(request);
    EXPECT_EQ(engine.submit(request), SubmitResult::kAdmitted);
  }
  engine.drain();
  engine.stop();

  ASSERT_EQ(responses.size(), sent.size());
  core::ScoringScratch scratch;
  for (const ScoreResponse& response : responses) {
    const ScoreRequest& original = sent[response.id];
    EXPECT_EQ(response.status, ResponseStatus::kScored);
    EXPECT_EQ(response.model_version, 1u);
    const core::Detection expected = snapshot.model->score(
        std::span<const std::int32_t>(original.features), original.claimed,
        scratch);
    EXPECT_EQ(response.detection.predicted_cluster, expected.predicted_cluster);
    EXPECT_EQ(response.detection.expected_cluster, expected.expected_cluster);
    EXPECT_EQ(response.detection.flagged, expected.flagged);
    EXPECT_EQ(response.detection.risk_factor, expected.risk_factor);
  }
  const MetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.scored, sent.size());
  EXPECT_EQ(metrics.shed, 0u);
  EXPECT_EQ(metrics.rejected, 0u);
}

// The tentpole invariant: hammer the engine from several producers while
// a swapper republishes alternating models mid-flight.  No response may
// be lost or duplicated, and every detection must be attributable to
// exactly one published version (here: parity of the version number
// predicts the flag, because A and B invert the cluster table).
TEST(ServeEngine, HotSwapUnderLoadLosesNothingAndVersionsEveryDetection) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 2'500;
  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  constexpr int kSwaps = 40;

  ModelRegistry registry;
  ASSERT_EQ(registry.publish(make_model(false)), 1u);  // odd versions = A

  std::vector<std::atomic<std::uint64_t>> seen_version(kTotal);
  std::vector<std::atomic<int>> seen_count(kTotal);
  std::atomic<std::uint64_t> flag_mismatches{0};

  EngineConfig config;
  config.workers = 4;
  config.queue_capacity = 256;
  config.max_batch = 16;
  config.overflow_policy = OverflowPolicy::kBlock;
  ScoringEngine engine(registry, config, [&](const ScoreResponse& r) {
    seen_count[r.id].fetch_add(1, std::memory_order_relaxed);
    seen_version[r.id].store(r.model_version, std::memory_order_relaxed);
    if (r.status == ResponseStatus::kScored) {
      // Version parity fully determines the expected verdict.
      const bool expect_flagged = r.model_version % 2 == 0;
      if (r.detection.flagged != expect_flagged) {
        flag_mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  std::atomic<bool> swapping{true};
  std::thread swapper([&] {
    for (int s = 0; s < kSwaps && swapping.load(); ++s) {
      const bool publish_b = s % 2 == 0;  // versions 2,3,4,... alternate
      EXPECT_GT(registry.publish(make_model(publish_b)), 1u);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    swapping.store(false);
  });

  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        EXPECT_EQ(engine.submit(request_at_origin(p * kPerProducer + i)),
                  SubmitResult::kAdmitted);
      }
    });
  }
  for (auto& t : producers) t.join();
  engine.drain();
  swapping.store(false);
  swapper.join();
  const std::uint64_t last_version = registry.version();
  engine.stop();

  // Exactly one response per admitted request, no lost, no duplicated.
  for (std::uint64_t id = 0; id < kTotal; ++id) {
    ASSERT_EQ(seen_count[id].load(), 1) << "request " << id;
    const std::uint64_t version = seen_version[id].load();
    EXPECT_GE(version, 1u) << "request " << id;
    EXPECT_LE(version, last_version) << "request " << id;
  }
  // Every detection matched the verdict of the version it claims.
  EXPECT_EQ(flag_mismatches.load(), 0u);

  const MetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.scored, kTotal);  // Block policy: lossless
  EXPECT_EQ(metrics.shed, 0u);
  EXPECT_EQ(metrics.rejected, 0u);
  EXPECT_EQ(metrics.queue_depth, 0u);
  EXPECT_GE(metrics.model_version, 1u);
  EXPECT_GT(metrics.batches, 0u);
}

TEST(ServeEngine, RejectPolicyRefusesOverloadSynchronously) {
  constexpr std::uint64_t kOffered = 100;
  ModelRegistry registry;  // nothing published yet: workers must wait

  std::vector<std::atomic<int>> responses(kOffered);
  EngineConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  config.max_batch = 4;
  config.overflow_policy = OverflowPolicy::kReject;
  ScoringEngine engine(registry, config, [&](const ScoreResponse& r) {
    responses[r.id].fetch_add(1);
  });

  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  for (std::uint64_t i = 0; i < kOffered; ++i) {
    switch (engine.submit(request_at_origin(i))) {
      case SubmitResult::kAdmitted:
        ++admitted;
        break;
      case SubmitResult::kRejected:
        ++rejected;
        break;
      case SubmitResult::kStopped:
        FAIL() << "engine is running";
    }
  }
  // With no model published, the worker can hold at most one batch while
  // the queue buffers `capacity` more; everything else must bounce.
  EXPECT_LE(admitted, config.queue_capacity + config.max_batch);
  EXPECT_GE(rejected, kOffered - config.queue_capacity - config.max_batch);

  registry.publish(make_model(false));  // un-gate the worker
  engine.drain();
  engine.stop();

  std::uint64_t answered = 0;
  for (std::uint64_t id = 0; id < kOffered; ++id) {
    const int n = responses[id].load();
    ASSERT_LE(n, 1) << "request " << id;
    answered += static_cast<std::uint64_t>(n);
  }
  EXPECT_EQ(answered, admitted);  // rejected submissions get no response
  const MetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.rejected, rejected);
  EXPECT_EQ(metrics.scored, admitted);
}

TEST(ServeEngine, StopWithoutModelShedsAdmittedRequests) {
  ModelRegistry registry;
  std::vector<std::atomic<int>> shed(10);
  EngineConfig config;
  config.workers = 2;
  ScoringEngine engine(registry, config, [&](const ScoreResponse& r) {
    EXPECT_EQ(r.status, ResponseStatus::kShed);
    shed[r.id].fetch_add(1);
  });
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(engine.submit(request_at_origin(i)), SubmitResult::kAdmitted);
  }
  engine.stop();
  for (std::uint64_t id = 0; id < 10; ++id) {
    EXPECT_EQ(shed[id].load(), 1) << "request " << id;
  }
  const MetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.shed, 10u);
  EXPECT_EQ(metrics.scored, 0u);
  EXPECT_EQ(metrics.rejected, 0u);
  EXPECT_EQ(engine.submit(request_at_origin(0)), SubmitResult::kStopped);
}

TEST(ServeEngine, LatencyHistogramFeedsPercentiles) {
  ModelRegistry registry;
  registry.publish(make_model(false));
  EngineConfig config;
  config.workers = 1;
  ScoringEngine engine(registry, config, nullptr);
  for (std::uint64_t i = 0; i < 500; ++i) {
    engine.submit(request_at_origin(i));
  }
  engine.drain();
  engine.stop();
  const MetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.scored, 500u);
  std::uint64_t histogram_total = 0;
  for (std::uint64_t c : metrics.latency_histogram) histogram_total += c;
  EXPECT_EQ(histogram_total, 500u);
  EXPECT_GT(metrics.p99_micros(), 0.0);
  EXPECT_LE(metrics.p50_micros(), metrics.p95_micros());
  EXPECT_LE(metrics.p95_micros(), metrics.p99_micros());
  // A 2-feature toy model on an idle box sits far inside the paper's
  // 100 ms budget.
  EXPECT_TRUE(metrics.within_budget());
  EXPECT_FALSE(metrics.summary().empty());
}

// ---------------------------- answer order ----------------------------
//
// Every answer path records before it responds: inside the response
// callback the request's three spans are already in the TraceSink (the
// terminal one named for the path) and, where the status carries a
// verdict, its AuditTrail record already exists.  Request ids start at
// 1 because a request's id is its local trace id.

class AnswerOrder : public ::testing::Test {
 protected:
  struct Answer {
    ScoreResponse response;
    int spans = 0;         // spans of this request already recorded
    std::string terminal;  // name of span 3, the terminal span
    bool audited = false;  // an audit record for the request exists
  };

  ScoringEngine& start(EngineConfig config) {
    config.trace = &trace_;
    config.audit = &audit_;
    engine_ = std::make_unique<ScoringEngine>(
        registry_, config, [this](const ScoreResponse& r) { observe(r); });
    return *engine_;
  }

  std::size_t answered() {
    std::lock_guard lock(mutex_);
    return answers_.size();
  }

  // The one answer for `id` must have status `status` (and `cached`),
  // its three spans under terminal span `terminal`, and an audit record
  // exactly when the status carries a verdict.
  void expect_answer(std::uint64_t id, ResponseStatus status, bool cached,
                     const char* terminal) {
    std::lock_guard lock(mutex_);
    int found = 0;
    for (const Answer& answer : answers_) {
      if (answer.response.id != id) continue;
      ++found;
      EXPECT_EQ(answer.response.status, status) << "request " << id;
      EXPECT_EQ(answer.response.cached, cached) << "request " << id;
      EXPECT_EQ(answer.spans, 3) << "request " << id;
      EXPECT_EQ(answer.terminal, terminal) << "request " << id;
      const bool verdict = status == ResponseStatus::kScored ||
                           status == ResponseStatus::kDegraded;
      EXPECT_EQ(answer.audited, verdict) << "request " << id;
    }
    EXPECT_EQ(found, 1) << "request " << id;
  }

  ModelRegistry registry_;

 private:
  void observe(const ScoreResponse& response) {
    Answer answer;
    answer.response = response;
    for (const obs::TraceEvent& event : trace_.events()) {
      if (event.trace_id != response.id) continue;
      ++answer.spans;
      if (event.span_id == 3) answer.terminal = event.name;
    }
    for (const obs::AuditRecord& record : audit_.records()) {
      answer.audited |= record.session_id == response.id;
    }
    std::lock_guard lock(mutex_);
    answers_.push_back(std::move(answer));
  }

  obs::TraceSink trace_{{.capacity = 1024, .sample_rate = 1.0}};
  obs::AuditTrail audit_{{.capacity = 1024, .unflagged_sample_rate = 1.0}};
  std::mutex mutex_;
  std::vector<Answer> answers_;
  // Declared last: destroyed (stopped) before the sinks it writes to.
  std::unique_ptr<ScoringEngine> engine_;
};

TEST_F(AnswerOrder, Scored) {
  registry_.publish(make_model(false));
  ScoringEngine& engine = start({.workers = 1});
  ASSERT_EQ(engine.submit(request_at_origin(1)), SubmitResult::kAdmitted);
  engine.drain();
  expect_answer(1, ResponseStatus::kScored, false, "score");
}

TEST_F(AnswerOrder, SubmitSideCacheHit) {
  registry_.publish(make_model(false));
  ScoringEngine& engine = start({.workers = 1, .cache_capacity = 64});
  ASSERT_EQ(engine.submit(request_at_origin(1)), SubmitResult::kAdmitted);
  engine.drain();  // scored by the worker, then inserted
  ASSERT_EQ(engine.submit(request_at_origin(2)), SubmitResult::kAdmitted);
  EXPECT_EQ(answered(), 2u);  // answered inside the submit call
  expect_answer(2, ResponseStatus::kScored, true, "cache_hit");
}

TEST_F(AnswerOrder, WorkerSideCacheHit) {
  // Nothing published at submit, so neither request is looked up there;
  // one request per batch, so the second is picked up after the first
  // was scored and inserted.
  ScoringEngine& engine =
      start({.workers = 1, .max_batch = 1, .cache_capacity = 64});
  ASSERT_EQ(engine.submit(request_at_origin(1)), SubmitResult::kAdmitted);
  ASSERT_EQ(engine.submit(request_at_origin(2)), SubmitResult::kAdmitted);
  registry_.publish(make_model(false));
  engine.drain();
  expect_answer(1, ResponseStatus::kScored, false, "score");
  expect_answer(2, ResponseStatus::kScored, true, "cache_hit");
}

TEST_F(AnswerOrder, Degraded) {
  ScoringEngine& engine =
      start({.workers = 1, .degrade_without_model = true});
  ASSERT_EQ(engine.submit(request_at_origin(1)), SubmitResult::kAdmitted);
  engine.drain();
  expect_answer(1, ResponseStatus::kDegraded, false, "degrade");
}

TEST_F(AnswerOrder, ShedOnStopBeforePublish) {
  ScoringEngine& engine = start({.workers = 1});
  for (std::uint64_t id = 1; id <= 3; ++id) {
    ASSERT_EQ(engine.submit(request_at_origin(id)), SubmitResult::kAdmitted);
  }
  EXPECT_EQ(answered(), 0u);
  engine.stop();
  for (std::uint64_t id = 1; id <= 3; ++id) {
    expect_answer(id, ResponseStatus::kShed, false, "shed");
  }
}

}  // namespace
}  // namespace bp::serve
