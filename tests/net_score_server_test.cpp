// ScoreServer tests: POST /score over a real TCP socket — correct
// verdicts, keep-alive reuse, raw pipelining, the full malformed-frame
// suite at the HTTP layer, admission control, hot swap under concurrent
// client load (the TSan/ASan soak), and ordered shutdown.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/polygraph.h"
#include "net/http_common.h"
#include "net/score_server.h"
#include "net/wire.h"
#include "obs/metrics_registry.h"
#include "serve/model_registry.h"

namespace bp::net {
namespace {

// Two PCA dims, two clusters: Chrome 100 expects cluster 0 at (0,0);
// features near (10,10) land in cluster 1 and flag.
core::Polygraph tiny_model() {
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
  table.assign({ua::Vendor::kChrome, 100, ua::Os::kWindows10}, 0);
  return core::Polygraph::from_parts(
      config, ml::StandardScaler::from_params({0.0, 0.0}, {1.0, 1.0}),
      ml::Pca::from_params({0.0, 0.0}, {1.0, 1.0}, ml::Matrix::identity(2)),
      ml::KMeans::from_centroids(std::move(centroids), kconfig),
      std::move(table));
}

ScoreServerConfig small_config() {
  ScoreServerConfig config;
  config.router.shards = 2;
  config.router.engine.workers = 1;
  config.router.engine.queue_capacity = 1024;
  config.router.engine.overflow_policy = serve::OverflowPolicy::kReject;
  config.expected_features = 2;
  return config;
}

std::string request_frame(std::uint64_t session, std::string_view ua,
                          std::vector<std::int32_t> features) {
  std::string frame;
  render_score_request(session, ua, features, &frame);
  return frame;
}

// Raw socket helper for pipelining tests: connect, send `payload` in
// one burst, read until `expect_responses` response frames arrived (or
// the peer closes).
std::string raw_burst(std::uint16_t port, const std::string& payload,
                      std::size_t expect_responses) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string out;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::send(fd, payload.data(), payload.size(), 0) ==
          static_cast<ssize_t>(payload.size())) {
    char buf[4096];
    ssize_t n;
    std::size_t seen = 0;
    while (seen < expect_responses &&
           (n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
      seen = 0;
      for (std::size_t pos = 0;
           (pos = out.find("HTTP/1.1 ", pos)) != std::string::npos;
           pos += 9) {
        ++seen;
      }
    }
  }
  ::close(fd);
  return out;
}

class NetScoreServerTest : public ::testing::Test {
 protected:
  void StartServer(ScoreServerConfig config = small_config(),
                   bool publish = true) {
    if (publish) {
      ASSERT_TRUE(models_.publish(tiny_model()));
    }
    server_ = std::make_unique<ScoreServer>(models_, std::move(config));
    ASSERT_TRUE(server_->running()) << server_->error();
  }

  serve::ModelRegistry models_;
  std::unique_ptr<ScoreServer> server_;
};

// ------------------------------ verdict paths ------------------------------

TEST_F(NetScoreServerTest, ScoresOverRealTcp) {
  StartServer();
  // Chrome 100 at (0,0): expected cluster, clean verdict.
  HttpResult clean = http_post("127.0.0.1", server_->port(), "/score",
                               request_frame(7, "Chrome 100", {0, 0}));
  ASSERT_EQ(clean.status, 200) << clean.error;
  WireScoreResponse verdict;
  ASSERT_EQ(parse_score_response(clean.body, &verdict), WireError::kOk)
      << clean.body;
  EXPECT_EQ(verdict.session_id, 7u);
  EXPECT_EQ(verdict.status, serve::ResponseStatus::kScored);
  EXPECT_FALSE(verdict.flagged);
  EXPECT_EQ(verdict.predicted_cluster, 0u);
  EXPECT_EQ(verdict.model_version, 1u);

  // Chrome 100 claiming but fingerprinting at (10,10): cluster
  // mismatch, flagged.
  HttpResult fraud = http_post("127.0.0.1", server_->port(), "/score",
                               request_frame(8, "Chrome 100", {10, 10}));
  ASSERT_EQ(fraud.status, 200);
  ASSERT_EQ(parse_score_response(fraud.body, &verdict), WireError::kOk);
  EXPECT_EQ(verdict.session_id, 8u);
  EXPECT_TRUE(verdict.flagged);
  EXPECT_EQ(verdict.predicted_cluster, 1u);
  EXPECT_EQ(server_->responses(), 2u);
}

TEST_F(NetScoreServerTest, DegradedVerdictBeforeFirstPublish) {
  ScoreServerConfig config = small_config();
  config.router.engine.degrade_without_model = true;
  StartServer(std::move(config), /*publish=*/false);
  HttpResult result = http_post("127.0.0.1", server_->port(), "/score",
                                request_frame(1, "Chrome 100", {0, 0}));
  ASSERT_EQ(result.status, 200) << result.error;
  WireScoreResponse verdict;
  ASSERT_EQ(parse_score_response(result.body, &verdict), WireError::kOk);
  EXPECT_EQ(verdict.status, serve::ResponseStatus::kDegraded);
  EXPECT_EQ(verdict.model_version, 0u);
}

// ----------------------------- HTTP-layer policy -----------------------------

TEST_F(NetScoreServerTest, RefusesWrongVerbAndPath) {
  StartServer();
  EXPECT_EQ(http_get("127.0.0.1", server_->port(), "/score").status, 405);
  EXPECT_EQ(http_post("127.0.0.1", server_->port(), "/metrics",
                      request_frame(1, "Chrome 100", {0, 0}))
                .status,
            404);
}

TEST_F(NetScoreServerTest, MalformedFramesGetTypedFourHundreds) {
  StartServer();
  const struct {
    std::string body;
    std::string expect_name;
  } cases[] = {
      {"", "empty_frame"},
      {"garbage", "bad_magic"},
      {"bp9|1|Chrome 100|0 0", "bad_version"},
      {"bp1|1", "truncated"},
      {"bp1|nope|Chrome 100|0 0", "bad_session_id"},
      {"bp1|1||0 0", "bad_user_agent"},
      {"bp1|1|Chrome 100|", "no_features"},
      {"bp1|1|Chrome 100|0 x", "bad_feature"},
  };
  for (const auto& test_case : cases) {
    HttpResult result = http_post("127.0.0.1", server_->port(), "/score",
                                  test_case.body);
    EXPECT_EQ(result.status, 400) << test_case.expect_name;
    EXPECT_NE(result.body.find(test_case.expect_name), std::string::npos)
        << result.body;
  }
  // Feature-count mismatch against the configured model width.
  HttpResult mismatch = http_post("127.0.0.1", server_->port(), "/score",
                                  request_frame(1, "Chrome 100", {1, 2, 3}));
  EXPECT_EQ(mismatch.status, 400);
  EXPECT_NE(mismatch.body.find("expected 2 features"), std::string::npos);
  EXPECT_EQ(server_->malformed(), 9u);
  EXPECT_EQ(server_->responses(), 0u);
}

TEST_F(NetScoreServerTest, OversizedBodyIsRefused) {
  ScoreServerConfig config = small_config();
  config.listener.max_body_bytes = 256;
  StartServer(std::move(config));
  const std::string big(1024, '1');
  EXPECT_EQ(
      http_post("127.0.0.1", server_->port(), "/score", big).status, 413);
}

// --------------------------- keep-alive + pipelining ---------------------------

TEST_F(NetScoreServerTest, KeepAliveReusesOneConnection) {
  StartServer();
  HttpClient client("127.0.0.1", server_->port());
  for (std::uint64_t session = 1; session <= 20; ++session) {
    HttpResult result =
        client.post("/score", request_frame(session, "Chrome 100", {0, 0}));
    ASSERT_EQ(result.status, 200) << client.error();
    WireScoreResponse verdict;
    ASSERT_EQ(parse_score_response(result.body, &verdict), WireError::kOk);
    EXPECT_EQ(verdict.session_id, session);
  }
  EXPECT_EQ(client.connects(), 1u);
  EXPECT_EQ(server_->responses(), 20u);
}

TEST_F(NetScoreServerTest, PipelinedBurstAnswersInOrder) {
  StartServer();
  // Five requests written in one burst before any response is read.
  std::string payload;
  for (std::uint64_t session = 1; session <= 5; ++session) {
    const std::string frame = request_frame(session, "Chrome 100", {0, 0});
    payload += "POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: " +
               std::to_string(frame.size()) + "\r\n\r\n" + frame;
  }
  const std::string raw = raw_burst(server_->port(), payload, 5);

  // All five answered, in request order (HTTP pipelining contract).
  std::vector<std::uint64_t> order;
  std::size_t pos = 0;
  while ((pos = raw.find("bp1|", pos)) != std::string::npos) {
    WireScoreResponse verdict;
    const std::size_t eol = raw.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    ASSERT_EQ(parse_score_response(raw.substr(pos, eol - pos + 1), &verdict),
              WireError::kOk);
    order.push_back(verdict.session_id);
    pos = eol;
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

// ------------------------------ admission control ------------------------------

TEST_F(NetScoreServerTest, StoppedShardsAnswerFiveOhThree) {
  StartServer();
  // A request that cannot be admitted downstream (here: shards stopped
  // out from under the ingress) releases its slot and answers 503 —
  // the client is told, never hung.
  server_->router().stop();
  HttpResult result = http_post("127.0.0.1", server_->port(), "/score",
                                request_frame(1, "Chrome 100", {0, 0}));
  EXPECT_EQ(result.status, 503);
  EXPECT_GE(server_->admission_rejected(), 1u);
  EXPECT_EQ(server_->inflight(), 0u);
}

TEST_F(NetScoreServerTest, ShardQueueRejectIsFiveOhThree) {
  ScoreServerConfig config = small_config();
  config.router.shards = 1;
  config.router.engine.workers = 1;
  config.router.engine.queue_capacity = 1;
  config.router.engine.overflow_policy = serve::OverflowPolicy::kReject;
  config.listener.handler_threads = 8;
  StartServer(std::move(config));
  // Flood 64 concurrent posts at a 1-deep queue: some score, and under
  // contention some are rejected; every client gets *an* answer.
  std::atomic<int> ok{0};
  std::atomic<int> unavailable{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client("127.0.0.1", server_->port());
      for (int i = 0; i < 8; ++i) {
        const std::uint64_t session = static_cast<std::uint64_t>(t) * 8 + i;
        HttpResult result = client.post(
            "/score", request_frame(session, "Chrome 100", {0, 0}));
        if (result.status == 200) {
          ok.fetch_add(1);
        } else if (result.status == 503) {
          unavailable.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(ok.load() + unavailable.load(), 64);
  EXPECT_GT(ok.load(), 0);
}

// The response_timeout path: the slot table holds one slot per handler
// thread, so a timed-out request's abandoned slot is the only thing that
// can exhaust it — until the late delivery reclaims the slot.
TEST_F(NetScoreServerTest, TimedOutSlotIsReclaimedByLateDelivery) {
  ScoreServerConfig config = small_config();
  config.listener.handler_threads = 1;
  config.router.engine.degrade_without_model = false;
  config.response_timeout = std::chrono::milliseconds(50);
  StartServer(std::move(config), /*publish=*/false);
  HttpClient client("127.0.0.1", server_->port());

  // No model: the shard holds the request, the handler gives up.
  HttpResult result =
      client.post("/score", request_frame(1, "Chrome 100", {0, 0}));
  EXPECT_EQ(result.status, 503) << result.error;
  EXPECT_EQ(result.body, "scoring timeout\n");
  EXPECT_EQ(server_->inflight(), 1u);  // held until the late delivery

  // The only slot is abandoned, not free.
  result = client.post("/score", request_frame(2, "Chrome 100", {0, 0}));
  EXPECT_EQ(result.status, 503) << result.error;
  EXPECT_EQ(result.body, "in-flight budget exhausted\n");
  EXPECT_EQ(server_->admission_rejected(), 1u);

  // Publishing lets the shard answer the first request; that delivery
  // finds the slot abandoned and frees it.
  ASSERT_TRUE(models_.publish(tiny_model()));
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->inflight() != 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server_->inflight(), 0u);

  result = client.post("/score", request_frame(3, "Chrome 100", {0, 0}));
  ASSERT_EQ(result.status, 200) << result.error;
  WireScoreResponse verdict;
  ASSERT_EQ(parse_score_response(result.body, &verdict), WireError::kOk);
  EXPECT_EQ(verdict.session_id, 3u);
  EXPECT_EQ(verdict.status, serve::ResponseStatus::kScored);
  EXPECT_EQ(verdict.model_version, 1u);
  EXPECT_EQ(server_->responses(), 1u);
}

// ------------------------- hot swap under client load -------------------------

// The concurrent soak the sanitizers run: pipelined keep-alive clients
// hammer /score while the model is republished mid-stream.  Zero lost
// or corrupted responses; every verdict names version 1 or 2.
TEST_F(NetScoreServerTest, HotSwapUnderConcurrentLoad) {
  ScoreServerConfig config = small_config();
  config.listener.handler_threads = 4;
  StartServer(std::move(config));

  constexpr int kClients = 4;
  constexpr int kPerClient = 150;
  std::atomic<int> answered{0};
  std::atomic<int> corrupted{0};
  std::atomic<bool> saw_v2{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client("127.0.0.1", server_->port(),
                        std::chrono::milliseconds(10'000));
      for (int i = 0; i < kPerClient; ++i) {
        const std::uint64_t session =
            static_cast<std::uint64_t>(t) * kPerClient + i;
        HttpResult result = client.post(
            "/score", request_frame(session, "Chrome 100", {0, 0}));
        if (result.status != 200) continue;  // 503 under load is legal
        WireScoreResponse verdict;
        if (parse_score_response(result.body, &verdict) != WireError::kOk ||
            verdict.session_id != session ||
            (verdict.model_version != 1 && verdict.model_version != 2)) {
          corrupted.fetch_add(1);
          continue;
        }
        if (verdict.model_version == 2) saw_v2.store(true);
        answered.fetch_add(1);
      }
    });
  }
  // Republish mid-stream: wait until a third of the traffic has been
  // answered so the swap demonstrably lands between verdicts, not
  // before or after the burst.
  while (answered.load(std::memory_order_relaxed) <
         kClients * kPerClient / 3) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(models_.publish(tiny_model()));
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(corrupted.load(), 0);
  EXPECT_GT(answered.load(), 0);
  EXPECT_TRUE(saw_v2.load()) << "no verdict ever saw the new model";
  EXPECT_EQ(server_->router().model_version(), 2u);
}

// ------------------------------- teardown -------------------------------

TEST_F(NetScoreServerTest, StopIsOrderedAndIdempotent) {
  StartServer();
  ASSERT_EQ(http_post("127.0.0.1", server_->port(), "/score",
                      request_frame(1, "Chrome 100", {0, 0}))
                .status,
            200);
  server_->stop();
  EXPECT_EQ(server_->inflight(), 0u);
  // New connections are refused (or reset) once stopped.
  HttpResult after = http_post("127.0.0.1", server_->port(), "/score",
                               request_frame(2, "Chrome 100", {0, 0}));
  EXPECT_NE(after.status, 200);
  server_->stop();  // idempotent
}

TEST_F(NetScoreServerTest, StopUnderActiveClientsAnswersEveryAdmitted) {
  ScoreServerConfig config = small_config();
  config.listener.handler_threads = 4;
  StartServer(std::move(config));
  std::atomic<bool> go{true};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client("127.0.0.1", server_->port());
      std::uint64_t session = static_cast<std::uint64_t>(t) << 32;
      while (go.load(std::memory_order_acquire)) {
        client.post("/score", request_frame(++session, "Chrome 100", {0, 0}));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->stop();  // must not deadlock against blocked handlers
  go.store(false, std::memory_order_release);
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(server_->inflight(), 0u);
}

// ----------------------- shared client against introspect -----------------------

TEST(NetHttpClient, TransparentReconnectAfterServerSideClose) {
  serve::ModelRegistry models;
  ASSERT_TRUE(models.publish(tiny_model()));
  ScoreServerConfig config = small_config();
  ScoreServer server(models, std::move(config));
  ASSERT_TRUE(server.running());

  HttpClient client("127.0.0.1", server.port());
  std::string frame;
  render_score_request(1, "Chrome 100", std::vector<std::int32_t>{0, 0},
                       &frame);
  ASSERT_EQ(client.post("/score", frame).status, 200);
  // An error response closes the connection server-side; the next post
  // must transparently reconnect rather than fail.
  ASSERT_EQ(client.post("/score", "garbage").status, 400);
  render_score_request(2, "Chrome 100", std::vector<std::int32_t>{0, 0},
                       &frame);
  ASSERT_EQ(client.post("/score", frame).status, 200);
  EXPECT_GE(client.connects(), 2u);
}

// The listener's hardening counters ride the registry exposition while
// the server lives, and unregister cleanly when it dies (the gauges
// capture a reference to the listener).
TEST(NetScoreServerMetrics, ListenerGaugesRegisterAndUnregister) {
  obs::MetricsRegistry registry;
  serve::ModelRegistry models;
  ASSERT_TRUE(models.publish(tiny_model()));
  {
    ScoreServerConfig config = small_config();
    config.registry = &registry;
    ScoreServer server(models, std::move(config));
    ASSERT_TRUE(server.running()) << server.error();

    std::string frame;
    render_score_request(1, "Chrome 100", std::vector<std::int32_t>{0, 0},
                         &frame);
    ASSERT_EQ(http_post("127.0.0.1", server.port(), "/score", frame).status,
              200);
    EXPECT_EQ(registry.read_value("bp_net_http_requests_total"), 1.0);
    EXPECT_EQ(registry.read_value("bp_net_http_reaped_total"), 0.0);
    EXPECT_EQ(registry.read_value("bp_net_http_slowloris_total"), 0.0);
    EXPECT_EQ(registry.read_value("bp_net_http_overloaded_total"), 0.0);
  }
  // Server gone: every listener gauge (and the inflight gauge) is gone
  // from the exposition — rendering must not touch a dead listener.
  const std::string rendered = registry.render_prometheus();
  EXPECT_EQ(rendered.find("bp_net_http_"), std::string::npos) << rendered;
  EXPECT_EQ(rendered.find("bp_net_inflight"), std::string::npos) << rendered;
}

}  // namespace
}  // namespace bp::net
