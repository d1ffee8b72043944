// The network-plane hardening suite: the fault-injectable socket seam
// (net/socket_ops.h), the listener's slow-loris / keep-alive-reaper
// defenses (DESIGN.md §15) and its write path (DESIGN.md §13).  Everything here runs over real sockets;
// the injected faults are deterministic (util/fault.h), so a failing
// run replays.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/http_common.h"
#include "net/socket_ops.h"
#include "util/fault.h"

namespace bp::net {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

std::chrono::milliseconds sock_timeout(int fd, int option) {
  timeval tv{};
  socklen_t len = sizeof(tv);
  if (::getsockopt(fd, SOL_SOCKET, option, &tv, &len) != 0) return -1ms;
  return std::chrono::milliseconds(tv.tv_sec * 1000 + tv.tv_usec / 1000);
}

HttpListener::Handler echo_handler() {
  return [](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.method + " " + request.path + " " +
                    std::string(request.body) + "\n";
    return response;
  };
}

// Poll `condition` until it holds or `deadline_ms` elapses — the
// reaper acts on a handler thread's schedule, not the test's.
template <typename Fn>
bool eventually(Fn condition, int deadline_ms = 3000) {
  const Clock::time_point give_up = Clock::now() + 1ms * deadline_ms;
  while (Clock::now() < give_up) {
    if (condition()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return condition();
}

// A raw client connection to 127.0.0.1:`port` (off the fault seam, so
// an armed send or recv point counts only the listener's calls), with
// a 5 s recv timeout so a lost response fails instead of hanging.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool send_raw(int fd, std::string_view data) {
  return ::send(fd, data.data(), data.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(data.size());
}

// Everything the peer sends until it closes.  `clean_eof` reports
// whether the stream ended in EOF (not a reset or a timeout).
std::string read_to_eof(int fd, bool* clean_eof = nullptr) {
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  if (clean_eof != nullptr) *clean_eof = n == 0;
  return out;
}

std::string get_request(const std::string& path, bool close = false) {
  return "GET " + path + " HTTP/1.1\r\nHost: t\r\n" +
         (close ? "Connection: close\r\n" : "") + "\r\n";
}

// The bytes echo_handler's answer to GET `path` puts on the wire.
std::string echo_response(const std::string& path, bool keep_alive = true) {
  HttpResponse response;
  response.body = "GET " + path + " \n";
  response.keep_alive = keep_alive;
  return serialize_response(response);
}

// --------------------------------------------------------- socket seam

// The regression the seam was built on top of: an I/O deadline must
// cover BOTH directions.  A peer that stops reading wedges send()
// exactly like a peer that stops writing wedges recv().
TEST(SockOps, SetIoTimeoutSetsBothDirections) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockops::set_io_timeout(fd, 1500ms);
  EXPECT_EQ(sock_timeout(fd, SO_RCVTIMEO), 1500ms);
  EXPECT_EQ(sock_timeout(fd, SO_SNDTIMEO), 1500ms);
  ::close(fd);
}

TEST(SockOps, SetNodelay) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockops::set_nodelay(fd);
  int value = 0;
  socklen_t len = sizeof(value);
  ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  EXPECT_NE(value, 0);
  ::close(fd);
}

TEST(SockOps, PerDirectionTimeoutsAreIndependent) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockops::set_recv_timeout(fd, 100ms);
  sockops::set_send_timeout(fd, 700ms);
  EXPECT_EQ(sock_timeout(fd, SO_RCVTIMEO), 100ms);
  EXPECT_EQ(sock_timeout(fd, SO_SNDTIMEO), 700ms);
  ::close(fd);
}

// Behavioral half of the regression: with the send timeout set, a
// full socket buffer (a peer that never reads) unwedges send() within
// the deadline instead of blocking forever.
TEST(SockOps, SendUnwedgesWhenThePeerStopsReading) {
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  sockops::set_io_timeout(pair[0], 100ms);
  const std::string block(64 * 1024, 'x');
  const Clock::time_point start = Clock::now();
  // Nobody reads pair[1]; keep writing until the kernel buffer fills
  // and the timeout fires.
  bool timed_out = false;
  for (int i = 0; i < 1024 && !timed_out; ++i) {
    if (!sockops::send_all(pair[0], block)) {
      timed_out = errno == EAGAIN || errno == EWOULDBLOCK;
      break;
    }
  }
  EXPECT_TRUE(timed_out);
  EXPECT_LT(Clock::now() - start, 3s);
  ::close(pair[0]);
  ::close(pair[1]);
}

TEST(SockOps, InjectedEintrDoesNotTouchTheSocket) {
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  ASSERT_EQ(::send(pair[1], "hi", 2, 0), 2);
  char buf[8];
  {
    util::ScopedFaults faults("net.sock.recv.eintr:1");
    errno = 0;
    EXPECT_EQ(sockops::recv_some(pair[0], buf, sizeof(buf)), -1);
    EXPECT_EQ(errno, EINTR);
  }
  // The injected EINTR consumed nothing: the bytes are still there.
  EXPECT_EQ(sockops::recv_some(pair[0], buf, sizeof(buf)), 2);
  ::close(pair[0]);
  ::close(pair[1]);
}

TEST(SockOps, SendAllFinishesUnderInjectedPartialWrites) {
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  const std::string payload(997, 'p');
  // A peer must drain concurrently: one-byte sends carry large per-skb
  // kernel overhead, so an undrained socketpair fills up fast.
  std::string received;
  std::thread reader([&] {
    char buf[4096];
    ssize_t n;
    while (received.size() < payload.size() &&
           (n = ::recv(pair[1], buf, sizeof(buf), 0)) > 0) {
      received.append(buf, static_cast<std::size_t>(n));
    }
  });
  {
    util::ScopedFaults faults("net.sock.send.partial:1");
    ASSERT_TRUE(sockops::send_all(pair[0], payload));
    // Every write was clamped to one byte (the final single-byte send
    // has nothing left to clamp, so it does not evaluate the point).
    EXPECT_GE(util::FaultRegistry::instance().fires("net.sock.send.partial"),
              payload.size() - 1);
  }
  reader.join();
  EXPECT_EQ(received, payload);  // fragmented, never lost
  ::close(pair[0]);
  ::close(pair[1]);
}

// The end-to-end guarantee the seam exists for: a full HTTP exchange
// survives pathological fragmentation and signal interruptions on
// both sides (listener and client share the seam in-process).
TEST(SockOps, HttpExchangeSurvivesShortReadsEintrAndPartialWrites) {
  ListenerConfig config;
  config.keep_alive = true;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();
  util::ScopedFaults faults(
      "net.sock.recv.short:1,net.sock.send.partial:1,"
      "net.sock.recv.eintr:0.2:3,net.sock.send.eintr:0.2:5");
  const HttpResult result =
      http_post("127.0.0.1", listener.port(), "/echo", "payload", "text/plain",
                5000ms);
  ASSERT_EQ(result.status, 200) << result.error;
  EXPECT_EQ(result.body, "POST /echo payload\n");
}

TEST(SockOps, InjectedConnectRefusalIsTyped) {
  ListenerConfig config;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();
  HttpClient client("127.0.0.1", listener.port());
  {
    util::ScopedFaults faults("net.sock.connect:1");
    EXPECT_FALSE(client.connect());
    EXPECT_FALSE(client.error().empty());
  }
  EXPECT_TRUE(client.connect()) << client.error();
}

TEST(SockOps, InjectedResetSurfacesAsTransportError) {
  ListenerConfig config;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();
  util::ScopedFaults faults("net.sock.recv.reset:1");
  const Clock::time_point start = Clock::now();
  const HttpResult result = http_get("127.0.0.1", listener.port(), "/x");
  EXPECT_EQ(result.status, -1);
  EXPECT_FALSE(result.error.empty());
  EXPECT_LT(Clock::now() - start, 3s);  // typed failure, not a hang
}

// ------------------------------------------------- listener hardening

// A peer that sends half a request head and goes quiet is cut off at
// the header deadline with 408 — not held for io_timeout per byte.
TEST(HttpListenerHardening, SlowLorisIsCutOffAtTheHeaderDeadline) {
  ListenerConfig config;
  config.header_timeout = 150ms;
  config.io_timeout = 2000ms;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  const Clock::time_point start = Clock::now();
  const std::string_view partial_head = "GET /slow HTTP/1.1\r\nHos";
  ASSERT_EQ(::send(fd, partial_head.data(), partial_head.size(), 0),
            static_cast<ssize_t>(partial_head.size()));
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  EXPECT_NE(response.find("408 Request Timeout"), std::string::npos)
      << response;
  // Cut at the header deadline, not at deadline + io_timeout.
  EXPECT_LT(Clock::now() - start, 1500ms);
  EXPECT_EQ(listener.slowloris(), 1u);
  EXPECT_EQ(listener.reaped(), 0u);
}

// An idle keep-alive connection is reaped after io_timeout and counted;
// the client's next request transparently reconnects.
TEST(HttpListenerHardening, IdleKeepAliveConnectionIsReaped) {
  ListenerConfig config;
  config.keep_alive = true;
  config.io_timeout = 100ms;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();

  HttpClient client("127.0.0.1", listener.port());
  ASSERT_EQ(client.get("/a").status, 200);
  EXPECT_TRUE(eventually([&] { return listener.reaped() == 1; }));
  ASSERT_EQ(client.get("/b").status, 200);
  EXPECT_EQ(client.connects(), 2u);
}

TEST(HttpListenerHardening, MaxRequestsPerConnectionCapsReuse) {
  ListenerConfig config;
  config.keep_alive = true;
  config.max_requests_per_connection = 2;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();

  HttpClient client("127.0.0.1", listener.port());
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(client.get("/r").status, 200) << "request " << i;
  }
  // Six requests at two per connection: three connections, and each
  // cap-closed connection counts as a policy reap.
  EXPECT_EQ(client.connects(), 3u);
  EXPECT_EQ(listener.requests(), 6u);
  EXPECT_GE(listener.reaped(), 2u);
}

TEST(HttpListenerHardening, LifetimeCapReapsBetweenRequests) {
  ListenerConfig config;
  config.keep_alive = true;
  // Generous cap: under a sanitizer, serving /a alone can cost tens of
  // milliseconds, and a connection that expires *before* /a's response
  // would throw the connect/reap counts off by one.
  config.max_connection_lifetime = 400ms;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();

  HttpClient client("127.0.0.1", listener.port());
  ASSERT_EQ(client.get("/a").status, 200);
  std::this_thread::sleep_for(500ms);
  // /b arrives past the lifetime cap: it is still answered, but with
  // Connection: close (counted as a reap); /c then reconnects.
  ASSERT_EQ(client.get("/b").status, 200);
  EXPECT_EQ(listener.reaped(), 1u);
  ASSERT_EQ(client.get("/c").status, 200);
  EXPECT_EQ(client.connects(), 2u);
}

// ------------------------------------------------- listener write path

// A 16-request pipelined burst that arrives in one segment is answered
// in order by one write (two if the kernel split the burst), not one
// write per response.
TEST(HttpListenerWritePath, PipelinedBurstIsAnsweredInOneWrite) {
  ListenerConfig config;
  config.keep_alive = true;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();

  std::string burst;
  std::string expected;
  for (int i = 0; i < 16; ++i) {
    const std::string path = "/r" + std::to_string(i);
    burst += get_request(path, /*close=*/i == 15);
    expected += echo_response(path, /*keep_alive=*/i != 15);
  }
  // Armed at probability 0: never fires, but counts every send_some.
  util::ScopedFaults faults("net.sock.send.stall:0");
  const int fd = connect_raw(listener.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_raw(fd, burst));
  bool clean_eof = false;
  EXPECT_EQ(read_to_eof(fd, &clean_eof), expected);
  EXPECT_TRUE(clean_eof);
  ::close(fd);
  EXPECT_LE(util::FaultRegistry::instance().evaluations("net.sock.send.stall"),
            2u);
}

// Every early exit flushes what was already answered: pipelined good
// requests ahead of a bad one arrive as their 200s, then the error
// answer, then EOF.  Nothing answered is lost.
TEST(HttpListenerWritePath, EveryEarlyExitFlushesAnsweredResponses) {
  ListenerConfig config;
  config.keep_alive = true;
  config.max_head_bytes = 256;
  config.max_body_bytes = 64;
  config.header_timeout = 100ms;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();

  struct Case {
    const char* name;
    std::string tail;  // sent right behind the two good requests
    int status;        // the error answer; 0 = none, just EOF
    const char* body;
    bool half_close;  // the client ends its side after the tail
  };
  const std::vector<Case> cases = {
      {"malformed head", "BROKEN\r\n\r\n", 400, "malformed request\n",
       false},
      {"oversized Content-Length",
       "POST /big HTTP/1.1\r\nContent-Length: 1000\r\n\r\n", 413,
       "request body too large\n", false},
      {"oversized head", "GET /" + std::string(300, 'x'), 431,
       "request head too large\n", false},
      {"head deadline", "GET /slow HTTP/1.1\r\nHos", 408,
       "request head timeout\n", false},
      {"truncated body",
       "POST /cut HTTP/1.1\r\nContent-Length: 50\r\n\r\nabc", 0, "", true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string expected = echo_response("/a") + echo_response("/b");
    if (c.status != 0) {
      HttpResponse error;
      error.status = c.status;
      error.body = c.body;
      expected += serialize_response(error);
    }
    const int fd = connect_raw(listener.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_raw(fd, get_request("/a") + get_request("/b") + c.tail));
    if (c.half_close) ::shutdown(fd, SHUT_WR);
    bool clean_eof = false;
    EXPECT_EQ(read_to_eof(fd, &clean_eof), expected);
    EXPECT_TRUE(clean_eof);
    ::close(fd);
  }
}

// Injected one-byte writes only fragment the coalesced write: the
// burst's response bytes are identical to the unfaulted run.
TEST(HttpListenerWritePath, PartialWritesOnlyFragmentThePipelinedBurst) {
  ListenerConfig config;
  config.keep_alive = true;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();

  std::string burst;
  for (int i = 0; i < 16; ++i) {
    burst += get_request("/p" + std::to_string(i), /*close=*/i == 15);
  }
  const auto run_burst = [&] {
    const int fd = connect_raw(listener.port());
    EXPECT_GE(fd, 0);
    EXPECT_TRUE(send_raw(fd, burst));
    std::string received = read_to_eof(fd);
    ::close(fd);
    return received;
  };
  const std::string clean = run_burst();
  ASSERT_FALSE(clean.empty());
  util::ScopedFaults faults("net.sock.send.partial:1");
  EXPECT_EQ(run_burst(), clean);
  EXPECT_GE(util::FaultRegistry::instance().fires("net.sock.send.partial"),
            clean.size() / 2);
}

// The Nagle chain.  Open loop: 200 requests 2 ms apart on a
// non-blocking socket, each timed from its send to its response's last
// byte.  By the 20th write the client's stack delays its ACKs to ride
// on its next request; that write carries two requests, so the first
// response is unACKed when the second is written.  Without
// TCP_NODELAY the second is then held until the next request brings
// the ACK, and so is every later response on the connection: each
// waits a full inter-request gap.
TEST(HttpListenerWritePath, ResponsesDoNotWaitForTheNextRequest) {
  ListenerConfig config;
  config.keep_alive = true;
  HttpListener listener(config, echo_handler());
  ASSERT_TRUE(listener.running()) << listener.error();

  const int fd = connect_raw(listener.port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK), 0);
  const std::string request = get_request("/n");
  const std::size_t response_size = echo_response("/n").size();

  constexpr std::size_t kRequests = 200;
  constexpr std::size_t kPairAt = 20;
  constexpr auto kGap = 2ms;
  std::vector<Clock::time_point> sent_at;
  std::vector<Clock::duration> latency;
  std::size_t received = 0;
  char buf[4096];
  Clock::time_point next_send = Clock::now();
  const Clock::time_point give_up = next_send + kRequests * kGap + 10s;
  while (latency.size() < kRequests && Clock::now() < give_up) {
    if (sent_at.size() < kRequests && Clock::now() >= next_send) {
      const bool pair = sent_at.size() == kPairAt;
      ASSERT_TRUE(send_raw(fd, pair ? request + request : request));
      sent_at.insert(sent_at.end(), pair ? 2 : 1, Clock::now());
      next_send += kGap;
    }
    const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::max(next_send - Clock::now(), Clock::duration::zero()));
    const timespec timeout{static_cast<time_t>(wait.count() / 1000000000),
                           static_cast<long>(wait.count() % 1000000000)};
    pollfd pfd{fd, POLLIN, 0};
    if (::ppoll(&pfd, 1, &timeout, nullptr) <= 0) continue;
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      received += static_cast<std::size_t>(n);
    }
    ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        << "connection ended after " << latency.size() << " responses";
    const Clock::time_point now = Clock::now();
    while (received >= (latency.size() + 1) * response_size) {
      latency.push_back(now - sent_at[latency.size()]);
    }
  }
  ::close(fd);
  ASSERT_EQ(latency.size(), kRequests);
  std::sort(latency.begin(), latency.end());
  const auto p90 = latency[kRequests * 9 / 10];
  EXPECT_LT(p90, 1ms) << "p90 "
                      << std::chrono::duration_cast<std::chrono::microseconds>(
                             p90)
                             .count()
                      << " us";
}

}  // namespace
}  // namespace bp::net
