// The benchmark's own load generator for POST /score.
//
// One thread drives every connection over raw non-blocking sockets
// (TCP_NODELAY set), so a change to net::HttpClient or net::ScoreClient
// is measured by the benchmark rather than absorbed into it.  Two loop
// shapes:
//
//   open loop   - seeded Poisson arrivals at a fixed total rate, each
//                 arrival on a uniformly chosen connection (independent
//                 users).  Latency runs from the *scheduled* send time,
//                 so a stall also charges the requests queued behind
//                 it; how late the generator itself sent is reported
//                 as lateness.  The generator spins between arrivals.
//   closed loop - every connection keeps a fixed window of pipelined
//                 requests outstanding; a response releases the next
//                 request on its connection.
//
// Each response is validated as it arrives: HTTP 200, a parseable wire
// frame, the echoed session id of the oldest outstanding request on the
// connection, and a caller-supplied check of the verdict itself.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "inputs.h"

namespace polybench {

// One request in flight.
struct Pending {
  std::uint64_t session_id = 0;
  std::uint32_t entry = 0;         // index into Stream::entries
  std::uint64_t min_version = 0;   // registry version when it was sent
  std::int64_t scheduled_ns = 0;   // open loop: scheduled send time
};

// The response frame's fields, parsed by the generator itself.
struct WireVerdict {
  std::uint64_t session_id = 0;
  bool scored = false;
  bool flagged = false;
  std::int64_t risk = 0;
  std::uint32_t cluster = 0;
  std::uint64_t version = 0;
};

struct PhaseResult {
  std::uint64_t attempted = 0;  // requests sent
  std::uint64_t answered = 0;   // 200 + parseable frame + echoed id
  std::uint64_t failed = 0;     // no response, non-200 or unparseable
  std::uint64_t wrong = 0;      // answered, but the verdict check failed
  std::string first_problem;    // first failure or wrong verdict, for logs

  // Open loop: scheduled-send -> response, and actual - scheduled send.
  std::vector<std::int64_t> latency_ns;
  std::vector<std::int64_t> lateness_ns;

  // Closed loop: the measured window (sending stops at its end; the
  // drain after it is validated but not timed).
  double window_s = 0.0;
  std::uint64_t window_answered = 0;
  double window_process_cpu_s = 0.0;
  double window_generator_cpu_s = 0.0;
  // Time the generator spent blocked because no connection had a
  // response to read: the share of the window it waited on the server.
  double window_generator_wait_s = 0.0;
};

// Thread CPU of the caller / CPU of the whole process, in seconds.
double thread_cpu_s();
double process_cpu_s();
std::int64_t now_ns();

class LoadGenerator {
 public:
  using VersionFn = std::function<std::uint64_t()>;
  // True when the verdict is right for the request; on false, `why`
  // says what was wrong.
  using CheckFn = std::function<bool(const Pending&, const WireVerdict&,
                                     std::string* why)>;

  // `stream` must outlive the generator.  With `trace_context`, every
  // frame carries a sampled `t:<session id>:1:1` context, so the
  // ingress and the engine record its spans.
  LoadGenerator(const Stream& stream, VersionFn version, CheckFn check);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  // Opens `connections` keep-alive connections to 127.0.0.1:port.
  bool connect(std::uint16_t port, std::size_t connections,
               std::string* error);
  void close();

  void set_trace_context(bool on) { trace_context_ = on; }

  // One request, one response (the set-up probe).
  PhaseResult single();
  PhaseResult open_loop(double rate_per_s, double seconds, std::uint64_t seed);
  // Sending stops after `seconds` or `max_requests` requests, whichever
  // comes first (max_requests 0 = no cap).
  PhaseResult closed_loop(std::size_t window, double seconds,
                          std::uint64_t max_requests = 0);

 private:
  struct Conn {
    int fd = -1;
    std::string tx;
    std::size_t tx_off = 0;
    std::string rx;
    std::deque<Pending> pending;
  };

  void enqueue(Conn& conn, std::int64_t scheduled_ns);
  bool flush(Conn& conn, PhaseResult& result);
  // Reads what is available and consumes every complete response.
  // Returns the number of responses consumed; -1 on a dead connection.
  int receive(Conn& conn, PhaseResult& result, bool open_loop);
  // Waits until every outstanding request is answered or `timeout_s`
  // passes; what is still missing then counts as failed.
  void drain(PhaseResult& result, double timeout_s, bool open_loop);
  void fail_connection(Conn& conn, PhaseResult& result, const char* why);

  const Stream& stream_;
  VersionFn version_;
  CheckFn check_;
  std::vector<Conn> conns_;
  std::uint64_t next_session_id_ = 1;
  std::size_t cursor_ = 0;
  bool trace_context_ = false;
};

}  // namespace polybench
