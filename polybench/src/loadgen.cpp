#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <string_view>

namespace polybench {

namespace {

constexpr double kDrainTimeoutS = 10.0;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Uniform in (0, 1]: never 0, so -log() below stays finite.
double uniform_open(std::uint64_t& state) {
  return (static_cast<double>(splitmix64(state) >> 11) + 1.0) * 0x1.0p-53;
}

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

template <typename T>
bool parse_number(std::string_view text, T* out) {
  if (text.empty()) return false;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && end == text.data() + text.size();
}

// "bp1|<sid>|<status>|<flagged>|<risk>|<cluster>|<version>|<latency>\n"
bool parse_verdict(std::string_view body, WireVerdict* out, std::string* why) {
  if (!body.empty() && body.back() == '\n') body.remove_suffix(1);
  std::string_view fields[8];
  std::size_t n = 0;
  std::size_t start = 0;
  while (true) {
    const std::size_t bar = body.find('|', start);
    if (n == 8) {
      *why = "response frame has more than 8 fields";
      return false;
    }
    fields[n++] = body.substr(start, bar == std::string_view::npos
                                         ? std::string_view::npos
                                         : bar - start);
    if (bar == std::string_view::npos) break;
    start = bar + 1;
  }
  if (n != 8 || fields[0] != "bp1") {
    *why = "response frame is not bp1 with 8 fields: " + std::string(body);
    return false;
  }
  std::uint64_t latency = 0;
  if (!parse_number(fields[1], &out->session_id) ||
      !parse_number(fields[4], &out->risk) ||
      !parse_number(fields[5], &out->cluster) ||
      !parse_number(fields[6], &out->version) ||
      !parse_number(fields[7], &latency) ||
      (fields[3] != "0" && fields[3] != "1")) {
    *why = "response frame has a malformed field: " + std::string(body);
    return false;
  }
  out->scored = fields[2] == "scored";
  out->flagged = fields[3] == "1";
  return true;
}

// Search for a header name (given in lower case) inside a response
// head: the exact spelling the server writes first, then any casing.
std::size_t find_header(std::string_view head, std::string_view name,
                        std::string_view usual) {
  const std::size_t at = head.find(usual);
  if (at != std::string_view::npos) return at;
  for (std::size_t i = 0; i + name.size() <= head.size(); ++i) {
    bool match = true;
    for (std::size_t j = 0; j < name.size(); ++j) {
      char c = head[i + j];
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
      if (c != name[j]) {
        match = false;
        break;
      }
    }
    if (match) return i;
  }
  return std::string_view::npos;
}

void note(PhaseResult& result, const std::string& problem) {
  if (result.first_problem.empty()) result.first_problem = problem;
}

}  // namespace

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

LoadGenerator::LoadGenerator(const Stream& stream, VersionFn version,
                             CheckFn check)
    : stream_(stream), version_(std::move(version)), check_(std::move(check)) {}

LoadGenerator::~LoadGenerator() { close(); }

bool LoadGenerator::connect(std::uint16_t port, std::size_t connections,
                            std::string* error) {
  close();
  conns_.resize(connections);
  for (Conn& conn : conns_) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      close();
      return false;
    }
    conn.fd = fd;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      *error = std::string("connect: ") + std::strerror(errno);
      close();
      return false;
    }
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
  return true;
}

void LoadGenerator::close() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  conns_.clear();
}

void LoadGenerator::enqueue(Conn& conn, std::int64_t scheduled_ns) {
  const std::uint32_t entry = static_cast<std::uint32_t>(cursor_);
  cursor_ = (cursor_ + 1) % stream_.entries.size();
  Pending pending;
  pending.session_id = next_session_id_++;
  pending.entry = entry;
  pending.min_version = version_();
  pending.scheduled_ns = scheduled_ns;

  // Appended straight into the connection's send buffer: the frame's
  // length is known before it is written.
  char sid[24];
  const std::size_t sid_len = static_cast<std::size_t>(
      std::to_chars(sid, sid + sizeof(sid), pending.session_id).ptr - sid);
  const std::string& tail = stream_.entries[entry].frame_tail;
  const std::size_t body_len =
      4 + sid_len + tail.size() + (trace_context_ ? 7 + sid_len : 0);
  char length[24];
  const std::size_t length_len = static_cast<std::size_t>(
      std::to_chars(length, length + sizeof(length), body_len).ptr - length);
  static constexpr std::string_view kHead =
      "POST /score HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Type: application/x-bpwire\r\nContent-Length: ";
  std::string& tx = conn.tx;
  tx.append(kHead);
  tx.append(length, length_len);
  tx.append("\r\n\r\nbp1|");
  tx.append(sid, sid_len);
  tx.append(tail);
  if (trace_context_) {
    tx.append("|t:");
    tx.append(sid, sid_len);
    tx.append(":1:1");
  }
  conn.pending.push_back(pending);
}

bool LoadGenerator::flush(Conn& conn, PhaseResult& result) {
  while (conn.tx_off < conn.tx.size()) {
    const ssize_t n = ::send(conn.fd, conn.tx.data() + conn.tx_off,
                             conn.tx.size() - conn.tx_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      conn.tx_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    fail_connection(conn, result, "send failed");
    return false;
  }
  conn.tx.clear();
  conn.tx_off = 0;
  return true;
}

void LoadGenerator::fail_connection(Conn& conn, PhaseResult& result,
                                    const char* why) {
  if (!conn.pending.empty()) {
    note(result, std::string(why) + " with " +
                     std::to_string(conn.pending.size()) +
                     " requests outstanding");
  }
  result.failed += conn.pending.size();
  conn.pending.clear();
  conn.tx.clear();
  conn.tx_off = 0;
  if (conn.fd >= 0) ::close(conn.fd);
  conn.fd = -1;
}

int LoadGenerator::receive(Conn& conn, PhaseResult& result, bool open_loop) {
  char buffer[65536];
  bool closed = false;
  while (true) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n > 0) {
      conn.rx.append(buffer, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buffer)) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    closed = true;  // EOF or a socket error
    break;
  }
  const std::int64_t received_ns = now_ns();

  int consumed = 0;
  std::size_t offset = 0;
  std::string why;
  while (true) {
    const std::size_t head_end = conn.rx.find("\r\n\r\n", offset);
    if (head_end == std::string::npos) break;
    const std::string_view head(conn.rx.data() + offset, head_end - offset);
    int status = 0;
    const std::size_t length_at = find_header(head, "content-length:", "Content-Length:");
    std::size_t length = 0;
    if (head.size() < 12 || head.substr(0, 9) != "HTTP/1.1 " ||
        !parse_number(head.substr(9, 3), &status) ||
        length_at == std::string_view::npos) {
      fail_connection(conn, result, "malformed HTTP response head");
      return -1;
    }
    std::size_t value = length_at + 15;
    while (value < head.size() && head[value] == ' ') ++value;
    std::size_t value_end = head.find("\r\n", value);
    if (value_end == std::string_view::npos) value_end = head.size();
    if (!parse_number(head.substr(value, value_end - value), &length)) {
      fail_connection(conn, result, "malformed Content-Length");
      return -1;
    }
    const std::size_t body_at = head_end + 4;
    if (conn.rx.size() < body_at + length) break;
    const std::string_view body(conn.rx.data() + body_at, length);
    offset = body_at + length;

    if (conn.pending.empty()) {
      fail_connection(conn, result, "response with nothing outstanding");
      return -1;
    }
    const Pending pending = conn.pending.front();
    conn.pending.pop_front();
    ++consumed;
    if (open_loop) result.latency_ns.push_back(received_ns - pending.scheduled_ns);

    WireVerdict verdict;
    if (status != 200) {
      ++result.failed;
      note(result, "HTTP " + std::to_string(status) + ": " + std::string(body));
      continue;
    }
    if (!parse_verdict(body, &verdict, &why)) {
      ++result.failed;
      note(result, why);
      continue;
    }
    ++result.answered;
    if (verdict.session_id != pending.session_id) {
      ++result.wrong;
      note(result, "session id " + std::to_string(verdict.session_id) +
                       " answered for " + std::to_string(pending.session_id));
      continue;
    }
    if (!check_(pending, verdict, &why)) {
      ++result.wrong;
      note(result, why);
    }
  }
  if (offset > 0) conn.rx.erase(0, offset);
  if (closed) {
    fail_connection(conn, result, "connection closed by the server");
    return -1;
  }
  return consumed;
}

void LoadGenerator::drain(PhaseResult& result, double timeout_s,
                          bool open_loop) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  std::vector<pollfd> fds;
  while (true) {
    fds.clear();
    std::vector<Conn*> owners;
    for (Conn& conn : conns_) {
      if (conn.fd < 0 || conn.pending.empty()) continue;
      short events = POLLIN;
      if (conn.tx_off < conn.tx.size()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
      owners.push_back(&conn);
    }
    if (fds.empty()) return;
    const std::int64_t left = deadline - now_ns();
    if (left <= 0) break;
    const int ready = ::poll(fds.data(), fds.size(),
                             static_cast<int>(std::min<std::int64_t>(
                                 left / 1'000'000 + 1, 100)));
    if (ready < 0 && errno != EINTR) break;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Conn& conn = *owners[i];
      if ((fds[i].revents & POLLOUT) != 0 && !flush(conn, result)) continue;
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        receive(conn, result, open_loop);
      }
    }
  }
  // Whatever is still outstanding is lost; the connection's framing can
  // no longer be trusted, so it is closed with its requests.
  for (Conn& conn : conns_) {
    if (conn.fd >= 0 && !conn.pending.empty()) {
      fail_connection(conn, result, "no response before the drain deadline");
    }
  }
}

PhaseResult LoadGenerator::single() {
  PhaseResult result;
  if (conns_.empty() || conns_[0].fd < 0) {
    ++result.attempted;
    ++result.failed;
    note(result, "no connection");
    return result;
  }
  Conn& conn = conns_[0];
  enqueue(conn, now_ns());
  ++result.attempted;
  if (flush(conn, result)) drain(result, kDrainTimeoutS, true);
  return result;
}

PhaseResult LoadGenerator::open_loop(double rate_per_s, double seconds,
                                     std::uint64_t seed) {
  PhaseResult result;
  std::uint64_t rng = seed;
  const double mean_gap_ns = 1e9 / rate_per_s;
  const auto gap = [&] {
    return static_cast<std::int64_t>(-std::log(uniform_open(rng)) * mean_gap_ns);
  };
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t next_at = start + gap();
  const std::size_t expected = static_cast<std::size_t>(rate_per_s * seconds * 1.2) + 16;
  result.latency_ns.reserve(expected);
  result.lateness_ns.reserve(expected);
  std::vector<pollfd> fds(conns_.size());

  while (next_at < end) {
    std::int64_t now = now_ns();
    while (next_at <= now && next_at < end) {
      Conn& conn = conns_[splitmix64(rng) % conns_.size()];
      ++result.attempted;
      if (conn.fd < 0) {
        ++result.failed;
      } else {
        enqueue(conn, next_at);
        flush(conn, result);
        result.lateness_ns.push_back(now_ns() - next_at);
      }
      next_at += gap();
      now = now_ns();
    }
    if (next_at >= end) break;

    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const Conn& conn = conns_[i];
      short events = POLLIN;
      if (conn.tx_off < conn.tx.size()) events |= POLLOUT;
      fds[i] = {conn.fd, events, 0};  // fd -1 is ignored by poll
    }
    // Spin rather than sleep until the next arrival: under load elsewhere
    // on the host a sleeping thread here wakes up to milliseconds late,
    // and the generator's lateness would be charged to the requests.
    if (::poll(fds.data(), fds.size(), 0) <= 0) continue;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (fds[i].revents == 0 || conns_[i].fd < 0) continue;
      if ((fds[i].revents & POLLOUT) != 0 && !flush(conns_[i], result)) continue;
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        receive(conns_[i], result, true);
      }
    }
  }
  drain(result, kDrainTimeoutS, true);
  return result;
}

PhaseResult LoadGenerator::closed_loop(std::size_t window, double seconds,
                                       std::uint64_t max_requests) {
  PhaseResult result;
  const auto capped = [&] {
    return max_requests != 0 && result.attempted >= max_requests;
  };
  const std::int64_t start = now_ns();
  const double process_cpu0 = process_cpu_s();
  const double generator_cpu0 = thread_cpu_s();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  for (Conn& conn : conns_) {
    for (std::size_t i = 0; i < window && conn.fd >= 0 && !capped(); ++i) {
      enqueue(conn, 0);
      ++result.attempted;
    }
    if (conn.fd >= 0) flush(conn, result);
  }

  std::vector<pollfd> fds(conns_.size());
  bool sending = true;
  bool progressed = true;
  std::int64_t waited_ns = 0;
  while (sending) {
    // Poll only once every connection has run dry: under load a response
    // is nearly always waiting, and a poll before each read would add a
    // system call per read.
    if (!progressed) {
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        const Conn& conn = conns_[i];
        short events = POLLIN;
        if (conn.tx_off < conn.tx.size()) events |= POLLOUT;
        fds[i] = {conn.fd, events, 0};
      }
      const std::int64_t wait_start = now_ns();
      ::poll(fds.data(), fds.size(), 10);
      waited_ns += now_ns() - wait_start;
    }
    progressed = false;
    for (Conn& conn : conns_) {
      if (conn.fd < 0) continue;
      if (conn.tx_off < conn.tx.size() && !flush(conn, result)) continue;
      const int answered = receive(conn, result, false);
      if (answered <= 0) continue;
      progressed = true;
      for (int k = 0; k < answered && !capped(); ++k) {
        enqueue(conn, 0);
        ++result.attempted;
      }
      flush(conn, result);
    }
    bool any_open = false;
    for (const Conn& conn : conns_) any_open |= conn.fd >= 0;
    sending = any_open && now_ns() < end && !capped();
  }
  const std::int64_t stop = now_ns();
  result.window_s = 1e-9 * static_cast<double>(stop - start);
  result.window_answered = result.answered;
  result.window_process_cpu_s = process_cpu_s() - process_cpu0;
  result.window_generator_cpu_s = thread_cpu_s() - generator_cpu0;
  result.window_generator_wait_s = 1e-9 * static_cast<double>(waited_ns);
  drain(result, kDrainTimeoutS, false);
  return result;
}

}  // namespace polybench
