#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <stdexcept>

#include "src/serve/protocol.hpp"

namespace perfbench {

namespace {
std::int64_t ns_since(Clock::time_point start, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - start)
      .count();
}
}  // namespace

struct LoadGenerator::Conn {
  int fd = -1;
  bool dead = false;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::uint64_t queued_bytes = 0;   // ever appended to `out`
  std::uint64_t written_bytes = 0;  // ever accepted by the kernel
  /// (sample, stream offset of its last byte) not yet fully written.
  std::deque<std::pair<std::uint32_t, std::uint64_t>> unsent;
  /// Samples awaiting a response, in send order (responses are in order).
  std::deque<std::uint32_t> awaiting;
  std::vector<std::uint8_t> in;

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

LoadGenerator::LoadGenerator(std::uint16_t port, std::size_t connections,
                             const std::string& model,
                             const memhd::data::Dataset& queries)
    : num_queries_(queries.size()) {
  if (num_queries_ == 0) throw std::invalid_argument("loadgen: no queries");
  memhd::serve::Request request;
  request.model = model;
  for (std::size_t i = 0; i < num_queries_; ++i) {
    const auto row = queries.sample(i);
    request.features.assign(row.begin(), row.end());
    memhd::serve::append_request(frames_, request);
    if (i == 0) frame_bytes_ = frames_.size();
  }
  for (std::size_t c = 0; c < connections; ++c) {
    auto conn = std::make_unique<Conn>();
    conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn->fd < 0) throw std::runtime_error("loadgen: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn->fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0)
      throw std::runtime_error(std::string("loadgen: connect: ") +
                               std::strerror(errno));
    const int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::move(conn));
  }
}

LoadGenerator::~LoadGenerator() = default;

Phase LoadGenerator::open_loop(double rate, double seconds) {
  return run(rate, seconds, 0, 0);
}

Phase LoadGenerator::closed_window(std::size_t count, std::size_t window) {
  return run(0, 0, count, window);
}

Phase LoadGenerator::run(double rate, double seconds, std::size_t count,
                         std::size_t window) {
  Phase phase;
  phase.rate = rate;
  phase.seconds = seconds;
  const bool open = rate > 0;
  const std::size_t n =
      open ? static_cast<std::size_t>(std::llround(rate * seconds)) : count;
  phase.samples.resize(n);
  const double interval_ns = open ? 1e9 / rate : 0.0;
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  phase.start = start;

  std::size_t next = 0;      // next sample to queue
  std::size_t in_flight = 0;  // queued, not yet answered or abandoned
  bool sending_done = false;
  Clock::time_point drain_deadline{};
  std::vector<pollfd> fds(conns_.size());
  std::uint8_t chunk[65536];

  for (;;) {
    auto now = Clock::now();
    const std::int64_t t = ns_since(start, now);
    // 1. Queue every request that is due.
    while (next < n) {
      std::int64_t due = t;
      if (open) {
        due = static_cast<std::int64_t>(std::llround(next * interval_ns));
        if (due > t) break;
      } else if (in_flight >= window) {
        break;
      }
      Sample& s = phase.samples[next];
      s.query = static_cast<std::uint32_t>(next_query_++ % num_queries_);
      s.scheduled_ns = due;
      Conn& conn = *conns_[next % conns_.size()];
      if (!conn.dead) {
        const std::uint8_t* frame = frames_.data() + s.query * frame_bytes_;
        conn.out.insert(conn.out.end(), frame, frame + frame_bytes_);
        conn.queued_bytes += frame_bytes_;
        conn.unsent.emplace_back(static_cast<std::uint32_t>(next),
                                 conn.queued_bytes);
        ++in_flight;
      }
      ++next;
    }
    // 2. Write what the sockets take; stamp fully written requests.
    bool any_unsent = false;
    for (auto& conn_ptr : conns_) {
      Conn& conn = *conn_ptr;
      while (!conn.dead && conn.out_off < conn.out.size()) {
        const ssize_t w = ::send(conn.fd, conn.out.data() + conn.out_off,
                                 conn.out.size() - conn.out_off, MSG_NOSIGNAL);
        if (w > 0) {
          conn.out_off += static_cast<std::size_t>(w);
          conn.written_bytes += static_cast<std::uint64_t>(w);
          continue;
        }
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (w < 0 && errno == EINTR) continue;
        conn.dead = true;
      }
      const std::int64_t sent_at = ns_since(start, Clock::now());
      while (!conn.unsent.empty() &&
             conn.unsent.front().second <= conn.written_bytes) {
        phase.samples[conn.unsent.front().first].sent_ns = sent_at;
        conn.awaiting.push_back(conn.unsent.front().first);
        conn.unsent.pop_front();
      }
      if (conn.out_off == conn.out.size()) {
        conn.out.clear();
        conn.out_off = 0;
      }
      any_unsent = any_unsent || (!conn.dead && !conn.unsent.empty());
    }
    if (!sending_done && next == n && !any_unsent) {
      sending_done = true;
      drain_deadline = Clock::now() + std::chrono::seconds(5);
    }
    // 3. Read and match responses.
    for (auto& conn_ptr : conns_) {
      Conn& conn = *conn_ptr;
      while (!conn.dead) {
        const ssize_t r = ::recv(conn.fd, chunk, sizeof chunk, 0);
        if (r > 0) {
          conn.in.insert(conn.in.end(), chunk, chunk + r);
          if (static_cast<std::size_t>(r) < sizeof chunk) break;
          continue;
        }
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (r < 0 && errno == EINTR) continue;
        conn.dead = true;
      }
      const std::int64_t received_at = ns_since(start, Clock::now());
      std::size_t off = 0;
      memhd::serve::Response response;
      std::size_t consumed = 0;
      while (!conn.awaiting.empty() &&
             memhd::serve::parse_response(conn.in.data() + off,
                                          conn.in.size() - off, response,
                                          consumed) ==
                 memhd::serve::ParseResult::kFrame) {
        Sample& s = phase.samples[conn.awaiting.front()];
        conn.awaiting.pop_front();
        s.status = static_cast<std::uint8_t>(response.status);
        s.label = response.label;
        s.received_ns = received_at;
        off += consumed;
        --in_flight;
      }
      conn.in.erase(conn.in.begin(),
                    conn.in.begin() + static_cast<std::ptrdiff_t>(off));
      if (conn.dead) {  // abandon whatever this connection still owes
        in_flight -= conn.awaiting.size() + conn.unsent.size();
        conn.awaiting.clear();
        conn.unsent.clear();
      }
    }
    if (sending_done && in_flight == 0) break;
    now = Clock::now();
    if (sending_done && now >= drain_deadline) break;
    // 4. Sleep until the next request is due or a socket is ready; spin
    //    through gaps too short for the scheduler.
    std::int64_t wait_ns = 1'000'000;
    if (next < n && open)
      wait_ns = static_cast<std::int64_t>(std::llround(next * interval_ns)) -
                ns_since(start, now);
    else if (next < n && in_flight < window)
      wait_ns = 0;
    if (wait_ns > 30'000) {
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        fds[c].fd = conns_[c]->dead ? -1 : conns_[c]->fd;
        fds[c].events = static_cast<short>(
            POLLIN | (conns_[c]->unsent.empty() ? 0 : POLLOUT));
        fds[c].revents = 0;
      }
      const std::int64_t sleep_ns = std::min<std::int64_t>(
          wait_ns - 20'000, 1'000'000);
      timespec ts{0, static_cast<long>(sleep_ns)};
      ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    }
  }
  return phase;
}

}  // namespace perfbench
