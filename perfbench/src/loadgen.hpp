// Single-threaded open-loop load generator over non-blocking sockets.
//
// One thread (the caller's) owns every connection: it writes each request
// when its schedule says so — never waiting for earlier responses — and
// reads responses between sends. Each request is stamped at its scheduled
// send, at the moment the kernel accepted its last byte, and at the moment
// its response was parsed, so latency is timed from the schedule (a stall
// is charged to every request it delays) and the generator's own lateness
// is reported rather than hidden.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/data/dataset.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Outcome of one request. Times are nanoseconds since the phase start.
struct Sample {
  std::uint32_t query = 0;  // row of the query set
  std::uint8_t status = kNoResponse;
  std::uint16_t label = 0;
  std::int64_t scheduled_ns = 0;
  std::int64_t sent_ns = -1;
  std::int64_t received_ns = -1;

  static constexpr std::uint8_t kNoResponse = 0xFF;
  double latency_ms() const { return (received_ns - scheduled_ns) * 1e-6; }
  double lag_ms() const { return (sent_ns - scheduled_ns) * 1e-6; }
};

struct Phase {
  double rate = 0;     // offered q/s (0 = closed window)
  double seconds = 0;  // scheduled sending time
  Clock::time_point start{};
  std::vector<Sample> samples;
};

class LoadGenerator {
 public:
  /// Opens `connections` non-blocking connections to 127.0.0.1:`port` and
  /// pre-encodes one binary predict frame per row of `queries`.
  LoadGenerator(std::uint16_t port, std::size_t connections,
                const std::string& model, const memhd::data::Dataset& queries);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Open loop: request i is due at start + i / rate, for `seconds`.
  /// Queries are taken in order starting after the previous phase's last.
  Phase open_loop(double rate, double seconds);
  /// Closed window: `count` requests with at most `window` in flight
  /// (warm-up only; never used for a reported rate).
  Phase closed_window(std::size_t count, std::size_t window);

  /// The encoded frames, one per query row (for timing the parser).
  const std::vector<std::uint8_t>& frames() const { return frames_; }
  std::size_t frame_bytes() const { return frame_bytes_; }

 private:
  struct Conn;
  Phase run(double rate, double seconds, std::size_t count,
            std::size_t window);

  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::uint8_t> frames_;
  std::size_t frame_bytes_ = 0;
  std::size_t num_queries_ = 0;
  std::size_t next_query_ = 0;
};

}  // namespace perfbench
