// Client side of the gpuhms_serve socket protocol as the benchmark drives
// it: the daemon process, blocking connections for set-up and probes, and
// the open-loop load generator.
#pragma once

#include <string>
#include <vector>

#include <sys/types.h>

#include "common.hpp"

namespace perfbench {

// A gpuhms_serve --socket daemon. The destructor stops it and waits.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::vector<std::string>& flags,
         const std::string& socket_path, const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Blocks until the socket accepts a connection; false on timeout or exit.
  bool wait_ready(double timeout_s);
  double peak_rss_mb() const;
  // SIGTERM (graceful drain), then SIGKILL after a grace period; returns
  // the exit status as waitpid reports it, or -1 when already stopped.
  int stop();
  const std::string& socket_path() const { return socket_; }

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

// One Unix-socket connection with newline framing.
class Conn {
 public:
  explicit Conn(const std::string& path);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  // Blocking request/response (one in flight). False on I/O error/timeout.
  // With `spin` the wait polls the socket without sleeping, so the answer
  // is not delayed by the wake-up of an idle virtual CPU.
  bool roundtrip(const std::string& line, std::string& response,
                 double timeout_s = 60.0, bool spin = false);
  // Sends every line at once and reads as many responses, in order.
  bool pipeline(const std::vector<std::string>& lines,
                std::vector<std::string>& responses, double timeout_s = 60.0,
                bool spin = false);
  // Non-blocking pieces for the open loop.
  std::string out;       // bytes queued for writing
  std::size_t out_off = 0;
  std::string in;        // bytes read but not yet framed
  bool flush();          // writes what the socket accepts; false on error
  // Reads what is available, appends to `in`; false on EOF or error.
  bool fill();

 private:
  int fd_ = -1;
};

// One request of a generated stream: the JSON body without the id member.
struct Request {
  std::string body;
  bool deterministic = true;  // false for health/metrics (live counters)
  std::size_t predictions = 0;  // placements it asks to be predicted
};

inline std::string request_line(std::uint64_t id, const std::string& body) {
  return "{\"id\":" + std::to_string(id) + "," + body + "}";
}

// Outcome of one open-loop phase: every request is timed from its due time.
struct PhaseResult {
  double rate = 0.0;        // scheduled requests per second
  double duration_s = 0.0;  // scheduling window
  std::size_t sent = 0;
  std::vector<double> due_s;       // per request, from the phase start
  std::vector<double> latency_ms;  // per request; +inf when it failed
  std::vector<double> lag_ms;      // per request: send time minus due time
  std::size_t backlog_end = 0;     // due in the window, unanswered at its end
  std::vector<std::string> responses;  // by request index ("" when missing)
  std::vector<std::uint64_t> ids;      // request id by index
};

// Sends `reqs` (cycled as needed) as one Poisson stream at `rate` for
// `duration_s`, round-robin over `conns`, from the calling thread, then
// waits a few seconds for the outstanding responses. Request ids start at
// `first_id`.
PhaseResult run_open_loop(std::vector<Conn*>& conns, const std::vector<Request>& reqs,
                          std::size_t offset, double rate, double duration_s,
                          std::uint64_t first_id, std::uint64_t seed);

// Quantile q of `values` (indexed like the phase's requests) within each
// window of `window_s` seconds of due time, reported as the lower quartile
// over windows. Scheduler stalls of a shared host hit some windows and not
// others; the quietest quarter of windows still shows the program's own
// latency, so the figure stays steady while the stalls come and go.
double windowed(const PhaseResult& ph, const std::vector<double>& values,
                double q, double window_s);

// The id member of a response line, or -1 when it has none.
long long response_id(const std::string& response);

}  // namespace perfbench
