#include "serve_io.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

namespace {

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

// --- Daemon ------------------------------------------------------------------

Daemon::Daemon(const std::string& bin, const std::vector<std::string>& flags,
               const std::string& socket_path, const std::string& log_path)
    : socket_(socket_path) {
  ::unlink(socket_path.c_str());
  std::vector<std::string> args{bin, "--socket=" + socket_path};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_ = ::fork();
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    const int null = ::open("/dev/null", O_RDONLY);
    if (null >= 0) ::dup2(null, 0);
    if (log >= 0) {
      ::dup2(log, 1);
      ::dup2(log, 2);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  if (log >= 0) ::close(log);
}

Daemon::~Daemon() { stop(); }

bool Daemon::wait_ready(double timeout_s) {
  const auto t0 = Clock::now();
  while (secs_since(t0) < timeout_s) {
    if (pid_ < 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    const int fd = connect_unix(socket_);
    if (fd >= 0) {
      ::close(fd);
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

double Daemon::peak_rss_mb() const {
  return pid_ > 0 ? perfbench::peak_rss_mb(std::to_string(pid_)) : 0.0;
}

int Daemon::stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto t0 = Clock::now();
  while (::waitpid(pid_, &status, WNOHANG) != pid_) {
    if (secs_since(t0) > 10.0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  ::unlink(socket_.c_str());
  return status;
}

// --- Conn --------------------------------------------------------------------

Conn::Conn(const std::string& path) : fd_(connect_unix(path)) {}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::flush() {
  while (out_off < out.size()) {
    const ssize_t n = ::send(fd_, out.data() + out_off, out.size() - out_off,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  out.clear();
  out_off = 0;
  return true;
}

bool Conn::fill() {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) {
      in.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof buf) return true;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
}

bool Conn::roundtrip(const std::string& line, std::string& response,
                     double timeout_s, bool spin) {
  std::vector<std::string> responses;
  if (!pipeline({line}, responses, timeout_s, spin)) return false;
  response = std::move(responses[0]);
  return true;
}

bool Conn::pipeline(const std::vector<std::string>& lines,
                    std::vector<std::string>& responses, double timeout_s,
                    bool spin) {
  if (fd_ < 0) return false;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  responses.clear();
  const auto t0 = Clock::now();
  for (;;) {
    if (!flush()) return false;
    std::size_t nl;
    while (responses.size() < lines.size() && (nl = in.find('\n')) != std::string::npos) {
      responses.emplace_back(in, 0, nl);
      in.erase(0, nl + 1);
    }
    if (responses.size() == lines.size()) return true;
    const double left = timeout_s - secs_since(t0);
    if (left <= 0) return false;
    pollfd p{fd_, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
    const int r = ::poll(&p, 1, spin ? 0 : static_cast<int>(std::ceil(left * 1e3)));
    if (r < 0 && errno != EINTR) return false;
    if (r > 0 && (p.revents & (POLLIN | POLLHUP | POLLERR)) && !fill())
      return false;
  }
}

long long response_id(const std::string& response) {
  static const char kKey[] = "{\"id\":";
  if (response.compare(0, sizeof kKey - 1, kKey) != 0) return -1;
  const char* p = response.c_str() + sizeof kKey - 1;
  char* end = nullptr;
  const long long id = std::strtoll(p, &end, 10);
  return end == p ? -1 : id;
}

// --- open loop ----------------------------------------------------------------

PhaseResult run_open_loop(std::vector<Conn*>& conns, const std::vector<Request>& reqs,
                          std::size_t offset, double rate, double duration_s,
                          std::uint64_t first_id, std::uint64_t seed) {
  constexpr double kDrainS = 5.0;  // wait for answers after the window
  PhaseResult res;
  res.rate = rate;
  res.duration_s = duration_s;
  Rng rng(seed * 1000003u);
  for (double due = rng.exp_gap(rate); due < duration_s; due += rng.exp_gap(rate))
    res.due_s.push_back(due);
  const std::size_t n = res.due_s.size();
  res.sent = n;
  res.responses.assign(n, std::string());
  res.ids.resize(n);
  for (std::size_t i = 0; i < n; ++i) res.ids[i] = first_id + i;
  std::vector<double> sent(n, -1.0), recv(n, -1.0);

  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  std::size_t next = 0, answered = 0;
  std::vector<pollfd> pfds(conns.size());
  const double hard_end = duration_s + kDrainS;
  while (answered < n) {
    double now = secs(Clock::now() - t0);
    for (; next < n && res.due_s[next] <= now; ++next) {
      Conn* c = conns[next % conns.size()];
      c->out += request_line(res.ids[next], reqs[(offset + next) % reqs.size()].body);
      c->out += '\n';
      sent[next] = now;
    }
    bool io_ok = true;
    for (Conn* c : conns) io_ok = c->flush() && io_ok;
    if (!io_ok || now > hard_end) break;
    const double wait_s =
        next < n ? std::max(0.0, res.due_s[next] - now) : hard_end - now;
    for (std::size_t k = 0; k < conns.size(); ++k)
      pfds[k] = {conns[k]->fd(),
                 static_cast<short>(POLLIN | (conns[k]->out.empty() ? 0 : POLLOUT)), 0};
    const timespec ts{static_cast<time_t>(wait_s),
                      static_cast<long>((wait_s - std::floor(wait_s)) * 1e9)};
    const int r = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (r < 0 && errno != EINTR) break;
    if (r <= 0) continue;
    now = secs(Clock::now() - t0);
    for (std::size_t k = 0; k < conns.size(); ++k) {
      if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn* c = conns[k];
      if (!c->fill()) io_ok = false;
      std::size_t pos = 0, nl;
      while ((nl = c->in.find('\n', pos)) != std::string::npos) {
        std::string line = c->in.substr(pos, nl - pos);
        pos = nl + 1;
        const long long id = response_id(line);
        if (id < static_cast<long long>(first_id) ||
            id >= static_cast<long long>(first_id + n))
          continue;  // unmatched: the request stays unanswered (failed)
        const std::size_t i = static_cast<std::size_t>(id) - first_id;
        if (recv[i] >= 0) continue;
        recv[i] = now;
        res.responses[i] = std::move(line);
        ++answered;
      }
      c->in.erase(0, pos);
    }
    if (!io_ok) break;
  }

  const double inf = std::numeric_limits<double>::infinity();
  res.latency_ms.resize(n);
  res.lag_ms.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    res.lag_ms[i] = sent[i] >= 0 ? (sent[i] - res.due_s[i]) * 1e3 : inf;
    res.latency_ms[i] = recv[i] >= 0 ? (recv[i] - res.due_s[i]) * 1e3 : inf;
    if (recv[i] < 0 || recv[i] > duration_s) ++res.backlog_end;
  }
  return res;
}

double windowed(const PhaseResult& ph, const std::vector<double>& values,
                double q, double window_s) {
  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(ph.duration_s / window_s));
  std::vector<std::vector<double>> by_window(windows);
  for (std::size_t i = 0; i < values.size(); ++i)
    by_window[std::min(windows - 1, static_cast<std::size_t>(ph.due_s[i] / window_s))]
        .push_back(values[i]);
  std::vector<double> per_window;
  for (auto& w : by_window)
    if (!w.empty()) per_window.push_back(percentile(std::move(w), q));
  return percentile(std::move(per_window), 0.25);
}

}  // namespace perfbench
