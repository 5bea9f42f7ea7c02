// The frozen serve transcript (tests/golden/serve_transcript.jsonl).
//
// One scripted conversation (tests/golden/serve_transcript_requests.jsonl:
// a predict, a bad placement, an exhaustive search, an idempotent predict, a
// shutdown and an idempotent retry behind the shutdown) and the response
// lines every transport must answer it with, byte for byte: the socket event
// loop, serve::run_stdio and the gpuhms_serve daemon's stdio mode
// (tests/test_serve_daemon.py). The response file was first written by the
// thread-per-connection socket backend (since deleted), after the writer
// checked the epoll backend gave identical bytes. Regenerate it only for an
// intentional protocol or model change (the triad numbers move with the
// model); the writer checks that the socket and stdio transports agree:
//
//   build/tests/test_serve --write-golden tests/golden/serve_transcript.jsonl
#pragma once

#include <cerrno>
#include <chrono>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"

namespace gpuhms::testutil {

inline std::string golden_file_path(const char* name) {
  return std::string(GPUHMS_GOLDEN_DIR) + "/" + name;
}

inline std::string transcript_golden_path() {
  return golden_file_path("serve_transcript.jsonl");
}

// The request bytes, one request per line (empty when the file is missing).
inline const std::string& transcript_script() {
  static const std::string script = [] {
    std::ifstream in(golden_file_path("serve_transcript_requests.jsonl"));
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  return script;
}

// The golden response lines (empty when the file is missing).
inline std::vector<std::string> load_transcript_golden() {
  std::vector<std::string> lines;
  std::ifstream in(transcript_golden_path());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Reads response lines from fd until EOF or the deadline.
inline std::vector<std::string> read_lines_until_eof(
    int fd, std::chrono::milliseconds timeout) {
  std::vector<std::string> lines;
  serve::LineFramer framer;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  char chunk[1 << 14];
  for (;;) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) break;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    framer.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    for (std::string& line : framer.take_lines(1u << 20))
      lines.push_back(std::move(line));
  }
  return lines;
}

inline bool send_all_bytes(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t w =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

// `requests` answered by a fresh service behind a SocketServer on
// options.socket_path, over one connection read until the server closes it
// (so `requests` must end with a shutdown). Empty on any transport failure.
inline std::vector<std::string> answers_over_socket(
    serve::ServerOptions options, std::string_view requests) {
  serve::PredictionService service{serve::ServeOptions{}};
  serve::SocketServer server(service, options);
  if (!server.listen().ok()) return {};
  int rc = -1;
  std::thread thread([&] { rc = server.run(); });
  std::vector<std::string> lines;
  const StatusOr<int> fd = serve::connect_unix(options.socket_path);
  if (fd.ok()) {
    if (send_all_bytes(*fd, requests))
      lines = read_lines_until_eof(*fd, std::chrono::seconds(60));
    ::close(*fd);
  } else {
    server.stop();
  }
  thread.join();
  if (rc != 0) lines.clear();
  return lines;
}

// The script answered by a fresh service behind a SocketServer.
inline std::vector<std::string> transcript_over_socket(
    serve::ServerOptions options) {
  return answers_over_socket(std::move(options), transcript_script());
}

// `requests` answered by run_stdio over two pipes. The requests are written
// and the pipe closed before serving starts, so they must fit the pipe
// buffer (64 KiB on Linux). Empty when run_stdio returns an error.
inline std::vector<std::string> run_stdio_over_pipes(
    serve::PredictionService& service, std::string_view requests) {
  int in[2], out[2];
  if (::pipe(in) != 0) return {};
  if (::pipe(out) != 0) {
    ::close(in[0]);
    ::close(in[1]);
    return {};
  }
  const bool sent =
      ::write(in[1], requests.data(), requests.size()) ==
      static_cast<ssize_t>(requests.size());
  ::close(in[1]);
  Status st = OkStatus();
  std::thread server([&] {
    st = serve::run_stdio(service, in[0], out[1], /*wake_fd=*/-1);
    ::close(out[1]);
  });
  std::vector<std::string> lines =
      read_lines_until_eof(out[0], std::chrono::seconds(60));
  server.join();
  ::close(in[0]);
  ::close(out[0]);
  if (!sent || !st.ok()) lines.clear();
  return lines;
}

// The script answered by a fresh service through run_stdio.
inline std::vector<std::string> transcript_over_stdio() {
  serve::PredictionService service{serve::ServeOptions{}};
  return run_stdio_over_pipes(service, transcript_script());
}

}  // namespace gpuhms::testutil
