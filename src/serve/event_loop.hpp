// Single-threaded epoll reactor for the serve layer (DESIGN §15).
//
// The socket server (serve/server.hpp) holds thousands of idle
// connections on one thread: an epoll set wakes the loop only for fds with
// actual work, an eventfd lets other threads (the worker executor, the
// daemon's signal path) post closures onto the loop thread, and a single
// timerfd multiplexes every pending deadline (per-session timers, the drain
// timeout) through one min-heap. Everything except post()/stop()/
// add_timer()/cancel_timer() must run on the loop thread; sessions keep all
// their mutable state loop-thread-confined so the reactor needs no
// per-connection locks.
//
// Observability (GPUHMS_METRICS=1): serve.loop.ready_events (histogram of
// fds ready per wakeup — the batching the reactor gets per syscall),
// serve.loop.iteration_ns (histogram of dispatch time per wakeup, excluding
// the blocked epoll_wait), plus exact Counters for tests.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.hpp"

namespace gpuhms::serve {

class EventLoop {
 public:
  // Invoked on the loop thread with the ready epoll event mask (EPOLLIN |
  // EPOLLOUT | EPOLLHUP | EPOLLERR | ...).
  using FdCallback = std::function<void(std::uint32_t events)>;
  using TimerCallback = std::function<void()>;
  using TimerId = std::uint64_t;

  // Acquires the epoll, eventfd and timerfd descriptors; a resource failure
  // is reported through status() (run() refuses to start on a bad loop).
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // OK when construction acquired every descriptor.
  const Status& status() const { return status_; }

  // --- fd registration (loop thread, or any thread before run()) ------------
  // The callback stays registered until remove_fd; the loop never closes a
  // registered fd — ownership stays with the caller (the session closes its
  // own socket AFTER removing it, so a recycled descriptor can never alias a
  // stale registration).
  Status add_fd(int fd, std::uint32_t events, FdCallback callback);
  Status modify_fd(int fd, std::uint32_t events);
  void remove_fd(int fd);

  // --- timers (any thread) ---------------------------------------------------
  // One-shot: fires once on the loop thread at (or just after) `deadline`.
  // All pending deadlines share the loop's single timerfd, armed with
  // TFD_TIMER_ABSTIME against CLOCK_MONOTONIC == std::chrono::steady_clock.
  TimerId add_timer(std::chrono::steady_clock::time_point deadline,
                    TimerCallback callback);
  // Idempotent; a timer that already fired is silently ignored.
  void cancel_timer(TimerId id);

  // --- cross-thread hand-off -------------------------------------------------
  // Queues `task` to run on the loop thread and wakes a blocked epoll_wait
  // via the eventfd. Safe from any thread, including the loop thread itself
  // (the task still runs from the queue, never reentrantly). This is how
  // executor workers complete responses back onto their session.
  void post(std::function<void()> task);

  // Blocks dispatching events/tasks/timers until stop(). Returns immediately
  // (with the construction error latched in status()) if the loop is bad.
  void run();
  // Thread-safe and async-friendly: posts a stop task; run() returns once
  // the current iteration's dispatch finishes.
  void stop();

  // Exact dispatch counters (independent of GPUHMS_METRICS), for tests.
  struct Counters {
    std::uint64_t wakeups = 0;           // epoll_wait returns
    std::uint64_t events_dispatched = 0; // fd callbacks invoked
    std::uint64_t tasks_run = 0;         // posted closures executed
    std::uint64_t timers_fired = 0;      // timer callbacks invoked
  };
  Counters counters() const;

 private:
  struct PendingTimer {
    std::chrono::steady_clock::time_point deadline;
    TimerId id;
    bool operator>(const PendingTimer& other) const {
      return deadline != other.deadline ? deadline > other.deadline
                                        : id > other.id;
    }
  };

  void wake();
  void drain_wakeup_fd();
  void run_posted_tasks();
  void fire_due_timers();
  // Re-arms the timerfd for the earliest live deadline (or disarms it).
  void rearm_timerfd();

  Status status_;
  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;  // eventfd: post()/stop()/cross-thread timer adds
  int timer_fd_ = -1;   // timerfd: earliest pending deadline

  std::mutex handlers_mu_;  // guards handlers_ (written pre-run/loop thread)
  std::unordered_map<int, std::shared_ptr<FdCallback>> handlers_;

  std::mutex tasks_mu_;
  std::vector<std::function<void()>> tasks_;

  std::mutex timers_mu_;
  std::priority_queue<PendingTimer, std::vector<PendingTimer>,
                      std::greater<PendingTimer>>
      timer_heap_;
  std::unordered_map<TimerId, TimerCallback> timer_callbacks_;
  TimerId next_timer_id_ = 1;

  bool stop_requested_ = false;  // loop thread only
  std::atomic<std::uint64_t> wakeups_{0}, events_dispatched_{0},
      tasks_run_{0}, timers_fired_{0};
};

}  // namespace gpuhms::serve
