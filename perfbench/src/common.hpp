// Shared plumbing of the repository benchmark: run configuration, seeded
// input generation, order statistics, the result report, and the build/host
// stamp every result carries.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double secs_since(Clock::time_point t0) { return secs(Clock::now() - t0); }

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  // gpuhms_serve binary built next to this one
  std::string run_dir;    // directory for sockets and daemon logs
  std::string git_rev = "unknown";
};

// splitmix64: portable, so a seed gives the same stream on every compiler
// and standard library (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  // Exponential inter-arrival gap for a Poisson stream of the given rate.
  double exp_gap(double rate);

 private:
  std::uint64_t s_;
};

// Zipf(s) over ranks 0..n-1 (rank 0 most popular).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// Percentile (q in [0,1]) of an unsorted sample, interpolated linearly
// between order statistics; 0 when empty.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// What one run prints: every metric with its unit, the op tally, and the
// correctness verdict. Any failed op or failed check makes `correct` false.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // One op attempted; `ok` false counts it failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  // A failed output check; the message is printed (the first few of each run).
  void fail(const std::string& what);
  bool correct() const { return failed_ == 0 && checks_failed_ == 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  // Free-form line kept in the run's human-readable output.
  void note(const std::string& line);
  void stamp(const std::string& key, const std::string& value);

  // Human-readable lines, the stamp line, then the final JSON result line.
  void print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> stamp_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0, failed_ = 0, checks_failed_ = 0;
};

// Build/host stamp shared by every workload.
void stamp_environment(Report& r, const Config& cfg);

// VmHWM (peak resident set) of a process, in MB; "self" for this process.
double peak_rss_mb(const std::string& pid);

// FNV-1a over a string stream, for request-stream digests.
std::uint64_t fnv1a(std::uint64_t h, const std::string& s);

// Consumes a computed value so the optimizer cannot drop the timed work.
void keep(double v);

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
