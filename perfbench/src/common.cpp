#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include <unistd.h>

#include "common/thread_pool.hpp"
#include "serve/json.hpp"

namespace perfbench {

double Rng::exp_gap(double rate) {
  return -std::log1p(-uniform()) / rate;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

std::size_t Zipf::draw(Rng& rng) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // inf - inf would be NaN: a failed request (+inf) keeps the tail infinite.
  return frac == 0.0 || v[hi] == v[lo] ? v[lo] : v[lo] + frac * (v[hi] - v[lo]);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::fail(const std::string& what) {
  if (checks_failed_ < 8) notes_.push_back("CHECK FAILED: " + what);
  ++checks_failed_;
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::stamp(const std::string& key, const std::string& value) {
  stamp_.push_back({key, value});
}

void Report::print() const {
  for (const auto& n : notes_) std::printf("# %s\n", n.c_str());
  for (const auto& [name, vu] : metrics_)
    std::printf("%-36s %14.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  std::printf("%-36s %14llu\n%-36s %14llu\n", "ops_attempted",
              static_cast<unsigned long long>(attempted_), "ops_failed",
              static_cast<unsigned long long>(failed_));
  using gpuhms::serve::Json;
  Json stamp = Json::object();
  for (const auto& [k, v] : stamp_) stamp.set(k, v);
  std::printf("stamp %s\n", stamp.dump().c_str());
  Json out = Json::object();
  out.set("correct", correct());
  out.set("attempted", attempted_);
  out.set("failed", failed_);
  Json metrics = Json::object();
  for (const auto& [name, vu] : metrics_) {
    Json m = Json::object();
    m.set("value", vu.first);
    m.set("unit", vu.second);
    metrics.set(name, std::move(m));
  }
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
}

void stamp_environment(Report& r, const Config& cfg) {
  r.stamp("workload", cfg.workload);
  r.stamp("seed", std::to_string(cfg.seed));
  r.stamp("seconds", fmt("%g", cfg.seconds));
  r.stamp("trace", cfg.trace ? "1" : "0");
  r.stamp("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  r.stamp("hardware_concurrency",
          std::to_string(std::thread::hardware_concurrency()));
  r.stamp("build_type", PERFBENCH_BUILD_TYPE);
  r.stamp("compiler", PERFBENCH_COMPILER);
  r.stamp("git_rev", cfg.git_rev);
  const char* env = std::getenv("GPUHMS_THREADS");
  r.stamp("GPUHMS_THREADS", env != nullptr ? env : "unset");
  r.stamp("pool_threads_default",
          std::to_string(gpuhms::ThreadPool::default_threads()));
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {
volatile double g_sink = 0.0;
}  // namespace

void keep(double v) { g_sink = v; }

std::string fmt(const char* format, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof buf, format, ap);
  va_end(ap);
  return buf;
}

}  // namespace perfbench
