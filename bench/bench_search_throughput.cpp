// Search-engine throughput: end-to-end exhaustive-search wall time and
// predictions/sec of the SoA replay engine, single-core and on the thread
// pool with pruning layered in. Run on the largest registered workloads
// (>= 4 arrays, i.e. the widest placement spaces).
//
// The variants whose code paths were deleted with the scalar replay —
// `serial_seed` (one thread, kernel function re-run per candidate, no
// pruning: the pre-engine path), `scalar_replay` (the scalar per-op walk
// over a shared skeleton) and `parallel` (the seed path on the pool) — keep
// their last recorded walls as frozen constants below, so the trajectory and
// the >= 5x single-core matrixmul target (live `soa_replay` against the
// frozen seed wall, at the cap they were recorded at) survive them.
//
// Besides timing, the bench is a correctness harness: every variant must
// return the same winner, and a full ranked sweep re-predicts every
// candidate through a transient per-candidate skeleton and through the
// predictor's shared skeleton and requires byte-identical cycles. A final
// metrics-enabled pass (not timed) records the per-phase breakdown.
//
// Emits BENCH_search.json in the working directory for the perf trajectory,
// stamped with the host's hardware_concurrency, the build type and the git
// revision of the source tree (suffixed "-dirty" when it has uncommitted
// changes).
//
// Usage: ./bench/bench_search_throughput [cap] [repeats]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/obs.hpp"
#include "model/search.hpp"
#include "workloads/workloads.hpp"

using namespace gpuhms;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Variant {
  std::string name;
  SearchOptions options;
};

struct Measurement {
  double wall_ms = 0.0;
  SearchResult result;
};

// Last recorded walls (ms, best of 2, one hardware thread, RelWithDebInfo)
// of the deleted variants, from BENCH_search.json at cap kFrozenCap.
constexpr std::size_t kFrozenCap = 96;
constexpr const char* kFrozenVariants[] = {"serial_seed", "scalar_replay",
                                           "parallel"};
struct FrozenBaseline {
  const char* workload;
  double wall_ms[3];  // kFrozenVariants order
};
constexpr FrozenBaseline kFrozen[] = {
    {"matrixmul", {7678.296, 2488.959, 6824.644}},
    {"spmv", {1087.71, 664.942, 1243.299}},
    {"cfd", {241.792, 120.168, 231.652}},
};

const FrozenBaseline* frozen_baseline(const std::string& workload) {
  for (const FrozenBaseline& f : kFrozen)
    if (workload == f.workload) return &f;
  return nullptr;
}

Measurement run_variant(const Predictor& pred, const Variant& variant,
                        int repeats) {
  Measurement m;
  m.wall_ms = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = now_ms();
    m.result = search_exhaustive(pred, variant.options);
    m.wall_ms = std::min(m.wall_ms, now_ms() - t0);  // best-of-N
  }
  return m;
}

// First line of a shell command's output ("" when it fails or prints none).
std::string command_line(const std::string& cmd) {
  std::FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return "";
  char buf[256];
  std::string out = std::fgets(buf, sizeof buf, p) != nullptr ? buf : "";
  if (::pclose(p) != 0) return "";
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out;
}

std::string git_rev() {
  const std::string git = std::string("git -C '") + GPUHMS_SOURCE_DIR + "' ";
  const std::string rev =
      command_line(git + "rev-parse --short HEAD 2>/dev/null");
  if (rev.empty()) return "unknown";
  const bool dirty =
      !command_line(git + "status --porcelain --untracked-files=no 2>/dev/null")
           .empty();
  return dirty ? rev + "-dirty" : rev;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Re-predicts every candidate of the capped space twice — on a transient
// skeleton recorded for that candidate alone, and on the predictor's shared
// skeleton with one reused analyzer — and requires byte-identical total
// cycles, candidate by candidate. Ranking equality follows from value
// equality.
bool ranked_results_identical(const Predictor& pred,
                              const workloads::BenchmarkCase& c,
                              const PlacementSpace& space) {
  TraceAnalyzer analyzer = pred.make_analyzer();
  for (const DataPlacement& p : space.placements) {
    const TraceSkeleton transient(c.kernel);
    const double fresh = pred.predict_with(p, nullptr, &transient).total_cycles;
    const double shared = pred.predict_with(p, &analyzer, nullptr).total_cycles;
    if (!same_bits(fresh, shared)) {
      std::fprintf(stderr,
                   "%s: ranked results diverge on %s "
                   "(transient=%.17g shared=%.17g)\n",
                   c.name.c_str(), p.to_string().c_str(), fresh, shared);
      return false;
    }
  }
  return true;
}

void emit_histogram(std::FILE* json, const char* key,
                    const obs::MetricsSnapshot& snap, bool* first) {
  const auto* h = snap.find_histogram(key);
  if (!h) return;
  std::fprintf(json, "%s\n        \"%s\": {\"count\": %llu, \"sum\": %llu, "
               "\"mean\": %.1f, \"max\": %llu, \"buckets\": [",
               *first ? "" : ",", key,
               static_cast<unsigned long long>(h->count),
               static_cast<unsigned long long>(h->sum), h->mean,
               static_cast<unsigned long long>(h->max));
  *first = false;
  for (std::size_t b = 0; b < h->buckets.size(); ++b)
    std::fprintf(json, "%s[%llu, %llu]", b ? ", " : "",
                 static_cast<unsigned long long>(h->buckets[b].first),
                 static_cast<unsigned long long>(h->buckets[b].second));
  std::fprintf(json, "]}");
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t cap =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 96;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 2;
  const GpuArch& arch = kepler_arch();
  const int threads = ThreadPool::default_threads();
  // The frozen baselines were recorded at kFrozenCap; the tiny `ctest -L
  // perf` smoke run and other caps report no speedup and assert nothing.
  const bool at_frozen_cap = cap == kFrozenCap;

  // Largest workloads: every registered benchmark with >= 4 arrays.
  std::vector<workloads::BenchmarkCase> cases = workloads::evaluation_suite();
  for (auto& c : workloads::training_suite()) cases.push_back(std::move(c));
  std::vector<workloads::BenchmarkCase> picked;
  for (auto& c : cases)
    if (c.kernel.arrays.size() >= 4) picked.push_back(std::move(c));
  std::sort(picked.begin(), picked.end(), [](const auto& a, const auto& b) {
    return a.kernel.arrays.size() > b.kernel.arrays.size();
  });
  if (picked.size() > 4) picked.resize(4);

  auto opts = [&](int nthreads, bool prune) {
    SearchOptions o;
    o.cap = cap;
    o.num_threads = nthreads;
    o.prune = prune;
    return o;
  };
  const std::vector<Variant> variants = {
      {"soa_replay", opts(1, false)},
      {"parallel_memoized", opts(threads, false)},
      {"parallel_memoized_pruned", opts(threads, true)},
  };

  std::FILE* json = std::fopen("BENCH_search.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_search.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"hardware_concurrency\": %u,\n"
               "  \"build_type\": \"%s\",\n  \"git_rev\": \"%s\",\n"
               "  \"threads\": %d,\n  \"cap\": %zu,\n"
               "  \"frozen_baselines\": {\"cap\": %zu, \"hardware_concurrency\": 1,"
               " \"note\": \"last recorded walls of deleted code paths\"},\n"
               "  \"workloads\": [\n",
               std::thread::hardware_concurrency(), GPUHMS_BUILD_TYPE,
               git_rev().c_str(), threads, cap, kFrozenCap);

  std::printf("search throughput (cap=%zu, %d threads, best of %d)\n\n", cap,
              threads, repeats);
  bool first_workload = true;
  bool speedup_ok = true;
  for (const auto& c : picked) {
    Predictor pred(c.kernel, arch);
    pred.profile_sample(c.sample);
    const PlacementSpace space =
        enumerate_placement_space(c.kernel, arch, cap);

    std::printf("%s (%zu arrays, %zu legal placements%s)\n", c.name.c_str(),
                c.kernel.arrays.size(), space.placements.size(),
                space.truncated ? ", capped" : "");
    std::printf("  %-26s %10s %12s %10s %8s\n", "variant", "wall ms",
                "pred/sec", "evaluated", "speedup");

    if (!first_workload) std::fprintf(json, ",\n");
    first_workload = false;
    std::fprintf(json,
                 "    {\n      \"name\": \"%s\",\n      \"arrays\": %zu,\n"
                 "      \"variants\": {\n",
                 c.name.c_str(), c.kernel.arrays.size());

    const FrozenBaseline* frozen = frozen_baseline(c.name);
    const double serial_ms =
        at_frozen_cap && frozen != nullptr ? frozen->wall_ms[0] : 0.0;
    if (serial_ms > 0.0) {
      std::fprintf(json, "        \"frozen_wall_ms\": {");
      for (std::size_t f = 0; f < std::size(kFrozenVariants); ++f) {
        std::printf("  %-26s %10.1f %12s %10s %7.2fx  (frozen)\n",
                    kFrozenVariants[f], frozen->wall_ms[f], "-", "-",
                    serial_ms / frozen->wall_ms[f]);
        std::fprintf(json, "%s\"%s\": %.3f", f ? ", " : "",
                     kFrozenVariants[f], frozen->wall_ms[f]);
      }
      std::fprintf(json, "},\n");
    }
    double soa_ms = 0.0;
    SearchResult reference;
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const Measurement m = run_variant(pred, variants[v], repeats);
      if (v == 0) {
        soa_ms = m.wall_ms;
        reference = m.result;
      } else if (!(m.result.placement == reference.placement) ||
                 m.result.predicted_cycles != reference.predicted_cycles) {
        // Threading and pruning must never change the winner.
        std::fprintf(stderr, "%s: %s diverged from %s\n", c.name.c_str(),
                     variants[v].name.c_str(), variants[0].name.c_str());
        std::fclose(json);
        return 1;
      }
      const double preds_per_sec =
          static_cast<double>(m.result.evaluated) / (m.wall_ms / 1000.0);
      const double speedup = serial_ms > 0.0 ? serial_ms / m.wall_ms : 0.0;
      std::printf("  %-26s %10.1f %12.1f %10zu %7.2fx\n",
                  variants[v].name.c_str(), m.wall_ms, preds_per_sec,
                  m.result.evaluated, speedup);
      std::fprintf(json,
                   "        \"%s\": {\"wall_ms\": %.3f, "
                   "\"predictions_per_sec\": %.2f, \"evaluated\": %zu, "
                   "\"pruned\": %zu, \"prune_checks\": %zu, "
                   "\"prune_bound_ratio\": %.4f, "
                   "\"prune_gate_reason\": \"%s\", "
                   "\"speedup_vs_serial\": %.3f}%s\n",
                   variants[v].name.c_str(), m.wall_ms, preds_per_sec,
                   m.result.evaluated, m.result.pruned, m.result.prune_checks,
                   m.result.prune_bound_ratio, m.result.prune_gate_reason,
                   speedup, v + 1 < variants.size() ? "," : "");
    }
    std::fprintf(json, "      },\n");

    if (!ranked_results_identical(pred, c, space)) {
      std::fclose(json);
      return 1;
    }
    std::fprintf(json, "      \"ranked_results_identical\": true,\n");

    if (c.name == "matrixmul" && serial_ms > 0.0 && serial_ms / soa_ms < 5.0) {
      std::fprintf(stderr,
                   "matrixmul: soa_replay %.1fms is only %.2fx over the "
                   "frozen serial_seed %.1fms (target >= 5x)\n",
                   soa_ms, serial_ms / soa_ms, serial_ms);
      speedup_ok = false;
    }

    // Per-phase breakdown of one single-core SoA search, recorded outside
    // the timed runs so metric overhead never pollutes the numbers above.
    obs::set_enabled(true);
    obs::reset_all_metrics();
    run_variant(pred, variants[0], 1);
    obs::set_enabled(false);
    const obs::MetricsSnapshot snap = obs::snapshot();
    std::fprintf(json, "      \"soa_phase_ns\": {");
    bool first_hist = true;
    emit_histogram(json, "trace.analyze_ns", snap, &first_hist);
    emit_histogram(json, "trace.soa_lower_ns", snap, &first_hist);
    emit_histogram(json, "trace.soa_replay_ns", snap, &first_hist);
    std::fprintf(json, "\n      }\n    }");
    std::printf("\n");
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  if (!speedup_ok) return 1;
  std::printf("wrote BENCH_search.json\n");
  return 0;
}
