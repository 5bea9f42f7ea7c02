// Lock-in for the data-oriented SoA replay engine (src/trace/soa.*), the
// trace analyzer's only engine: bit-for-bit against the frozen outputs of the
// scalar per-op replay it replaced (tests/golden/analyzer_events.json) on the
// seed workloads and on randomized synthetic kernels, whose order-free
// counters are also checked against the simulator; plus the skeleton's
// memoized staging copies under concurrent first use and a failed build.
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer_golden.hpp"
#include "arch/gpu_arch.hpp"
#include "common/fault_injection.hpp"
#include "model/predictor.hpp"
#include "model/trace_analysis.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Every seed workload x registered arch x placement against the frozen
// outputs of the scalar replay (tests/golden/analyzer_events.json).
TEST(SoaReplayEveryWorkload, MatchesGoldenBitForBit) {
  const auto golden = testutil::load_analyzer_golden(
      std::string(GPUHMS_GOLDEN_DIR) + "/analyzer_events.json");
  const testutil::GoldenCases cases;
  ASSERT_EQ(golden.size(), cases.cases.size() + cases.synth.size() +
                               cases.staged.size());
  for (const testutil::GoldenCases::Case& c : cases.cases) {
    const auto it = golden.find(c.id);
    ASSERT_NE(it, golden.end()) << c.id;
    EXPECT_EQ(testutil::golden_line(c.id, analyze_trace(*c.kernel, c.placement,
                                                        *c.arch, {},
                                                        c.skeleton)),
              it->second);
  }
}

// The randomized synthetic kernels (testutil::make_synthetic_kernel) bit
// for bit against their frozen outputs, and their order-free counters
// against the simulator, the independent ground truth.
TEST(SoaReplay, RandomizedSyntheticTracesMatchGoldenAndSimulator) {
  const auto golden = testutil::load_analyzer_golden(
      std::string(GPUHMS_GOLDEN_DIR) + "/analyzer_events.json");
  const testutil::GoldenCases cases;
  ASSERT_EQ(cases.synth.size(), 27u);  // 3 seeds x (default + 8 candidates)
  for (const testutil::GoldenCases::Case& c : cases.synth) {
    SCOPED_TRACE(c.id);
    const auto it = golden.find(c.id);
    ASSERT_NE(it, golden.end());
    const PlacementEvents ev =
        analyze_trace(*c.kernel, c.placement, *c.arch, {}, c.skeleton);
    EXPECT_EQ(testutil::golden_line(c.id, ev), it->second);
    testutil::expect_counters_match(
        ev, simulate(*c.kernel, c.placement, *c.arch).counters);
  }
}

// Placements staging two or three arrays at once, on every registered
// backend, against their frozen outputs and the simulator's counters.
TEST(SoaReplayEveryWorkload, MultiArrayStagingMatchesGoldenAndSimulator) {
  const auto golden = testutil::load_analyzer_golden(
      std::string(GPUHMS_GOLDEN_DIR) + "/analyzer_events.json");
  const testutil::GoldenCases cases;
  std::map<std::string, int> per_arch;
  for (const testutil::GoldenCases::Case& c : cases.staged) {
    SCOPED_TRACE(c.id);
    ++per_arch[c.arch_name];
    const auto it = golden.find(c.id);
    ASSERT_NE(it, golden.end());
    const PlacementEvents ev =
        analyze_trace(*c.kernel, c.placement, *c.arch, {}, c.skeleton);
    EXPECT_EQ(testutil::golden_line(c.id, ev), it->second);
    testutil::expect_counters_match(
        ev, simulate(*c.kernel, c.placement, *c.arch).counters);
  }
  for (const std::string& name : ArchRegistry::builtin().names())
    EXPECT_GE(per_arch[name], 4) << name;
}

// Staged placements of a small many-array kernel on one skeleton.
struct StagingCase {
  const GpuArch* arch;
  DataPlacement placement;
};

std::vector<StagingCase> staging_cases(const KernelInfo& k,
                                       const std::vector<const GpuArch*>& archs) {
  std::vector<StagingCase> out;
  for (const GpuArch* arch : archs) {
    for (const char* code : {"S,S,G,G", "S,T,S,C", "G,S,S,S", "S,G,2T,S"}) {
      const std::optional<DataPlacement> p = DataPlacement::from_string(k, code);
      EXPECT_TRUE(p.has_value()) << code;
      if (p) out.push_back({arch, *p});
    }
  }
  return out;
}

// The staging copies of one fresh skeleton, built on first use by four
// threads at once for two archs whose cache_line and shared_banks differ,
// give every analysis what a serial analysis on its own fresh skeleton
// gives: the table neither races nor aliases the two geometries.
TEST(SoaReplay, StagingCopiesBuiltConcurrentlyMatchSerialPerGeometry) {
  const KernelInfo k = workloads::make_bnb_synth(4, 2);
  GpuArch narrow = kepler_arch();
  narrow.cache_line = 64;
  narrow.shared_banks = 16;
  ASSERT_TRUE(validate(narrow).ok());
  const std::vector<StagingCase> jobs =
      staging_cases(k, {&kepler_arch(), &narrow});
  ASSERT_EQ(jobs.size(), 8u);

  std::vector<std::string> serial;
  for (const StagingCase& j : jobs) {
    const TraceSkeleton fresh(k);
    serial.push_back(testutil::golden_line(
        "", analyze_trace(k, j.placement, *j.arch, {}, &fresh)));
  }
  EXPECT_NE(serial[0], serial[4]);  // the geometries really differ

  const TraceSkeleton shared(k);
  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> got(
      kThreads, std::vector<std::string>(jobs.size()));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Each thread walks the jobs from a different start, so first uses
      // of every (array, geometry) copy collide across threads.
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::size_t j = (i + static_cast<std::size_t>(t) * 3) %
                              jobs.size();
        got[static_cast<std::size_t>(t)][j] = testutil::golden_line(
            "", analyze_trace(k, jobs[j].placement, *jobs[j].arch, {},
                              &shared));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(got[static_cast<std::size_t>(t)], serial) << "thread " << t;
}

// A staging-copy build that fails part-way (an injected trace.lower) leaves
// no partial copy behind: the next analysis on the same skeleton rebuilds a
// complete one and matches a fresh skeleton's analysis.
TEST(SoaReplay, FailedStagingCopyBuildIsRebuiltComplete) {
  const KernelInfo k = workloads::make_bnb_synth(4, 2);
  const DataPlacement p = *DataPlacement::from_string(k, "S,S,G,G");
  const TraceSkeleton fresh(k);
  const std::string expected = testutil::golden_line(
      "", analyze_trace(k, p, kepler_arch(), {}, &fresh));

  const TraceSkeleton skeleton(k);
  // The first copy's build hits the site once per warp before any wave is
  // lowered; fire half-way through it.
  const std::uint64_t nth = static_cast<std::uint64_t>(k.total_warps()) / 2;
  fault::arm("trace.lower", nth);
  EXPECT_THROW(analyze_trace(k, p, kepler_arch(), {}, &skeleton),
               InjectedFault);
  EXPECT_EQ(fault::hits("trace.lower"), nth);
  fault::disarm_all();
  EXPECT_EQ(testutil::golden_line(
                "", analyze_trace(k, p, kepler_arch(), {}, &skeleton)),
            expected);
}

// Predictions must not depend on which skeleton instance or analyzer scratch
// served them: the predictor's own skeleton with a fresh analyzer, and a
// transient skeleton with one analyzer reused across every placement.
TEST(SoaReplay, PredictionsIndependentOfSkeletonAndScratch) {
  const workloads::BenchmarkCase c = workloads::get_benchmark("matrixmul");
  Predictor pred(c.kernel, kepler_arch());
  pred.profile_sample(c.sample);
  const TraceSkeleton transient(c.kernel);
  TraceAnalyzer reused = pred.make_analyzer();
  for (const workloads::PlacementTest& t : c.tests) {
    SCOPED_TRACE(t.id);
    const Prediction a = pred.predict(t.placement);
    const Prediction b = pred.predict_with(t.placement, &reused, &transient);
    EXPECT_TRUE(same_bits(a.total_cycles, b.total_cycles));
    EXPECT_TRUE(same_bits(a.t_comp, b.t_comp));
    EXPECT_TRUE(same_bits(a.t_mem, b.t_mem));
    EXPECT_TRUE(same_bits(a.t_overlap, b.t_overlap));
    EXPECT_TRUE(same_bits(a.amat, b.amat));
  }
}

}  // namespace
}  // namespace gpuhms
