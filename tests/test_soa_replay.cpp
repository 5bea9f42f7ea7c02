// Lock-in for the data-oriented SoA replay engine (src/trace/soa.*), the
// trace analyzer's only engine: bit-for-bit against the frozen outputs of the
// scalar per-op replay it replaced (tests/golden/analyzer_events.json) on the
// seed workloads and on randomized synthetic kernels, whose order-free
// counters are also checked against the simulator.
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer_golden.hpp"
#include "arch/gpu_arch.hpp"
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
  ASSERT_EQ(golden.size(), cases.cases.size() + cases.synth.size());
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
