// In-process timing of the model-side layers, from outside the program:
// each helper calls one module's public functions on the workload's own
// inputs and times the call with the benchmark's clock.
#pragma once

#include <memory>
#include <string>

#include "common/thread_pool.hpp"
#include "model/predictor.hpp"
#include "model/trace_analysis.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

// A kernel by registry name; "bnb_synthN" names make_bnb_synth(N).
gpuhms::workloads::BenchmarkCase load_kernel(const std::string& name);

// The Eq. 11 T_overlap model exactly as `gpuhms_serve --train-overlap`
// fits it: the Table IV training suite on kepler, over `pool`.
gpuhms::ToverlapModel train_overlap(gpuhms::ThreadPool& pool, double* seconds);

// A profiled predictor with its memoized skeleton. Heap-held and never
// moved: the predictor points into `bench` and the registry's arch.
struct Profiled {
  std::string kernel_name, arch_name;
  gpuhms::workloads::BenchmarkCase bench;
  const gpuhms::GpuArch* arch = nullptr;
  std::unique_ptr<gpuhms::Predictor> pred;
  std::shared_ptr<const gpuhms::TraceSkeleton> skeleton;
  double profile_s = 0.0;   // Predictor::try_profile_sample
  double skeleton_s = 0.0;  // Predictor::memoize_trace
  bool ok = false;
};

std::unique_ptr<Profiled> profile(const std::string& kernel,
                                  const std::string& arch,
                                  const gpuhms::ToverlapModel& overlap);

// One candidate's model-side costs, each timed around a public call and
// reported as the median of three interleaved repetitions.
struct LayerTimes {
  double batch_s = 0.0;      // Predictor::predict_batch of this one target
  double predict_s = 0.0;    // Predictor::predict_with (warm analyzer)
  double analyze_s = 0.0;    // TraceAnalyzer::analyze
  double lower_s = 0.0;      // SoaLowering::bind + lower_wave over all waves
  double equations_s = 0.0;  // tcomp, tmem, dram_latency_gg1, overlap_ratio
  bool queue_saturated = false;
};

// `pool` null skips the predict_batch timing.
LayerTimes time_layers(const Profiled& p, const gpuhms::DataPlacement& target,
                       gpuhms::TraceAnalyzer& analyzer, gpuhms::ThreadPool* pool);

}  // namespace perfbench
