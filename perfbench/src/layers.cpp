#include "layers.hpp"

#include <algorithm>
#include <cstdlib>

#include "arch/arch_registry.hpp"
#include "common.hpp"
#include "model/queuing.hpp"
#include "model/tcomp.hpp"
#include "model/tmem.hpp"
#include "trace/soa.hpp"

namespace perfbench {

using namespace gpuhms;

workloads::BenchmarkCase load_kernel(const std::string& name) {
  const std::string synth = "bnb_synth";
  if (name.rfind(synth, 0) == 0) {
    workloads::BenchmarkCase c;
    c.name = name;
    c.kernel = workloads::make_bnb_synth(std::atoi(name.c_str() + synth.size()));
    c.sample = DataPlacement::defaults(c.kernel);
    return c;
  }
  return workloads::get_benchmark(name);
}

ToverlapModel train_overlap(ThreadPool& pool, double* seconds) {
  const auto t0 = Clock::now();
  const std::vector<workloads::BenchmarkCase> training =
      workloads::training_suite();
  std::vector<TrainingCase> cases;
  for (const auto& c : training) {
    cases.push_back({&c.kernel, c.sample});
    for (const auto& t : c.tests) cases.push_back({&c.kernel, t.placement});
  }
  ToverlapModel model =
      train_overlap_model(cases, kepler_arch(), ModelOptions{}, 1e-3, &pool);
  if (seconds != nullptr) *seconds = secs_since(t0);
  return model;
}

std::unique_ptr<Profiled> profile(const std::string& kernel,
                                  const std::string& arch,
                                  const ToverlapModel& overlap) {
  auto p = std::make_unique<Profiled>();
  p->kernel_name = kernel;
  p->arch_name = arch;
  p->bench = load_kernel(kernel);
  const ArchBackend* backend = ArchRegistry::builtin().find(arch);
  if (backend == nullptr) return p;
  p->arch = &backend->arch;
  p->pred = std::make_unique<Predictor>(p->bench.kernel, *p->arch,
                                        ModelOptions{}, overlap);
  auto t0 = Clock::now();
  p->ok = p->pred->try_profile_sample(p->bench.sample).ok();
  p->profile_s = secs_since(t0);
  t0 = Clock::now();
  p->skeleton = p->pred->memoize_trace();
  p->skeleton_s = secs_since(t0);
  return p;
}

namespace {

// Stage 1 of the SoA replay alone: bind the placement, then lower and
// schedule every resident wave, exactly as TraceAnalyzer walks them.
void lower_all_waves(const Profiled& p, const DataPlacement& target) {
  TraceMaterializer mat(p.bench.kernel, target, *p.arch);
  SoaLowering soa;
  soa.bind(mat, *p.skeleton, *p.arch);
  const std::int64_t wave_blocks = static_cast<std::int64_t>(p.arch->num_sms) *
                                   mat.layout().blocks_per_sm(*p.arch);
  std::uint64_t mem = 0;
  for (std::int64_t b0 = 0; b0 < p.bench.kernel.num_blocks; b0 += wave_blocks)
    mem += soa.lower_wave(b0, std::min(p.bench.kernel.num_blocks, b0 + wave_blocks))
               .mem_n;
  keep(static_cast<double>(mem));
}

// The closed-form equations on one candidate's events.
void equations(const Profiled& p, const PlacementEvents& ev) {
  const SimResult& sample = p.pred->sample_result();
  const double tick_to_cycles =
      static_cast<double>(sample.cycles) /
      std::max(1.0, static_cast<double>(ev.trace_ticks));
  TmemInputs tin;
  tin.events = &ev;
  tin.total_warps =
      static_cast<double>(std::max<std::uint64_t>(1, sample.counters.total_warps));
  tin.active_sms = std::max(1, sample.counters.active_sms);
  tin.n_warps_per_sm = std::max(1.0, ev.warps_per_sm);
  tin.issued_per_warp = static_cast<double>(ev.insts_executed) / tin.total_warps;
  tin.tick_to_cycles = tick_to_cycles;
  const TmemResult tm = tmem(tin, *p.arch);
  const QueuingResult q = dram_latency_gg1(build_bank_inputs(ev, tick_to_cycles));
  TcompInputs cin;
  cin.inst.issued_total = static_cast<double>(ev.insts_executed);
  cin.inst.issued_per_warp = tin.issued_per_warp;
  cin.total_warps = tin.total_warps;
  cin.active_sms = tin.active_sms;
  const double tc = tcomp(cin, *p.arch);
  const double ratio = ToverlapModel().overlap_ratio(ev, tin.n_warps_per_sm);
  keep(tm.t_mem + q.dram_lat + tc + ratio);
}

}  // namespace

LayerTimes time_layers(const Profiled& p, const DataPlacement& target,
                       TraceAnalyzer& analyzer, ThreadPool* pool) {
  constexpr int kReps = 3;
  std::vector<double> batch, predict, analyze, lower, eq;
  LayerTimes t;
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = Clock::now();
    if (pool != nullptr) {
      keep(p.pred->predict_batch(std::span(&target, 1), pool)[0].total_cycles);
      batch.push_back(secs_since(t0));
      t0 = Clock::now();
    }
    const Prediction pr = p.pred->predict_with(target, &analyzer, p.skeleton.get());
    predict.push_back(secs_since(t0));
    t.queue_saturated = pr.queue_saturated;

    t0 = Clock::now();
    const PlacementEvents ev = analyzer.analyze(target, p.skeleton.get());
    analyze.push_back(secs_since(t0));

    t0 = Clock::now();
    lower_all_waves(p, target);
    lower.push_back(secs_since(t0));

    t0 = Clock::now();
    equations(p, ev);
    eq.push_back(secs_since(t0));
  }
  t.batch_s = median(batch);
  t.predict_s = median(predict);
  t.analyze_s = median(analyze);
  t.lower_s = median(lower);
  t.equations_s = median(eq);
  return t;
}

}  // namespace perfbench
