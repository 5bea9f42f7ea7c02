// search: a closed loop with one caller running a fixed search script
// through try_search, as placement_advisor would.
#include <algorithm>
#include <cmath>
#include <memory>

#include "arch/arch_registry.hpp"
#include "common/obs.hpp"
#include "layers.hpp"
#include "model/search.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace gpuhms;

namespace {

constexpr int kSetupRepeats = 3;
constexpr int kPoolThreads = 4;
constexpr int kSpotChecks = 8;  // seeded placements per certified winner
constexpr std::size_t kMinTimedCycles = 2;

struct Step {
  std::string kernel;
  SearchAlgo algo;
  std::size_t cap;
};

// The script: capped exhaustive searches on the widest Table IV spaces,
// B&B to a certificate on the synthetic stressor, and B&B over spmv's full
// space, which the capped exhaustive pass only samples.
const std::vector<Step>& script_steps() {
  static const std::vector<Step> steps = {
      {"matrixmul", SearchAlgo::kExhaustive, 96},
      {"spmv", SearchAlgo::kExhaustive, 96},
      {"cfd", SearchAlgo::kExhaustive, 96},
      {"bnb_synth6", SearchAlgo::kBnb, 0},
      {"bnb_synth7", SearchAlgo::kBnb, 0},
      {"bnb_synth8", SearchAlgo::kBnb, 0},
      {"spmv", SearchAlgo::kBnb, 0},
  };
  return steps;
}

std::string step_name(const Step& s) {
  return s.kernel + "/" + std::string(to_string(s.algo));
}

// The seed fixes the step order within a pass and, for each step, the
// order of the arch backends: step s runs on backend arch_order[s][p] in
// pass p. A cycle is one pass per backend, so every cycle runs every
// (step, arch) pair and the timed work is the same for every seed.
struct Plan {
  std::vector<std::size_t> order;
  std::vector<std::vector<std::size_t>> arch_order;  // by step
  std::vector<std::string> archs;
  std::size_t arch_of(std::size_t step, std::size_t pass) const {
    return arch_order[step][pass];
  }
};

Plan make_plan(std::uint64_t seed) {
  Plan p;
  p.archs = ArchRegistry::builtin().names();
  Rng rng(seed);
  auto shuffled = [&rng](std::size_t n) {
    std::vector<std::size_t> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = i;
    for (std::size_t i = n; i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
    return v;
  };
  p.order = shuffled(script_steps().size());
  for (std::size_t i = 0; i < script_steps().size(); ++i)
    p.arch_order.push_back(shuffled(p.archs.size()));
  return p;
}

// Profiled predictors for every (kernel, arch) of the script.
struct Setup {
  ToverlapModel overlap;
  double train_s = 0.0;
  std::vector<std::unique_ptr<Profiled>> prof;  // kernel-major, arch-minor
  std::vector<std::string> kernels;
  double wall_s = 0.0;
  const Profiled& at(const std::string& kernel, std::size_t arch) const {
    const std::size_t k = static_cast<std::size_t>(
        std::find(kernels.begin(), kernels.end(), kernel) - kernels.begin());
    return *prof[k * ArchRegistry::builtin().size() + arch];
  }
};

Setup set_up(ThreadPool& pool) {
  Setup s;
  const auto t0 = Clock::now();
  s.overlap = train_overlap(pool, &s.train_s);
  for (const Step& st : script_steps())
    if (std::find(s.kernels.begin(), s.kernels.end(), st.kernel) == s.kernels.end())
      s.kernels.push_back(st.kernel);
  const std::vector<std::string> archs = ArchRegistry::builtin().names();
  s.prof.resize(s.kernels.size() * archs.size());
  pool.parallel_for(s.prof.size(), [&](int, std::size_t i) {
    s.prof[i] = profile(s.kernels[i / archs.size()], archs[i % archs.size()],
                        s.overlap);
  });
  s.wall_s = secs_since(t0);
  return s;
}

// Size of the kernel's legal placement space on the profiled arch. The
// synthetic kernel admits every one of its 5^n placements; registry kernels
// are enumerated.
double legal_space_size(const Profiled& p) {
  const std::string& k = p.kernel_name;
  if (k.rfind("bnb_synth", 0) == 0) return std::pow(5.0, std::atoi(k.c_str() + 9));
  return static_cast<double>(
      enumerate_placement_space(p.bench.kernel, *p.arch, 1u << 20).placements.size());
}

// A uniformly drawn legal placement (rejection over per-array legal spaces).
DataPlacement random_placement(const Profiled& p, Rng& rng) {
  const KernelInfo& k = p.bench.kernel;
  for (;;) {
    DataPlacement pl = p.bench.sample;
    for (int a = 0; a < static_cast<int>(pl.size()); ++a) {
      const std::vector<MemSpace> legal = legal_spaces(k, a, *p.arch);
      pl.set(a, legal[rng.below(legal.size())]);
    }
    if (!validate_placement(k, pl, *p.arch)) return pl;
  }
}

struct Run {
  std::size_t step = 0, arch = 0;
  double wall_s = 0.0;
  bool ok = false;      // try_search returned OK
  bool passed = false;  // and every output check on it held
  SearchResult result;
};

Run run_step(const Setup& s, const Plan& plan, std::size_t step,
             std::size_t pass, ThreadPool& pool) {
  Run r;
  r.step = step;
  r.arch = plan.arch_of(step, pass);
  const Step& st = script_steps()[step];
  SearchOptions o;
  o.pool = &pool;
  if (st.cap != 0) o.cap = st.cap;
  const auto t0 = Clock::now();
  auto res = try_search(*s.at(st.kernel, r.arch).pred, st.algo, o);
  r.wall_s = secs_since(t0);
  r.ok = res.ok();
  if (r.ok) r.result = *res;
  return r;
}

std::vector<Run> run_pass(const Setup& s, const Plan& plan, std::size_t pass,
                          ThreadPool& pool) {
  std::vector<Run> out;
  for (std::size_t step : plan.order) out.push_back(run_step(s, plan, step, pass, pool));
  return out;
}

bool same_winner(const SearchResult& a, const SearchResult& b) {
  return a.placement == b.placement && a.predicted_cycles == b.predicted_cycles;
}

std::string run_name(const Run& r, const Plan& plan) {
  return step_name(script_steps()[r.step]) + " on " + plan.archs[r.arch];
}

// A failed check fails the run's op.
void reject(Run& r, const Plan& plan, const std::string& why, Report& report) {
  if (r.passed) report.fail(run_name(r, plan) + ": " + why);
  r.passed = false;
}

// The checks every run must pass on its own.
void check_run(Run& r, const Plan& plan, Report& report) {
  r.passed = true;
  if (!r.ok || r.result.deadline_hit || r.result.cancelled)
    reject(r, plan, "search failed", report);
  else if (script_steps()[r.step].algo == SearchAlgo::kBnb &&
           !(r.result.proven_optimal && r.result.optimality_gap == 0.0))
    reject(r, plan, "B&B ended without a certificate", report);
}

void tally(const std::vector<Run>& runs, Report& report) {
  for (const Run& r : runs) report.op(r.passed);
}

void plain_run(const Config& cfg, Report& report) {
  ThreadPool pool(kPoolThreads);
  const Plan plan = make_plan(cfg.seed);
  std::vector<double> setups;
  Setup s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s = Setup{};  // release the previous set-up before building the next
    s = set_up(pool);
    setups.push_back(s.wall_s);
  }
  for (const auto& p : s.prof)
    if (!p->ok) report.fail("profiling " + p->kernel_name + " on " + p->arch_name);

  // One untimed cycle finishes the predictors' lazy first-use work (the
  // skeletons' memoized line pools), then timed cycles, at least
  // kMinTimedCycles and more while time remains. Each (step, arch) pair is
  // reported as its fastest timed run: a shared host preempts some runs and
  // not others, and preemption only adds time. runs[pair].front() is the
  // untimed run.
  const std::size_t n_arch = plan.archs.size();
  const std::size_t n_steps = script_steps().size();
  std::vector<std::vector<Run>> runs(n_steps * n_arch);
  const auto t0 = Clock::now();
  double cycle_s = 0.0;
  std::size_t cycles = 0;
  while (cycles < 1 + kMinTimedCycles || secs_since(t0) + cycle_s <= cfg.seconds) {
    const auto c0 = Clock::now();
    for (std::size_t pass = 0; pass < n_arch; ++pass)
      for (std::size_t step : plan.order) {
        Run r = run_step(s, plan, step, pass, pool);
        check_run(r, plan, report);
        runs[r.step * n_arch + r.arch].push_back(std::move(r));
      }
    cycle_s = secs_since(c0);
    ++cycles;
  }

  // Winners repeat across cycles.
  for (auto& pair : runs)
    for (Run& r : pair)
      if (!same_winner(r.result, pair.front().result))
        reject(r, plan, "winner changed between passes", report);

  // Exhaustive and B&B agree: B&B's certified optimum is never worse than
  // the capped exhaustive best, and equals it where the cap covered the
  // whole space (checked by an extra, untimed B&B run on such spaces).
  std::vector<Run> extra;
  for (std::size_t a = 0; a < n_arch; ++a) {
    for (std::size_t i = 0; i < n_steps; ++i) {
      const Step& ex = script_steps()[i];
      if (ex.algo != SearchAlgo::kExhaustive) continue;
      Run& er = runs[i * n_arch + a].front();
      const SearchResult* br = nullptr;
      for (std::size_t j = 0; j < n_steps; ++j)
        if (script_steps()[j].algo == SearchAlgo::kBnb &&
            script_steps()[j].kernel == ex.kernel)
          br = &runs[j * n_arch + a].front().result;
      if (br == nullptr && !er.result.space_truncated) {
        SearchOptions o;
        o.pool = &pool;
        Run check;
        check.step = i;
        check.arch = a;
        const auto res = try_search(*s.at(ex.kernel, a).pred, SearchAlgo::kBnb, o);
        check.ok = check.passed = res.ok() && res->proven_optimal;
        if (check.passed) check.result = *res;
        else report.fail(run_name(check, plan) + ": B&B cross-check failed");
        extra.push_back(std::move(check));
        if (extra.back().passed) br = &extra.back().result;
      }
      if (br == nullptr) continue;
      const bool agree = er.result.space_truncated
                             ? br->predicted_cycles <= er.result.predicted_cycles
                             : same_winner(er.result, *br);
      if (!agree) reject(er, plan, "exhaustive and B&B disagree", report);
    }
  }
  // A certified winner is no worse than any legal placement: each such
  // winner is checked against seeded random placements of its space.
  Rng rng(cfg.seed ^ 0x5b07c4eull);
  for (auto& pair : runs) {
    Run& r = pair.front();
    const bool certified = script_steps()[r.step].algo == SearchAlgo::kBnb ||
                           !r.result.space_truncated;
    if (!r.passed || !certified) continue;
    const Profiled& p = s.at(script_steps()[r.step].kernel, r.arch);
    std::vector<DataPlacement> spots;
    for (int k = 0; k < kSpotChecks; ++k) spots.push_back(random_placement(p, rng));
    for (const Prediction& pr : p.pred->predict_batch(spots, &pool))
      if (pr.total_cycles < r.result.predicted_cycles) {
        reject(r, plan, "a random legal placement beats the certified winner", report);
        break;
      }
  }
  for (const auto& pair : runs) tally(pair, report);
  tally(extra, report);

  // Accuracy against the simulator, over every (step, arch) pair.
  std::vector<double> log_speedup(runs.size()), err(runs.size());
  pool.parallel_for(runs.size(), [&](int, std::size_t i) {
    const Run& r = runs[i].front();
    const Profiled& p = s.at(script_steps()[r.step].kernel, r.arch);
    const double chosen = static_cast<double>(
        simulate(p.bench.kernel, r.result.placement, *p.arch).cycles);
    const double sample = static_cast<double>(p.pred->sample_result().cycles);
    log_speedup[i] = std::log(sample / chosen);
    err[i] = std::fabs(r.result.predicted_cycles / chosen - 1.0);
  });

  std::vector<double> walls;
  double total_wall = 0.0, evaluated = 0.0, ls = 0.0, e = 0.0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ls += log_speedup[i];
    e += err[i];
    double best = runs[i][1].wall_s;
    for (std::size_t k = 2; k < runs[i].size(); ++k)
      best = std::min(best, runs[i][k].wall_s);
    walls.push_back(best * 1e3);
    total_wall += best;
    evaluated += static_cast<double>(runs[i].front().result.evaluated);
  }
  const double n_pairs = static_cast<double>(runs.size());
  report.metric("setup_s", median(setups), "s");
  report.metric("peak_rss_mb", peak_rss_mb("self"), "MB");
  report.metric("latency_p50_ms", percentile(walls, 0.5), "ms");
  report.metric("latency_p99_ms", percentile(walls, 0.99), "ms");
  report.metric("script_s", total_wall / static_cast<double>(n_arch), "s");
  report.metric("predictions_per_s", evaluated / total_wall, "1/s");
  report.metric("realized_speedup", std::exp(ls / n_pairs), "x");
  report.metric("winner_error_pct", 100.0 * e / n_pairs, "%");
  report.note(fmt("%zu cycles (the first untimed) of %zu passes; %zu searches per "
                  "cycle; setups %zu",
                  cycles, n_arch, walls.size(), setups.size()));
}

// --- traced run ----------------------------------------------------------------

void traced_run(const Config& cfg, Report& report) {
  LayerValues lv;
  ThreadPool pool(kPoolThreads);
  ThreadPool serial(1);
  const Plan plan = make_plan(cfg.seed);
  const Setup s = set_up(pool);

  double profile_s = 0, skeleton_s = 0, cycles = 0;
  for (const auto& p : s.prof) {
    if (!p->ok) report.fail("profiling " + p->kernel_name + " on " + p->arch_name);
    profile_s += p->profile_s;
    skeleton_s += p->skeleton_s;
    cycles += static_cast<double>(p->pred->sample_result().cycles);
  }
  lv.set("model.train_overlap_s", s.train_s);
  lv.set("sim.profile_ms", 1e3 * profile_s / s.prof.size());
  lv.set("sim.mcycles_per_s", cycles / profile_s / 1e6);
  lv.set("trace.skeleton_ms", 1e3 * skeleton_s / s.prof.size());

  auto pass_wall = [](const std::vector<Run>& runs) {
    double w = 0;
    for (const Run& r : runs) w += r.wall_s;
    return w;
  };
  obs::Histogram& predict_ns = obs::histogram("predictor.predict_ns");

  // Plain and traced passes on the 4-thread pool, after an untimed pass
  // that finishes the predictors' lazy first-use work: tracing overhead and
  // pool occupancy. The order plain, traced, traced, plain is balanced
  // against drift.
  obs::set_enabled(false);
  std::vector<Run> warm = run_pass(s, plan, 0, pool);
  std::vector<Run> plain = run_pass(s, plan, 0, pool);
  obs::set_enabled(true);
  obs::reset_all_metrics();
  std::vector<Run> traced = run_pass(s, plan, 0, pool);
  for (Run& r : run_pass(s, plan, 0, pool)) traced.push_back(std::move(r));
  const double busy4 = static_cast<double>(predict_ns.sum()) * 1e-9;
  obs::set_enabled(false);
  for (Run& r : run_pass(s, plan, 0, pool)) plain.push_back(std::move(r));
  const double traced4 = pass_wall(traced);

  // The ledger pass: the same script on one thread, so the wall is the sum
  // of the layers' self-times. The split comes from the program's existing
  // phase histograms; work inside an analysis but outside its lowering and
  // replay phases stays unattributed.
  obs::set_enabled(true);
  std::vector<Run> ledger;
  double in_predict = 0, in_analyze = 0, in_lower = 0, in_replay = 0, analyses = 0;
  for (std::size_t step : plan.order) {
    obs::reset_all_metrics();
    ledger.push_back(run_step(s, plan, step, 0, serial));
    in_predict += static_cast<double>(predict_ns.sum()) * 1e-9;
    in_analyze += static_cast<double>(obs::histogram("trace.analyze_ns").sum()) * 1e-9;
    in_lower += static_cast<double>(obs::histogram("trace.soa_lower_ns").sum()) * 1e-9;
    in_replay += static_cast<double>(obs::histogram("trace.soa_replay_ns").sum()) * 1e-9;
    analyses += static_cast<double>(obs::counter("trace.analyses").value());
  }
  obs::set_enabled(false);
  const double wall1 = pass_wall(ledger);
  for (auto* runs : {&warm, &plain, &traced, &ledger}) {
    for (Run& r : *runs) check_run(r, plan, report);
    tally(*runs, report);
  }

  // Per-candidate layer costs, timed outside the program, for each step's
  // kernel and arch: its winner plus a seeded sample of the candidates it
  // scores (the capped prefix for exhaustive search, the space for B&B).
  Rng rng(cfg.seed ^ 0x1a7e5);
  double evaluated = 0, pruned = 0, nodes = 0, per_space = 0;
  std::string per_step;
  std::vector<double> predict_ms, lower_ms, walk_ms, eq_us;
  std::size_t saturated = 0;
  for (const Run& r : ledger) {
    const Step& st = script_steps()[r.step];
    const Profiled& p = s.at(st.kernel, r.arch);
    TraceAnalyzer analyzer = p.pred->make_analyzer();
    std::vector<DataPlacement> sample{r.result.placement};
    const double space = legal_space_size(p);
    if (space <= 65536) {
      const PlacementSpace sp = enumerate_placement_space(
          p.bench.kernel, *p.arch, st.cap != 0 ? st.cap : 65536);
      for (int k = 0; k < 5; ++k)
        sample.push_back(sp.placements[rng.below(sp.placements.size())]);
    } else {
      for (int k = 0; k < 5; ++k) sample.push_back(random_placement(p, rng));
    }
    for (const auto& pl : sample) {
      const LayerTimes lt = time_layers(p, pl, analyzer, nullptr);
      predict_ms.push_back(lt.predict_s * 1e3);
      lower_ms.push_back(lt.lower_s * 1e3);
      walk_ms.push_back((lt.analyze_s - lt.lower_s) * 1e3);
      eq_us.push_back(lt.equations_s * 1e6);
      saturated += lt.queue_saturated;
    }
    evaluated += static_cast<double>(r.result.evaluated);
    pruned += static_cast<double>(r.result.pruned + r.result.pruned_subtrees);
    nodes += static_cast<double>(r.result.nodes_expanded);
    per_space = std::max(per_space, static_cast<double>(r.result.evaluated) / space);
    per_step += fmt(" %s=%zu/%.0f", run_name(r, plan).c_str(), r.result.evaluated, space);
  }
  report.note("evaluated/space per step:" + per_step);
  report.note(fmt("cross-check: trace.soa_lower_ns inside the program %.3f ms per "
                  "analysis vs trace.lower_ms %.3f ms timed outside",
                  1e3 * in_lower / std::max(1.0, analyses), median(lower_ms)));
  lv.set("model.predict_ms", median(predict_ms));
  lv.set("trace.lower_ms", median(lower_ms));
  lv.set("model.walk_ms", median(walk_ms));
  lv.set("model.equations_us", median(eq_us));
  lv.set("model.queue_saturated_ratio",
         static_cast<double>(saturated) / predict_ms.size());
  lv.set("search.evaluated", evaluated);
  lv.set("search.pruned", pruned);
  lv.set("search.nodes_expanded", nodes);
  lv.set("search.evaluated_per_space", per_space);
  const double self = wall1 - in_predict;
  lv.set("search.self_ms", self * 1e3);
  lv.set("pool.busy_ratio", busy4 / (traced4 * kPoolThreads));

  const double other = in_predict - in_analyze;
  const double attributed = self + in_lower + in_replay + other;
  const double pct = 100.0 / wall1;
  lv.set("ledger.unattributed_pct", (wall1 - attributed) * pct);
  lv.set("ledger.tracing_overhead_pct",
         (traced4 - pass_wall(plain)) / pass_wall(plain) * 100.0);
  lv.set("ledger.lower_pct", in_lower * pct);
  lv.set("ledger.walk_pct", in_replay * pct);
  lv.set("ledger.predict_other_pct", other * pct);
  lv.set("ledger.search_self_pct", self * pct);
  if ((wall1 - attributed) * pct > 10.0)
    report.fail(fmt("ledger leaves %.1f%% of the traced wall unattributed",
                    (wall1 - attributed) * pct));
  report.note(fmt("ledger pass on 1 thread: wall %.3f s, predict inside %.3f s; "
                  "4-thread plain %.3f s traced %.3f s",
                  wall1, in_predict, pass_wall(plain), traced4));
  lv.emit(report);
}

}  // namespace

void run_search(const Config& cfg, Report& report) {
  const Plan plan = make_plan(cfg.seed);
  std::string order;
  for (std::size_t step : plan.order) {
    if (!order.empty()) order += ' ';
    order += step_name(script_steps()[step]) + '@';
    for (std::size_t pass = 0; pass < plan.archs.size(); ++pass)
      order += (pass == 0 ? "" : ",") + plan.archs[plan.arch_of(step, pass)];
  }
  report.stamp("script", order);
  report.stamp("stream_digest",
               fmt("%016llx", static_cast<unsigned long long>(
                                  fnv1a(0xcbf29ce484222325ull, order))));
  report.stamp("pool_threads", std::to_string(kPoolThreads));
  if (cfg.trace)
    traced_run(cfg, report);
  else
    plain_run(cfg, report);
}

}  // namespace perfbench
