// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload serve_hot|serve_cold|search --seed N --seconds S
//             --trace 0|1 --serve-bin PATH --run-dir DIR [--git-rev REV]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of output is one JSON object: correct, attempted, failed,
// metrics. The exit code is non-zero when any output check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace perfbench {

const LayerMetric kLayerMetrics[] = {
    {"serve.rtt_us", "us"},
    {"serve.service_handle_us", "us"},
    {"serve.transport_self_us", "us"},
    {"serve.json_parse_us", "us"},
    {"serve.json_dump_us", "us"},
    {"serve.pred_cache_hit_ratio", "ratio"},
    {"serve.pred_cache_evictions_per_req", "ratio"},
    {"serve.kernel_cache_hit_ratio", "ratio"},
    {"serve.predicts_per_batch_call", "count"},
    {"sim.profile_ms", "ms"},
    {"sim.mcycles_per_s", "Mcycles/s"},
    {"trace.skeleton_ms", "ms"},
    {"model.train_overlap_s", "s"},
    {"model.predict_ms", "ms"},
    {"trace.lower_ms", "ms"},
    {"model.walk_ms", "ms"},
    {"model.equations_us", "us"},
    {"model.queue_saturated_ratio", "ratio"},
    {"search.evaluated", "count"},
    {"search.pruned", "count"},
    {"search.nodes_expanded", "count"},
    {"search.evaluated_per_space", "ratio"},
    {"search.self_ms", "ms"},
    {"pool.busy_ratio", "ratio"},
    {"gen.lag_ms", "ms"},
    {"open_loop.p50_ms", "ms"},
    {"open_loop.p99_ms", "ms"},
    {"open_loop.max_rate_rps", "req/s"},
    {"ledger.unattributed_pct", "%"},
    {"ledger.tracing_overhead_pct", "%"},
    {"ledger.transport_pct", "%"},
    {"ledger.json_pct", "%"},
    {"ledger.cache_pct", "%"},
    {"ledger.placement_pct", "%"},
    {"ledger.lower_pct", "%"},
    {"ledger.walk_pct", "%"},
    {"ledger.predict_other_pct", "%"},
    {"ledger.search_self_pct", "%"},
    {"ledger.search_call_pct", "%"},
};
const std::size_t kNumLayerMetrics = sizeof kLayerMetrics / sizeof kLayerMetrics[0];

void LayerValues::set(const std::string& name, double value) {
  values_.push_back({name, value});
}

void LayerValues::emit(Report& report) const {
  for (std::size_t i = 0; i < kNumLayerMetrics; ++i) {
    double v = 0.0;
    for (const auto& [name, value] : values_)
      if (name == kLayerMetrics[i].name) v = value;
    report.metric(kLayerMetrics[i].name, v, kLayerMetrics[i].unit);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") cfg.workload = v;
    else if (k == "--seed") cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") cfg.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") cfg.trace = v == "1";
    else if (k == "--serve-bin") cfg.serve_bin = v;
    else if (k == "--run-dir") cfg.run_dir = v;
    else if (k == "--git-rev") cfg.git_rev = v;
    else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  Report report;
  stamp_environment(report, cfg);
  if (cfg.workload == "serve_hot" || cfg.workload == "serve_cold") {
    run_serve(cfg, report);
  } else if (cfg.workload == "search") {
    run_search(cfg, report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  report.print();
  return report.correct() ? 0 : 1;
}
