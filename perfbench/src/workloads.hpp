// The benchmark's workloads. Each fills a Report with every end-to-end
// metric (plain run) or every per-layer metric (traced run).
#pragma once

#include "common.hpp"

namespace perfbench {

void run_serve(const Config& cfg, Report& report);   // serve_hot, serve_cold
void run_search(const Config& cfg, Report& report);  // search

// Every per-layer metric name with its unit, in report order; a workload
// reports 0 for a layer it does not exercise.
struct LayerMetric {
  const char* name;
  const char* unit;
};
extern const LayerMetric kLayerMetrics[];
extern const std::size_t kNumLayerMetrics;

// Per-layer values a traced run measured; the rest print as 0.
class LayerValues {
 public:
  void set(const std::string& name, double value);
  void emit(Report& report) const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

}  // namespace perfbench
