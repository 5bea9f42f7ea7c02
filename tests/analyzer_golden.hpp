// Frozen trace-analyzer outputs (tests/golden/analyzer_events.json).
//
// One entry per (registered arch, seed workload, placement): every
// PlacementEvents integer counter, trace_ticks, the bit patterns of ilp /
// mlp / warps_per_sm, and one 64-bit FNV-1a digest over each bank's request
// count and the bits of its inter-arrival and service RunningStat means and
// variances. The placements are the sample plus every test placement of the
// training and evaluation suites. A second set of entries covers randomized
// synthetic kernels on kepler (make_synthetic_kernel): their default
// placement plus up to eight legal random placements per seed. A third
// covers placements that stage two or three arrays into shared memory at
// once (make_bnb_synth(6), matrixmul, spmv) on every registered backend.
//
// The first two sets were written by the scalar per-op replay (the
// analyzer's original engine, since replaced by the SoA engine) and matched
// the SoA engine line for line when they were written; the third was written
// by the SoA engine while it still re-lowered every staging preamble per
// candidate, before the preamble was memoized in the skeleton. Tests compare
// the current engine against all three. Regenerate the file only for an
// intentional analyzer change, from the repository root:
//   build/tests/test_trace_analysis --write-golden tests/golden/analyzer_events.json
//
// expect_counters_match is the live counterpart: the analyzer's
// order-insensitive counters against the simulator's on the same trace.
#pragma once

#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "arch/arch_registry.hpp"
#include "common/hashing.hpp"
#include "model/trace_analysis.hpp"
#include "sim/counters.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms::testutil {

inline constexpr std::pair<const char*, std::uint64_t PlacementEvents::*>
    kGoldenCounters[] = {
        {"insts_executed", &PlacementEvents::insts_executed},
        {"addr_calc_insts", &PlacementEvents::addr_calc_insts},
        {"mem_insts", &PlacementEvents::mem_insts},
        {"load_insts", &PlacementEvents::load_insts},
        {"sync_insts", &PlacementEvents::sync_insts},
        {"replay_global_divergence", &PlacementEvents::replay_global_divergence},
        {"replay_const_miss", &PlacementEvents::replay_const_miss},
        {"replay_const_divergence", &PlacementEvents::replay_const_divergence},
        {"replay_shared_conflict", &PlacementEvents::replay_shared_conflict},
        {"global_requests", &PlacementEvents::global_requests},
        {"global_transactions", &PlacementEvents::global_transactions},
        {"l2_transactions", &PlacementEvents::l2_transactions},
        {"l2_misses", &PlacementEvents::l2_misses},
        {"const_requests", &PlacementEvents::const_requests},
        {"const_misses", &PlacementEvents::const_misses},
        {"tex_requests", &PlacementEvents::tex_requests},
        {"tex_transactions", &PlacementEvents::tex_transactions},
        {"tex_misses", &PlacementEvents::tex_misses},
        {"shared_requests", &PlacementEvents::shared_requests},
        {"shared_conflicts", &PlacementEvents::shared_conflicts},
        {"dram_requests", &PlacementEvents::dram_requests},
        {"row_hits", &PlacementEvents::row_hits},
        {"row_misses", &PlacementEvents::row_misses},
        {"row_conflicts", &PlacementEvents::row_conflicts},
        {"offchip_load_transactions",
         &PlacementEvents::offchip_load_transactions},
        {"shared_load_requests", &PlacementEvents::shared_load_requests},
        {"dram_load_requests", &PlacementEvents::dram_load_requests},
        {"trace_ticks", &PlacementEvents::trace_ticks},
};

inline std::uint64_t bank_digest(const PlacementEvents& ev) {
  Fnv1a h;
  for (const BankStream& b : ev.banks) {
    h.mix(b.count)
        .mix(b.interarrival.mean())
        .mix(b.interarrival.variance())
        .mix(b.service.mean())
        .mix(b.service.variance());
  }
  return h.digest();
}

// The golden entry of one analysis, as one JSON object on one line.
inline std::string golden_line(const std::string& id,
                               const PlacementEvents& ev) {
  std::string s = "{\"id\": \"" + id + "\"";
  char buf[96];
  for (const auto& [name, field] : kGoldenCounters) {
    std::snprintf(buf, sizeof buf, ", \"%s\": %" PRIu64, name, ev.*field);
    s += buf;
  }
  const auto bits = [](double v) {
    std::uint64_t u;
    __builtin_memcpy(&u, &v, sizeof u);
    return u;
  };
  const std::pair<const char*, std::uint64_t> hexes[] = {
      {"ilp_bits", bits(ev.ilp)},
      {"mlp_bits", bits(ev.mlp)},
      {"warps_per_sm_bits", bits(ev.warps_per_sm)},
      {"bank_digest", bank_digest(ev)},
  };
  for (const auto& [name, v] : hexes) {
    std::snprintf(buf, sizeof buf, ", \"%s\": \"0x%016" PRIx64 "\"", name, v);
    s += buf;
  }
  return s + "}";
}

// The simulator measures the same instruction, request, transaction and
// replay (causes 1, 3, 4) counts the analysis derives; cache misses and DRAM
// traffic depend on the timed interleaving and legitimately differ.
inline void expect_counters_match(const PlacementEvents& ev,
                                  const ProfileCounters& sim) {
  EXPECT_EQ(ev.insts_executed, sim.inst_executed);
  EXPECT_EQ(ev.mem_insts, sim.ldst_executed);
  EXPECT_EQ(ev.global_requests, sim.global_requests);
  EXPECT_EQ(ev.global_transactions, sim.global_transactions);
  EXPECT_EQ(ev.const_requests, sim.const_requests);
  EXPECT_EQ(ev.tex_requests, sim.tex_requests);
  EXPECT_EQ(ev.tex_transactions, sim.tex_transactions);
  EXPECT_EQ(ev.shared_requests, sim.shared_requests);
  EXPECT_EQ(ev.shared_conflicts, sim.shared_bank_conflicts);
  EXPECT_EQ(ev.replay_global_divergence, sim.replay_global_divergence);
  EXPECT_EQ(ev.replay_const_divergence, sim.replay_const_divergence);
  EXPECT_EQ(ev.replay_shared_conflict, sim.replay_shared_conflict);
}

// A randomized synthetic kernel: irregular masks (including fully
// predicated-off warps), unsorted and duplicate lane indices, random
// dependencies and mixed compute/sync streams — the trace shapes the seed
// workloads are too regular to produce.
inline KernelInfo make_synthetic_kernel(std::uint64_t seed) {
  std::mt19937_64 setup(seed);
  KernelInfo k;
  k.name = "soa_synth_" + std::to_string(seed);
  const int num_arrays = 3 + static_cast<int>(setup() % 3);
  for (int a = 0; a < num_arrays; ++a) {
    ArrayDecl d;
    d.name = "arr" + std::to_string(a);
    d.dtype = DType::F32;
    d.elems = 512 + setup() % 1024;
    d.width = setup() % 2 == 0 ? 32 : 0;
    d.written = setup() % 3 == 0;
    d.shared_slice_elems = 128;
    d.default_space = MemSpace::Global;
    k.arrays.push_back(d);
  }
  k.num_blocks = 6;
  k.threads_per_block = 64;
  std::vector<std::uint64_t> elems;
  std::vector<bool> written;
  for (const ArrayDecl& d : k.arrays) {
    elems.push_back(d.elems);
    written.push_back(d.written);
  }
  k.fn = [seed, num_arrays, elems, written](WarpEmitter& e,
                                            const WarpCtx& ctx) {
    std::mt19937_64 rng(seed ^ (static_cast<std::uint64_t>(ctx.block) *
                                    0x9e3779b97f4a7c15ull +
                                static_cast<std::uint64_t>(ctx.warp_in_block)));
    const int nops = 8 + static_cast<int>(rng() % 12);
    for (int j = 0; j < nops; ++j) {
      switch (rng() % 6) {
        case 0:
          e.ialu(1 + static_cast<int>(rng() % 3), rng() % 2 == 0);
          break;
        case 1:
          e.falu(1, rng() % 2 == 0);
          break;
        case 2:
          e.sync();
          break;
        default: {
          const int a = static_cast<int>(rng() % num_arrays);
          const bool fully_masked = rng() % 13 == 0;
          const LaneIdx idx = e.by_lane([&](int) -> std::int64_t {
            if (fully_masked || rng() % 8 == 0) return kInactiveLane;
            // Unsorted with duplicates: uniform random over the array.
            return static_cast<std::int64_t>(rng() % elems[a]);
          });
          if (written[a] && rng() % 3 == 0) {
            e.store(a, idx, rng() % 2 == 0);
          } else {
            e.load(a, idx, rng() % 2 == 0);
          }
          break;
        }
      }
    }
  };
  return k;
}

// Every golden case: the workloads own the kernels the cases point into.
struct GoldenCases {
  struct Case {
    std::string id;  // "<arch>/<benchmark>/<placement id or 'sample'>"
    std::string arch_name;
    const GpuArch* arch;
    const KernelInfo* kernel;
    const TraceSkeleton* skeleton;
    DataPlacement placement;
  };

  GoldenCases() {
    benches = workloads::training_suite();
    for (workloads::BenchmarkCase& c : workloads::evaluation_suite())
      benches.push_back(std::move(c));
    for (const workloads::BenchmarkCase& c : benches)
      skeletons.push_back(std::make_unique<TraceSkeleton>(c.kernel));
    for (const std::string& name : ArchRegistry::builtin().names()) {
      const GpuArch& arch = ArchRegistry::builtin().find(name)->arch;
      for (std::size_t b = 0; b < benches.size(); ++b) {
        const workloads::BenchmarkCase& c = benches[b];
        const std::string prefix = name + "/" + c.name + "/";
        cases.push_back({prefix + "sample", name, &arch, &c.kernel,
                         skeletons[b].get(), c.sample});
        for (const workloads::PlacementTest& t : c.tests)
          cases.push_back({prefix + t.id, name, &arch, &c.kernel,
                           skeletons[b].get(), t.placement});
      }
    }
    // Synthetic kernels: the default placement, then random draws over each
    // array's legal spaces until eight validate (at most 24 draws).
    const GpuArch& kepler = kepler_arch();
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      const KernelInfo& k = *synth_kernels.emplace_back(
          std::make_unique<KernelInfo>(make_synthetic_kernel(seed)));
      const TraceSkeleton* skel =
          skeletons.emplace_back(std::make_unique<TraceSkeleton>(k)).get();
      const std::string prefix = "kepler/" + k.name + "/";
      synth.push_back({prefix + "default", "kepler", &kepler, &k, skel,
                       DataPlacement::defaults(k)});
      std::mt19937_64 rng(seed * 77ull + 5ull);
      int tried = 0;
      for (int cand = 0; cand < 24 && tried < 8; ++cand) {
        DataPlacement p = DataPlacement::defaults(k);
        for (int a = 0; a < static_cast<int>(k.arrays.size()); ++a) {
          const std::vector<MemSpace> spaces = legal_spaces(k, a, kepler);
          p.set(a, spaces[rng() % spaces.size()]);
        }
        if (validate_placement(k, p, kepler).has_value()) continue;
        ++tried;
        synth.push_back({prefix + "candidate" + std::to_string(cand), "kepler",
                         &kepler, &k, skel, p});
      }
    }
    // Placements staging two or three arrays into shared memory at once, on
    // every registered backend (the seed workloads stage at most one array
    // per test placement). Placements a backend cannot hold are skipped.
    const KernelInfo& bnb = *synth_kernels.emplace_back(
        std::make_unique<KernelInfo>(workloads::make_bnb_synth(6)));
    const TraceSkeleton* bnb_skel =
        skeletons.emplace_back(std::make_unique<TraceSkeleton>(bnb)).get();
    struct Staged {
      const KernelInfo* kernel;
      const TraceSkeleton* skeleton;
      std::vector<const char*> placements;
    };
    std::vector<Staged> staged_sets = {
        {&bnb, bnb_skel, {"S,S,G,G,G,G", "S,T,S,C,S,2T"}}};
    for (std::size_t b = 0; b < benches.size(); ++b) {
      if (benches[b].name == "matrixmul")
        staged_sets.push_back({&benches[b].kernel, skeletons[b].get(),
                               {"S,S,G,S,S", "S,S,G,G,G"}});
      if (benches[b].name == "spmv")
        staged_sets.push_back({&benches[b].kernel, skeletons[b].get(),
                               {"G,G,S,S,G", "T,T,S,S,S"}});
    }
    for (const std::string& name : ArchRegistry::builtin().names()) {
      const GpuArch& arch = ArchRegistry::builtin().find(name)->arch;
      for (const Staged& s : staged_sets) {
        for (const char* code : s.placements) {
          const std::optional<DataPlacement> p =
              DataPlacement::from_string(*s.kernel, code);
          if (!p || validate_placement(*s.kernel, *p, arch).has_value())
            continue;
          staged.push_back({name + "/" + s.kernel->name + "/staged_" + code,
                            name, &arch, s.kernel, s.skeleton, *p});
        }
      }
    }
  }

  std::vector<workloads::BenchmarkCase> benches;
  std::vector<std::unique_ptr<KernelInfo>> synth_kernels;
  std::vector<std::unique_ptr<TraceSkeleton>> skeletons;
  std::vector<Case> cases;   // seed workloads x registered archs
  std::vector<Case> synth;   // synthetic kernels on kepler
  std::vector<Case> staged;  // multi-array staging x registered archs
};

// id -> golden line, as written by golden_line (an empty map when the file
// is missing). Purpose-built for the writer's one-entry-per-line layout.
inline std::map<std::string, std::string> load_analyzer_golden(
    const std::string& path) {
  std::map<std::string, std::string> out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  std::string line;
  for (int ch; (ch = std::fgetc(f)) != EOF;) {
    if (ch != '\n') {
      line.push_back(static_cast<char>(ch));
      continue;
    }
    const std::size_t from = line.find("{\"id\": \"");
    const std::size_t to = line.rfind('}');
    if (from != std::string::npos && to != std::string::npos) {
      const std::size_t id_from = from + 8;
      out[line.substr(id_from, line.find('"', id_from) - id_from)] =
          line.substr(from, to + 1 - from);
    }
    line.clear();
  }
  std::fclose(f);
  return out;
}

}  // namespace gpuhms::testutil
