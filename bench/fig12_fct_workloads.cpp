// Figure 12: average and 99th-percentile FCT vs load (0.1-0.7) under the
// five realistic workloads, for pHost / Homa / NDP / AMRT.
//
// Default: a scaled-down fabric (4 leaves x 4 spines x 8 hosts, 10us links)
// and loads {0.3, 0.5, 0.7} so the sweep finishes in minutes. --paper-scale
// restores Section 8.1's 10x8x40 fabric with 100us links and all 7 loads.
// Expected shape: AMRT lowest AFCT/p99 everywhere, with the margin growing
// with load and largest for Data Mining.
#include <cstdio>
#include <iostream>

#include "harness/csv.hpp"
#include "harness/options.hpp"
#include "harness/sweep.hpp"

using namespace amrt;
using harness::ExperimentConfig;

namespace {
constexpr transport::Protocol kProtos[] = {transport::Protocol::kPhost, transport::Protocol::kHoma,
                                           transport::Protocol::kNdp, transport::Protocol::kAmrt};

// Flow-count budget per workload so every cell moves a similar byte volume.
std::size_t base_flows(workload::Kind k) {
  switch (k) {
    case workload::Kind::kWebServer: return 600;
    case workload::Kind::kCacheFollower: return 300;
    case workload::Kind::kHadoop: return 250;
    case workload::Kind::kWebSearch: return 250;
    case workload::Kind::kDataMining: return 300;
  }
  return 200;
}
}  // namespace

int main(int argc, char** argv) {
  const auto opts = harness::parse_bench_options(argc, argv);
  std::vector<double> loads = opts.loads;
  if (loads.empty()) loads = opts.paper_scale ? std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
                                              : std::vector<double>{0.3, 0.5, 0.7};

  harness::Table table{{"workload", "load", "pHost_afct_us", "pHost_p99_us", "Homa_afct_us",
                        "Homa_p99_us", "NDP_afct_us", "NDP_p99_us", "AMRT_afct_us", "AMRT_p99_us",
                        "AMRT_vs_pHost", "AMRT_vs_Homa", "AMRT_vs_NDP"}};

  std::printf("Fig. 12 reproduction: FCT vs load (%s scale, seed %llu)\n",
              opts.paper_scale ? "paper" : "laptop", static_cast<unsigned long long>(opts.seed));

  // One sweep point per (workload, load, protocol) cell, protocol innermost.
  std::vector<ExperimentConfig> points;
  for (auto wk : workload::kAllKinds) {
    for (double load : loads) {
      for (auto proto : kProtos) {
        ExperimentConfig cfg;
        cfg.run.proto = proto;
        cfg.workload = wk;
        cfg.load = load;
        cfg.n_flows = opts.scaled(base_flows(wk));
        cfg.run.seed = opts.seed;
        if (opts.paper_scale) {
          cfg.run.fabric.leaves = 10;
          cfg.run.fabric.spines = 8;
          cfg.run.fabric.hosts_per_leaf = 40;
          cfg.run.fabric.link_delay = sim::Duration::microseconds(100);
        }
        points.push_back(cfg);
      }
    }
  }

  harness::SweepRunner runner = harness::make_bench_runner(opts, "fig12");
  const auto results = runner.run(points);
  harness::export_json_if_requested(opts, points, results);

  std::size_t idx = 0;
  for (auto wk : workload::kAllKinds) {
    for (double load : loads) {
      double afct[4] = {0, 0, 0, 0};
      double p99[4] = {0, 0, 0, 0};
      for (int p = 0; p < 4; ++p) {
        const auto& r = results[idx++];
        afct[p] = r.fct_all.afct_us;
        p99[p] = r.fct_all.p99_us;
        std::fprintf(stderr, "  [%s %s load=%.1f] afct=%.1fus p99=%.1fus done=%zu/%zu wall=%.1fs\n",
                     workload::abbrev(wk), transport::to_string(kProtos[p]), load, afct[p], p99[p],
                     r.flows_completed, r.flows_started, r.wall_seconds);
      }
      auto reduction = [&](int base) {
        return afct[base] > 0 ? (afct[base] - afct[3]) / afct[base] : 0.0;
      };
      table.add_row({workload::abbrev(wk), harness::fmt(load, 1), harness::fmt(afct[0], 1),
                     harness::fmt(p99[0], 1), harness::fmt(afct[1], 1), harness::fmt(p99[1], 1),
                     harness::fmt(afct[2], 1), harness::fmt(p99[2], 1), harness::fmt(afct[3], 1),
                     harness::fmt(p99[3], 1), harness::fmt_pct(reduction(0)),
                     harness::fmt_pct(reduction(1)), harness::fmt_pct(reduction(2))});
    }
  }

  if (opts.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::printf(
        "\nPaper reference (load 0.7, Data Mining): AMRT reduces AFCT by ~40.8%% vs pHost,\n"
        "~26.4%% vs Homa, ~18.3%% vs NDP; the margin grows with load.\n");
  }
  return 0;
}
