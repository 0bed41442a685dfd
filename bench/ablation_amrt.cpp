// Ablations of AMRT's design choices (called out in DESIGN.md §6):
//
//  1. Marking threshold (Eq. 2's MSS): how big must the inter-dequeue gap be
//     before the switch declares spare bandwidth? The paper fixes it at one
//     1500B MTU; smaller probes mark more aggressively, larger ones damp.
//  2. Marked-grant allowance: the paper triggers 2 packets per marked grant;
//     higher allowances converge faster but overshoot harder.
//  3. Loss timeout: Sec. 6's 1xRTT grant-reissue vs more conservative RTOs,
//     measured on a loaded fabric cell.
//
// Each row runs the Fig. 2 dynamic-traffic scenario (where the refill speed
// is visible) and reports the large flow's completion, utilization and queue.
#include <cstdio>
#include <iostream>

#include "harness/csv.hpp"
#include "harness/options.hpp"
#include "harness/scenarios.hpp"
#include "harness/sweep.hpp"
#include "net/topology.hpp"

using namespace amrt;
using harness::DynamicConfig;
using harness::DynamicFlow;

namespace {
DynamicConfig base_dynamic() {
  DynamicConfig cfg;
  cfg.proto = transport::Protocol::kAmrt;
  cfg.flows = {DynamicFlow{2'500'000, sim::Duration::zero()},
               DynamicFlow{5'000'000, sim::Duration::zero()},
               DynamicFlow{10'000'000, sim::Duration::zero()}};
  cfg.duration = sim::Duration::milliseconds(25);
  cfg.bin = sim::Duration::microseconds(250);
  return cfg;
}
}  // namespace

int main(int argc, char** argv) {
  const auto opts = harness::parse_bench_options(argc, argv);
  harness::SweepRunner runner = harness::make_bench_runner(opts, "ablation");

  std::printf("Ablation 1: anti-ECN marking threshold (probe bytes)\n");
  harness::Table t1{{"probe_bytes", "f3_fct_ms", "mean_util", "max_queue"}};
  {
    const std::vector<std::uint32_t> probes{750u, 1500u, 3000u, 6000u};
    std::vector<DynamicConfig> points;
    for (std::uint32_t probe : probes) {
      auto cfg = base_dynamic();
      cfg.queues.marker_probe_bytes = probe;
      cfg.seed = opts.seed;
      points.push_back(cfg);
    }
    const auto rs = runner.map_points(
        points, [](const DynamicConfig& cfg) { return harness::run_dynamic(cfg); });
    for (std::size_t i = 0; i < rs.size(); ++i) {
      t1.add_row({std::to_string(probes[i]), harness::fmt(rs[i].flow_fct_ms[2]),
                  harness::fmt_pct(rs[i].mean_util_b1), std::to_string(rs[i].max_queue_pkts)});
    }
  }
  if (opts.csv) t1.print_csv(std::cout); else t1.print(std::cout);

  std::printf("\nAblation 2: marked-grant allowance (paper: 2)\n");
  harness::Table t2{{"allowance", "f3_fct_ms", "mean_util", "max_queue"}};
  {
    const std::vector<std::uint16_t> allowances{2, 3, 4};
    std::vector<DynamicConfig> points;
    for (std::uint16_t allowance : allowances) {
      auto cfg = base_dynamic();
      cfg.amrt_marked_allowance = allowance;
      cfg.seed = opts.seed;
      points.push_back(cfg);
    }
    const auto rs = runner.map_points(
        points, [](const DynamicConfig& cfg) { return harness::run_dynamic(cfg); });
    for (std::size_t i = 0; i < rs.size(); ++i) {
      t2.add_row({std::to_string(allowances[i]), harness::fmt(rs[i].flow_fct_ms[2]),
                  harness::fmt_pct(rs[i].mean_util_b1), std::to_string(rs[i].max_queue_pkts)});
    }
  }
  if (opts.csv) t2.print_csv(std::cout); else t2.print(std::cout);

  std::printf("\nAblation 3: receiver loss timeout on a loaded fabric cell (Web Search, load 0.7)\n");
  harness::Table t3{{"rto_x_rtt", "afct_us", "p99_us", "small_afct_us", "drops"}};
  {
    const std::vector<int> multiples{1, 2, 3, 5};
    std::vector<harness::ExperimentConfig> points;
    for (int x : multiples) {
      harness::ExperimentConfig cfg;
      cfg.load = 0.7;
      cfg.n_flows = opts.scaled(200);
      cfg.run.seed = opts.seed;
      const harness::FabricSpec& fabric = cfg.run.fabric;
      cfg.run.transport.loss_timeout =
          net::path_base_rtt(4, fabric.link_rate, fabric.link_delay) * x;
      points.push_back(cfg);
    }
    const auto rs = runner.run(points);
    for (std::size_t i = 0; i < rs.size(); ++i) {
      t3.add_row({std::to_string(multiples[i]), harness::fmt(rs[i].fct_all.afct_us, 1),
                  harness::fmt(rs[i].fct_all.p99_us, 1), harness::fmt(rs[i].fct_small.afct_us, 1),
                  std::to_string(rs[i].drops)});
    }
  }
  if (opts.csv) t3.print_csv(std::cout); else t3.print(std::cout);

  std::printf("\nAblation 4: per-flow ECMP vs per-packet spraying (Web Search, load 0.7)\n");
  harness::Table t4{{"proto", "multipath", "afct_us", "p99_us", "util"}};
  {
    std::vector<harness::ExperimentConfig> points;
    for (auto proto : {transport::Protocol::kNdp, transport::Protocol::kAmrt}) {
      for (auto mode : {net::MultipathMode::kPerFlowEcmp, net::MultipathMode::kPacketSpray}) {
        harness::ExperimentConfig cfg;
        cfg.run.proto = proto;
        cfg.load = 0.7;
        cfg.n_flows = opts.scaled(200);
        cfg.run.seed = opts.seed;
        cfg.run.fabric.multipath = mode;
        points.push_back(cfg);
      }
    }
    const auto rs = runner.run(points);
    for (std::size_t i = 0; i < rs.size(); ++i) {
      const harness::RunSpec& run = points[i].run;
      t4.add_row({transport::to_string(run.proto),
                  run.fabric.multipath == net::MultipathMode::kPerFlowEcmp ? "per-flow" : "spray",
                  harness::fmt(rs[i].fct_all.afct_us, 1), harness::fmt(rs[i].fct_all.p99_us, 1),
                  harness::fmt_pct(rs[i].mean_utilization)});
    }
  }
  if (opts.csv) t4.print_csv(std::cout); else t4.print(std::cout);

  std::printf("\nAblation 5: Aeolus-style selective dropping of blind packets (32-way incast)\n");
  harness::Table t5{{"queue", "afct_us", "p99_us", "drops", "goodput_gbps"}};
  {
    const std::vector<bool> modes{false, true};
    std::vector<harness::IncastConfig> points;
    for (bool selective : modes) {
      harness::IncastConfig cfg;
      cfg.proto = transport::Protocol::kAmrt;
      cfg.senders = 32;
      cfg.queues.buffer_pkts = 8;
      cfg.queues.selective_drop = selective;
      cfg.seed = opts.seed;
      points.push_back(cfg);
    }
    const auto rs = runner.map_points(
        points, [](const harness::IncastConfig& cfg) { return harness::run_incast(cfg); });
    for (std::size_t i = 0; i < rs.size(); ++i) {
      t5.add_row({modes[i] ? "selective-drop" : "drop-tail", harness::fmt(rs[i].fct.afct_us, 1),
                  harness::fmt(rs[i].fct.p99_us, 1), std::to_string(rs[i].drops),
                  harness::fmt(rs[i].goodput_gbps)});
    }
  }
  if (opts.csv) t5.print_csv(std::cout); else t5.print(std::cout);
  return 0;
}
