// The runs behind the golden fixtures, shared by the tests that check them
// and the tools that write them (tools/regen_golden_fct.cpp,
// tools/golden_pins.cpp), so the two sides cannot drift apart.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "flowsim/flowsim.hpp"
#include "harness/experiment.hpp"
#include "harness/run.hpp"

namespace amrt::golden {

// One fixture row: flow id, bytes, start ns, end ns.
struct GoldenRecord {
  std::uint64_t flow;
  std::uint64_t bytes;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

// tests/golden_fct.inc and the run_experiment golden pins: WebSearch, load 0.6,
// 80 flows on a 2x2x4 leaf-spine, seed 42.
inline harness::ExperimentConfig golden_cfg(transport::Protocol proto) {
  harness::ExperimentConfig cfg;
  cfg.run.proto = proto;
  cfg.workload = workload::Kind::kWebSearch;
  cfg.load = 0.6;
  cfg.n_flows = 80;
  cfg.run.fabric.leaves = 2;
  cfg.run.fabric.spines = 2;
  cfg.run.fabric.hosts_per_leaf = 4;
  cfg.run.seed = 42;
  return cfg;
}

// kGoldenFlowLeafSpine: 200 flows, 8 hosts per leaf behind a single spine
// (8:1 oversubscribed uplinks, so bottleneck ties are common), AMRT
// foreground with a quarter of the flows on the DCTCP ramp.
inline harness::ExperimentConfig flow_golden_cfg() {
  harness::ExperimentConfig cfg = golden_cfg(transport::Protocol::kAmrt);
  cfg.fidelity = harness::Fidelity::kFlow;
  cfg.run.background_dctcp_fraction = 0.25;
  cfg.n_flows = 200;
  cfg.run.fabric.leaves = 4;
  cfg.run.fabric.spines = 1;
  cfg.run.fabric.hosts_per_leaf = 8;
  return cfg;
}

// The fat-tree goldens' experiment: WebSearch at `load` on a k-ary fat-tree
// with the stock 100us links, seed 42.
inline harness::ExperimentConfig fat_tree_cfg(int k, std::size_t n_flows, double load) {
  harness::ExperimentConfig cfg;
  cfg.run.fabric.topology = harness::Topology::kFatTree;
  cfg.run.fabric.fat_k = k;
  cfg.run.fabric.link_delay = sim::Duration::microseconds(100);
  cfg.run.seed = 42;
  cfg.n_flows = n_flows;
  cfg.load = load;
  return cfg;
}

// kGoldenFlowFatTree*: fat_tree_cfg on a FlowRun under `proto`.
// kTraditional has no transport: without one, the engine runs directly on
// FlowRun's settings with every flow under it.
inline std::vector<stats::FlowRecord> fat_tree_records(int k,
                                                       std::optional<transport::Protocol> proto,
                                                       std::size_t n_flows, double load) {
  harness::ExperimentConfig exp = fat_tree_cfg(k, n_flows, load);
  const auto flows = harness::draw_schedule(exp);
  harness::RunSpec& spec = exp.run;
  if (proto) {
    spec.proto = *proto;
    harness::FlowRun run{spec, flows};
    run.run();
    return run.recorder().completed();
  }
  const flowsim::Fabric fabric = flowsim::Fabric::fat_tree(k, spec.fabric.link_rate);
  const flowsim::FlowSimConfig cfg = harness::flow_sim_config(spec);
  flowsim::FlowSim fs{fabric, cfg};
  for (const auto& f : flows) {
    fs.add_flow(f.id, f.src_host, f.dst_host, f.bytes, f.start, flowsim::RateModel::kTraditional);
  }
  stats::FctRecorder recorder{spec.fabric.link_rate, cfg.rtt};
  fs.run(&recorder);
  return recorder.completed();
}

}  // namespace amrt::golden
