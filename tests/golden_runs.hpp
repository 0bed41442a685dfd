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

// tests/golden_fct.inc and the run_leaf_spine pins: WebSearch, load 0.6,
// 80 flows on a 2x2x4 leaf-spine, seed 42.
inline harness::ExperimentConfig golden_cfg(transport::Protocol proto) {
  harness::ExperimentConfig cfg;
  cfg.proto = proto;
  cfg.workload = workload::Kind::kWebSearch;
  cfg.load = 0.6;
  cfg.n_flows = 80;
  cfg.leaves = 2;
  cfg.spines = 2;
  cfg.hosts_per_leaf = 4;
  cfg.seed = 42;
  return cfg;
}

// kGoldenFlowLeafSpine: 200 flows, 8 hosts per leaf behind a single spine
// (8:1 oversubscribed uplinks, so bottleneck ties are common), AMRT
// foreground with a quarter of the flows on the DCTCP ramp.
inline harness::ExperimentConfig flow_golden_cfg() {
  harness::ExperimentConfig cfg = golden_cfg(transport::Protocol::kAmrt);
  cfg.fidelity = harness::Fidelity::kFlow;
  cfg.background_dctcp_fraction = 0.25;
  cfg.n_flows = 200;
  cfg.leaves = 4;
  cfg.spines = 1;
  cfg.hosts_per_leaf = 8;
  return cfg;
}

// The fat-tree flow goldens' fabric: k-ary with the stock 100us links, seed 42.
inline harness::RunSpec fat_tree_spec(int k) {
  harness::RunSpec spec;
  spec.fabric.topology = harness::Topology::kFatTree;
  spec.fabric.fat_k = k;
  spec.fabric.link_delay = sim::Duration::microseconds(100);
  spec.seed = 42;
  return spec;
}

// kGoldenFlowFatTree*: WebSearch at `load` on fat_tree_spec(k), on a FlowRun
// under `proto`. kTraditional has no transport: without one, the engine runs
// directly on FlowRun's settings with every flow under it.
inline std::vector<stats::FlowRecord> fat_tree_records(int k,
                                                       std::optional<transport::Protocol> proto,
                                                       std::size_t n_flows, double load) {
  harness::RunSpec spec = fat_tree_spec(k);
  const auto flows = harness::draw_websearch(spec, n_flows, load);
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
