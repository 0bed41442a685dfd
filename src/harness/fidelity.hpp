// Fidelity dispatch (DESIGN.md §15): the flow-level and mixed-fidelity
// variants of the leaf-spine experiment, plus the flow-level fat-tree run
// that bench_scale uses to measure the fast path's headroom.
//
// Both variants replay the exact packet-path workload: flow generation draws
// from a fresh sim::Rng{cfg.seed}, which is the same stream the packet
// simulator's own Simulation{seed} feeds to the traffic engine, so the two
// fidelities see the same flows, sizes and start times draw for draw.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "flowsim/flowsim.hpp"
#include "harness/experiment.hpp"
#include "net/topology.hpp"

namespace amrt::harness {

// Flow-level leaf-spine run. Honors proto (via rate_model_for),
// engine/workload/load/n_flows, topology shape, background_dctcp_fraction
// (background flows get the DCTCP rate model) and seed. Serial-only;
// throws on shards > 1 or fault injection.
[[nodiscard]] ExperimentResult run_leaf_spine_flow(const ExperimentConfig& cfg);

// Mixed fidelity: flows tagged background by
// is_background_flow(id, cfg.flow_background_fraction) run at flow level
// first; their binned per-link usage becomes scheduled rate reservations
// (EgressPort::set_rate_scale) on the packet fabric, which then carries the
// foreground flows. fct_foreground/fct_background report the two sides;
// fct_all merges the records.
[[nodiscard]] ExperimentResult run_leaf_spine_mixed(const ExperimentConfig& cfg);

// The packet transport's fluid analogue: kAmrt -> the anti-ECN grant-clock
// ramp, kDctcp -> threshold-ECN additive increase, everything else (phost /
// homa / ndp schedule at wire speed per grant) -> instant max-min.
[[nodiscard]] flowsim::RateModel rate_model_for(transport::Protocol proto);

// Flow-level fat-tree run for bench_scale --fidelity=flow: same websearch
// workload and seed stream as bench_scale's packet run_one, every flow under
// `model` (rate_model_for(proto) for a transport's fluid analogue).
struct FlowFatTreeResult {
  std::uint64_t events = 0;
  std::uint64_t recomputes = 0;
  std::uint64_t flows_refilled = 0;
  std::uint64_t delivered_bytes = 0;
  std::size_t flows = 0;
  std::size_t completed = 0;
  double sim_seconds = 0.0;
  std::vector<stats::FlowRecord> records;  // completed flows, in completion order
};
[[nodiscard]] FlowFatTreeResult run_fat_tree_flow(int k, flowsim::RateModel model,
                                                  std::size_t n_flows, double load,
                                                  std::uint64_t seed);

namespace detail {

// A scheduled capacity reservation on one packet-fabric port (mixed mode).
struct RateScaleEvent {
  sim::TimePoint at{};
  net::PortId port{};
  double scale = 1.0;
};

// Optional knobs for the serial packet path. A null/empty overrides object
// leaves the run byte-identical to the historical serial path.
struct SerialOverrides {
  // Pre-generated schedule to run instead of invoking the traffic engine
  // (the caller has already drawn it from the seed stream).
  const std::vector<workload::GeneratedFlow>* flows = nullptr;
  // Called once after the fabric is built (port ids only exist then); the
  // returned events are scheduled before the clock starts.
  std::function<std::vector<RateScaleEvent>(const net::LeafSpine&)> rate_scale;
};

[[nodiscard]] ExperimentResult run_leaf_spine_serial(const ExperimentConfig& cfg,
                                                     const SerialOverrides* overrides);

// Shared generation step (traffic engine + optional trace dump + group
// registration), used by every fidelity.
std::vector<workload::GeneratedFlow> generate_flows(const ExperimentConfig& cfg,
                                                    std::size_t n_hosts, sim::Rng& rng,
                                                    stats::GroupBook& book);

}  // namespace detail

}  // namespace amrt::harness
