// Fidelity dispatch (DESIGN.md §15): the flow-level leaf-spine experiment,
// the fluid half of mixed fidelity, and the flow-level fat-tree run that
// bench_scale uses to measure the fast path's headroom.
//
// Every fidelity replays the exact packet-path workload: the schedule is
// drawn once from a fresh sim::Rng{seed} (DESIGN.md §16), so the fidelities
// see the same flows, sizes and start times draw for draw.
#pragma once

#include <cstdint>
#include <vector>

#include "flowsim/fabric.hpp"
#include "flowsim/flowsim.hpp"
#include "harness/experiment.hpp"

namespace amrt::harness {

class PacketRun;

// The packet transport's fluid analogue: kAmrt -> the anti-ECN grant-clock
// ramp, kDctcp -> threshold-ECN additive increase, everything else (phost /
// homa / ndp schedule at wire speed per grant) -> instant max-min.
[[nodiscard]] flowsim::RateModel rate_model_for(transport::Protocol proto);

// Flow-level fat-tree run for bench_scale --fidelity=flow: the same
// websearch schedule bench_scale's packet rows draw for `seed`, every flow
// under `model` (rate_model_for(proto) for a transport's fluid analogue).
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

// The per-flow half of a result, shared by every fidelity: FCT summaries,
// records and byte count from `recorder`, flows_started = `scheduled` (so
// flows the horizon cut off before they started count as incomplete), and
// the AMRT/DCTCP foreground/background split by background_fraction.
void fill_records(const stats::FctRecorder& recorder, std::size_t scheduled,
                  double background_fraction, ExperimentResult& out);

// Flow-level leaf-spine run over the drawn schedule. Honors proto (via
// rate_model_for), topology shape, background_dctcp_fraction (background
// flows get the DCTCP rate model) and max_sim_time.
[[nodiscard]] ExperimentResult run_leaf_spine_flow(const ExperimentConfig& cfg,
                                                   const std::vector<workload::GeneratedFlow>& flows);

// Mixed fidelity's fluid half. The constructor runs the flows tagged
// background by is_background_flow(id, cfg.flow_background_fraction) at flow
// level, recording binned per-link usage, and leaves only the foreground in
// `flows`. reserve() replays that usage as scheduled serialization-rate
// reservations (EgressPort::set_rate_scale) on the packet fabric that
// carries the foreground; merge_into() folds the fluid records into the
// packet result (fct_foreground/fct_background report the two sides,
// fct_all the merge).
class FluidBackground {
 public:
  FluidBackground(const ExperimentConfig& cfg, std::vector<workload::GeneratedFlow>& flows);
  FluidBackground(const FluidBackground&) = delete;
  FluidBackground& operator=(const FluidBackground&) = delete;

  void reserve(PacketRun& run) const;
  void merge_into(ExperimentResult& out) const;

 private:
  const ExperimentConfig& cfg_;
  flowsim::Fabric fabric_;
  flowsim::FlowSimConfig fscfg_;
  sim::Duration bin_;
  flowsim::FlowSim fsim_;
  stats::FctRecorder recorder_;
  flowsim::FlowSimResult result_;
  std::size_t flows_ = 0;
};

}  // namespace detail

}  // namespace amrt::harness
