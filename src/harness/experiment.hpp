// The large-scale experiment runner behind Figs. 12/13: a fabric described
// by a RunSpec (leaf-spine by default, fat-tree too), one transport endpoint
// per host, Poisson workload arrivals, and the FCT/utilization/queue metrics
// the paper reports.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/run.hpp"
#include "stats/fct.hpp"
#include "stats/group.hpp"
#include "workload/traffic.hpp"
#include "workload/workloads.hpp"

namespace amrt::harness {

// Simulation fidelity (DESIGN.md §15).
//   kPacket — the per-packet event simulator (the default; byte-identical to
//             builds that predate the fidelity axis).
//   kFlow   — the flow-level fast path (src/flowsim): fluid max-min rates
//             with AMRT/DCTCP-aware ramps, orders of magnitude fewer events.
//   kMixed  — background flows fluid, foreground flows packet-level; the
//             fluid side's per-link usage is replayed onto the packet fabric
//             as scheduled rate reservations.
enum class Fidelity : std::uint8_t { kPacket, kFlow, kMixed };

[[nodiscard]] const char* to_string(Fidelity f);
[[nodiscard]] Fidelity fidelity_from_string(const std::string& name);

// One experiment: the run (fabric, transport, seed, shards, horizon) plus
// what a RunSpec does not say: the schedule to draw, the faults to inject
// and the fidelity to run it at. Every topology that PacketRun builds runs
// through run_experiment; mixed fidelity alone is leaf-spine only (validate).
struct ExperimentConfig {
  // Paper scale is a 10/8/40 leaf-spine with 100us links; RunSpec's default
  // is a scaled-down 4/4/8 with 10us links, so the full sweep runs on a
  // laptop (see DESIGN.md). run.horizon is the hard stop for pathological
  // runs; a run normally ends when its event set drains after the last flow
  // completes.
  RunSpec run;

  workload::Kind workload = workload::Kind::kWebSearch;
  double load = 0.5;          // Fig. 12 x-axis
  std::size_t n_flows = 400;  // Fig. 13 x-axis

  // Traffic engine (DESIGN.md §14). The default — the legacy engine — is
  // byte-identical to the original Poisson generator: same draws, same
  // schedule, same golden fixtures. kSkewed/kFanout open up the
  // pair/arrival/structure axes; kTrace replays engine.trace_path and ignores
  // workload/load/n_flows (the trace carries its own sizes and schedule).
  // Every engine composes with every fidelity and shard count: the schedule
  // is drawn once, from sim::Rng{run.seed}, before any fabric is built.
  workload::WorkloadSpec engine{};

  // Non-empty: dump the generated schedule (whatever engine produced it) as
  // a flow-trace file right after generation. Replaying that file with the
  // trace engine under the same fabric config reproduces the run's FCT
  // records bit for bit.
  std::string trace_out;

  // Fault injection (src/fault): number of random bounded incidents (link
  // flaps, blackhole windows, rate dips) drawn against the fabric's switch
  // ports (fault::switch_ports). 0 (the default) runs a pristine fabric —
  // byte-identical to builds without fault injection. Serial packet runs
  // only.
  std::size_t fault_incidents = 0;
  std::uint64_t fault_seed = 1;  // independent of run.seed so schedules can be pinned

  // Simulation fidelity. kFlow and kMixed are serial-only and exclusive
  // with fault injection; kPacket composes with everything as before.
  Fidelity fidelity = Fidelity::kPacket;
  // kMixed only: fraction of flows (by id, is_background_flow) simulated at
  // flow level; the rest run packet-level against the fluid side's
  // per-link bandwidth reservations.
  double flow_background_fraction = 0.5;
};

struct ExperimentResult {
  stats::FctSummary fct_all;
  stats::FctSummary fct_small;  // flows < 100KB
  stats::FctSummary fct_large;  // flows >= 1MB
  // Mixed runs: AMRT foreground vs DCTCP background split of fct_all, and
  // mixed fidelity's packet vs fluid split (computed from the flow records).
  // Single-transport runs put everything in fct_foreground.
  stats::FctSummary fct_foreground;
  stats::FctSummary fct_background;
  double mean_utilization = 0;  // byte-weighted over active receiver downlinks
  // Per-receiver-downlink active-window utilization, in host order
  // (PacketRun::host_downlinks); 0 for never-active ports.
  std::vector<double> downlink_utilization;
  std::size_t max_queue_pkts = 0;
  std::uint64_t drops = 0;  // across all switch ports
  std::uint64_t trims = 0;
  std::uint64_t faulted = 0;  // packets eaten by injected faults
  std::uint64_t bytes_delivered = 0;
  std::uint64_t events = 0;
  double sim_seconds = 0;
  double wall_seconds = 0;
  std::size_t flows_started = 0;
  std::size_t flows_completed = 0;
  // Per-flow completion records (size, start, end, group/request membership),
  // for CSV export and custom post-processing.
  std::vector<stats::FlowRecord> flow_records;
  // Collective completion times (stats/group.hpp): coflow groups and fan-out
  // requests. All-zero when the workload emitted no grouped flows.
  stats::GroupStats group_stats;
  stats::GroupStats request_stats;
};

// Dumps `flow_records` as CSV: flow,bytes,start_us,end_us,fct_us,group_id,
// request_id — the last two empty for ungrouped flows, so pre-engine
// consumers that split on ',' still find their columns where they were.
void write_fct_csv(std::ostream& os, const std::vector<stats::FlowRecord>& records);

// Throws std::invalid_argument for an experiment the harness cannot run: a
// fabric shape with fewer than two hosts or a non-positive dimension, link
// rate or load, shards x faults, a trace engine without a path, DCTCP
// background without an AMRT foreground, flow/mixed fidelity x shards or faults, flow
// fidelity on a line fabric, mixed fidelity on anything but a leaf-spine or x
// DCTCP background, and a mixed-fidelity background fraction outside (0, 1).
// run_experiment calls it first.
void validate(const ExperimentConfig& cfg);

// The experiment's schedule, drawn once for every fidelity and shard count
// from a fresh sim::Rng{cfg.run.seed} against cfg.run.fabric's hosts, and
// dumped as a replayable trace when cfg.trace_out is set. A default config
// with `run`, `n_flows` and `load` set draws the legacy-engine web-search
// schedule.
[[nodiscard]] std::vector<workload::GeneratedFlow> draw_schedule(const ExperimentConfig& cfg);

// Draws the schedule and runs it at cfg.fidelity on cfg.run's fabric: serial
// or sharded, with or without faults and DCTCP background, at packet, flow
// or mixed fidelity.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& cfg);

}  // namespace amrt::harness
