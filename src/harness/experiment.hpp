// The large-scale experiment runner behind Figs. 12/13: a leaf-spine fabric,
// one transport endpoint per host, Poisson workload arrivals, and the
// FCT/utilization/queue metrics the paper reports.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "net/routing.hpp"
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

// The horizon every harness run stops at unless told otherwise.
inline constexpr sim::Duration kDefaultMaxSimTime = sim::Duration::seconds(30);

[[nodiscard]] const char* to_string(Fidelity f);
[[nodiscard]] Fidelity fidelity_from_string(const std::string& name);

struct ExperimentConfig {
  transport::Protocol proto = transport::Protocol::kAmrt;
  workload::Kind workload = workload::Kind::kWebSearch;
  double load = 0.5;          // Fig. 12 x-axis
  std::size_t n_flows = 400;  // Fig. 13 x-axis

  // Traffic engine (DESIGN.md §14). The default — the legacy engine — is
  // byte-identical to the original Poisson generator: same draws, same
  // schedule, same golden fixtures. kSkewed/kFanout open up the
  // pair/arrival/structure axes; kTrace replays engine.trace_path and ignores
  // workload/load/n_flows (the trace carries its own sizes and schedule).
  // Every engine composes with every fidelity and shard count: the schedule
  // is drawn once, from sim::Rng{seed}, before any fabric is built.
  workload::WorkloadSpec engine{};

  // Non-empty: dump the generated schedule (whatever engine produced it) as
  // a flow-trace file right after generation. Replaying that file with the
  // trace engine under the same fabric config reproduces the run's FCT
  // records bit for bit.
  std::string trace_out;

  // Topology. Paper scale is 10/8/40 with 100us links; the default is a
  // scaled-down fabric so the full sweep runs on a laptop (see DESIGN.md).
  int leaves = 4;
  int spines = 4;
  int hosts_per_leaf = 8;
  sim::Bandwidth link_rate = sim::Bandwidth::gbps(10);
  sim::Duration link_delay = sim::Duration::microseconds(10);

  // Mixed transports (DESIGN.md §13): fraction of flows, by id, carried by
  // DCTCP background senders instead of `proto`. 0 = single-transport run
  // (byte-identical to older builds). When set, `proto` must be kAmrt — the
  // mixed fabric pairs AMRT foreground with DCTCP background — the fabric
  // switches to strict-priority queues with both ECN markers, and both ends
  // of every flow dispatch it by is_background_flow(). Composes with shards.
  double background_dctcp_fraction = 0.0;

  core::QueueConfig queues{};
  int homa_overcommit = 2;
  // Zero = per-protocol default (see TransportConfig::default_loss_timeout).
  sim::Duration loss_timeout = sim::Duration::zero();
  net::MultipathMode multipath = net::MultipathMode::kPerFlowEcmp;
  std::uint64_t seed = 1;

  // Partitioned execution: run the fabric across this many shard threads
  // under the conservative window protocol (src/net/partition.hpp). 1 = the
  // classic serial run, bit-identical to older builds. Values > 1 keep the
  // same topology, workload draws and flow schedule (the master shard
  // carries `seed` unchanged) but interleave packet
  // events differently, so FCTs agree statistically rather than exactly.
  // Utilization and max_queue_pkts come from the ports' and queues' own
  // counters in every executor. Mutually exclusive with fault injection.
  unsigned shards = 1;

  // Fault injection (src/fault): number of random bounded incidents (link
  // flaps, blackhole windows, rate dips) drawn against the fabric's switch
  // ports. 0 (the default) runs a pristine fabric — byte-identical to
  // builds without fault injection.
  std::size_t fault_incidents = 0;
  std::uint64_t fault_seed = 1;  // independent of `seed` so schedules can be pinned

  // Hard stop for pathological runs; a run normally ends when its event set
  // drains after the last flow completes.
  sim::Duration max_sim_time = kDefaultMaxSimTime;

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
  // Per-receiver-downlink active-window utilization, in topology order
  // (leaf-major, host-minor); 0 for never-active ports.
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

// The mixed-transport dispatch rule, shared by the harness, the fuzzer and
// the benches: a flow is DCTCP background iff its id falls in the first
// round(fraction*100) residues mod 100. Pure in the id, so the sender and
// receiver ends (and any post-processing) always agree.
[[nodiscard]] bool is_background_flow(net::FlowId id, double fraction);

// Throws std::invalid_argument for a combination the harness cannot run:
// shards x faults, a trace engine without a path, DCTCP background without
// an AMRT foreground, flow/mixed fidelity x shards or faults, mixed fidelity
// x DCTCP background, and a mixed-fidelity background fraction outside
// (0, 1). run_leaf_spine calls it first.
void validate(const ExperimentConfig& cfg);

[[nodiscard]] ExperimentResult run_leaf_spine(const ExperimentConfig& cfg);

}  // namespace amrt::harness
