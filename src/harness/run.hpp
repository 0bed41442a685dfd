// One run object per fidelity over one RunSpec and one pre-drawn schedule
// (DESIGN.md §16). Choosing PacketRun or FlowRun is the fidelity choice, so
// the spec has no fidelity field.
//
//   RunSpec spec;                          // topology as data + transport
//   auto flows = draw_schedule(cfg);       // cfg.run == spec (experiment.hpp)
//   PacketRun run{spec, flows};            // build, endpoints, schedule
//   ... optional hooks: a FaultInjector on run.network(), rate
//       reservations on the ports of run.leaf_spine(), and for a figure's
//       time series PortSamplers on run.sim() and a progress hook on
//       run.serial_recorder() (serial runs)
//   run.run();
//   run.recorder().completed(), run.events(), run.now(), and the port and
//   queue counters of run.network() ...
//
// PacketRun is the only packet-fabric builder: run_experiment in every
// packet mode, the figure scenarios (harness/scenarios.hpp), bench_scale and
// the scenario fuzzer call it. FlowRun is the only fluid-run builder outside
// src/flowsim (DESIGN.md §15): run_experiment at flow fidelity, mixed
// fidelity's fluid background and bench_scale's flow rows call it, with the
// same spec and schedule; run.flowsim() takes hooks before run().
//
// The schedule is drawn before the fabric exists, from a fresh
// sim::Rng{spec.seed}. That is the stream Simulation{seed} would have handed
// the traffic engine after the build, because nothing in net/ or transport/
// draws from Simulation::rng().
//
// PacketRun at spec.shards == 1 runs on the serial scheduler of one
// Simulation; larger counts partition the fabric (leaf-spine by leaf,
// fat-tree by pod) and run under ShardedScenario, with the master shard
// carrying spec.seed. FlowRun is serial and models leaf-spine and fat-tree
// fabrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "flowsim/fabric.hpp"
#include "flowsim/flowsim.hpp"
#include "harness/sharded.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/shard.hpp"
#include "stats/fct.hpp"
#include "transport/config.hpp"
#include "workload/traffic.hpp"

namespace amrt::harness {

// The horizon every harness run stops at unless told otherwise.
inline constexpr sim::Duration kDefaultMaxSimTime = sim::Duration::seconds(30);

// The mixed-transport dispatch rule, shared by the harness, the fuzzer and
// the benches: a flow is DCTCP background iff its id falls in the first
// round(fraction*100) residues mod 100. Pure in the id, so the sender and
// receiver ends (and any post-processing) always agree.
[[nodiscard]] bool is_background_flow(net::FlowId id, double fraction);

enum class Topology : std::uint8_t { kLeafSpine, kLine, kFatTree };

// Topology as data. Only the shape fields of `topology` are read; the link
// and queue fields apply to every shape.
struct FabricSpec {
  Topology topology = Topology::kLeafSpine;
  int leaves = 4, spines = 4, hosts_per_leaf = 8;  // kLeafSpine
  int fat_k = 4;                                   // kFatTree
  int switches = 2;                                // kLine (net::LineConfig)
  std::vector<int> host_switch;                    // kLine: each host's switch
  sim::Bandwidth link_rate = sim::Bandwidth::gbps(10);
  sim::Duration link_delay = sim::Duration::microseconds(10);
  core::QueueConfig queues{};
  net::MultipathMode multipath = net::MultipathMode::kPerFlowEcmp;  // leaf-spine, fat-tree

  // The host count the schedule is drawn against (host indices follow the
  // builders' order: leaf-major, pod-major, host_switch order).
  [[nodiscard]] std::size_t host_count() const;
};

struct RunSpec {
  FabricSpec fabric;
  transport::Protocol proto = transport::Protocol::kAmrt;
  // > 0: AMRT foreground plus DCTCP background senders for this fraction of
  // flows (is_background_flow), on the strict-priority fabric with both ECN
  // markers (DESIGN.md §13).
  double background_dctcp_fraction = 0.0;
  // Every endpoint's settings; host_rate and base_rtt are the fabric's.
  transport::TransportConfig transport{};
  // Per host: false makes it an unresponsive sender (Fig. 14). Empty: every
  // host answers grants.
  std::vector<bool> responsive;
  std::uint64_t seed = 1;
  unsigned shards = 1;
  sim::TimePoint horizon = sim::TimePoint::zero() + kDefaultMaxSimTime;  // max(): drain only
  std::uint64_t event_limit = 0;  // 0 = none
  std::string audit_context;      // sharded runs: repro line for a fail-fast audit abort
};

class PacketRun {
 public:
  PacketRun(const RunSpec& spec, const std::vector<workload::GeneratedFlow>& flows);
  PacketRun(const PacketRun&) = delete;
  PacketRun& operator=(const PacketRun&) = delete;

  // Before run(): what callers hook their own events onto. sim() is the
  // serial run's context (the master shard when sharded).
  [[nodiscard]] sim::Simulation& sim() { return group_.master(); }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] const std::vector<net::Host*>& hosts() const { return hosts_; }
  [[nodiscard]] sim::Duration base_rtt() const { return base_rtt_; }
  // The switch port down to each host, in host order, for every topology.
  [[nodiscard]] const std::vector<net::PortId>& host_downlinks() const { return host_downlinks_; }
  // Port ids of the built fabric: leaf_spine() for kLeafSpine, line() for
  // kLine (each empty for the other topologies).
  [[nodiscard]] const net::LeafSpine& leaf_spine() const { return leaf_spine_; }
  [[nodiscard]] const net::Line& line() const { return line_; }
  [[nodiscard]] bool sharded() const { return sharded_ != nullptr; }

  // Runs to drain, the horizon or the event limit, whichever comes first,
  // and leaves now() at the last fired event in either executor.
  void run();

  // The flow records: live during a serial run, merged across shards after
  // a sharded one.
  [[nodiscard]] const stats::FctRecorder& recorder() const;
  // The serial run's live recorder, for hooks set before run(). Throws on a
  // sharded run, whose records live in per-shard recorders.
  [[nodiscard]] stats::FctRecorder& serial_recorder();
  [[nodiscard]] std::uint64_t events() const { return group_.events_processed(); }
  [[nodiscard]] sim::EventQueue::WheelStats wheel_stats() const { return group_.wheel_stats(); }
  [[nodiscard]] sim::TimePoint now() const { return group_.now_max(); }
  // Sharded runs fold every shard's ledger into the master's.
  [[nodiscard]] audit::Auditor& auditor() { return group_.master().auditor(); }

 private:
  void build(net::Partition& part);

  RunSpec spec_;
  sim::ShardGroup group_;
  // Declared before the network so the endpoints it owns die first.
  std::unique_ptr<stats::FctRecorder> recorder_;  // serial runs
  std::unique_ptr<ShardedScenario> sharded_;      // shards > 1
  net::Network network_;
  std::vector<net::Host*> hosts_;
  std::vector<net::PortId> host_downlinks_;
  sim::Duration base_rtt_ = sim::Duration::zero();
  net::LeafSpine leaf_spine_;
  net::Line line_;
};

// The flow-level engine's settings for spec.fabric: the packet path's base
// RTT over the longest host-to-host path (4 links on a leaf-spine, 6 on a
// fat-tree) as the grant-clock tick, the MSS/MTU goodput derate, the
// store-and-forward pipeline of the last packet as the completion latency,
// and spec.horizon as the stop. Throws std::invalid_argument for kLine.
[[nodiscard]] flowsim::FlowSimConfig flow_sim_config(const RunSpec& spec);

// The packet transport's fluid analogue: AMRT the anti-ECN grant clock,
// DCTCP the threshold-ECN ramp. pHost, Homa and NDP schedule at wire speed
// per grant and re-pace within an RTT of any share change, so theirs is the
// ideal max-min rate.
[[nodiscard]] flowsim::RateModel rate_model(transport::Protocol proto);

class FlowRun {
 public:
  // Every flow runs under rate_model(spec.proto); flows that
  // is_background_flow(id, spec.background_dctcp_fraction) picks out run the
  // DCTCP ramp. Throws std::invalid_argument for kLine or shards > 1.
  FlowRun(const RunSpec& spec, const std::vector<workload::GeneratedFlow>& flows);
  FlowRun(const FlowRun&) = delete;
  FlowRun& operator=(const FlowRun&) = delete;

  // Runs to completion or spec.horizon.
  void run();

  // Before run(): where callers turn on per-link usage recording.
  [[nodiscard]] flowsim::FlowSim& flowsim() { return fsim_; }
  [[nodiscard]] const flowsim::FlowSim& flowsim() const { return fsim_; }
  [[nodiscard]] const flowsim::Fabric& fabric() const { return fabric_; }
  [[nodiscard]] sim::Duration rtt() const { return fsim_.config().rtt; }
  [[nodiscard]] const stats::FctRecorder& recorder() const { return recorder_; }
  [[nodiscard]] const flowsim::FlowSimResult& result() const { return result_; }

 private:
  flowsim::Fabric fabric_;  // before fsim_, which holds a reference to it
  flowsim::FlowSim fsim_;
  stats::FctRecorder recorder_;
  flowsim::FlowSimResult result_;
};

}  // namespace amrt::harness
