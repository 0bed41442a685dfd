// One packet-level run: the single place that builds a fabric, attaches one
// transport endpoint per host and schedules a pre-drawn flow schedule.
// run_leaf_spine (serial, sharded, faulted, mixed-transport and the packet
// half of mixed fidelity), bench_scale and the scenario fuzzer are all
// callers of this object (DESIGN.md §16).
//
//   RunSpec spec;                          // topology as data + transport
//   sim::Rng rng{spec.seed};               // the run's stream, drawn first
//   auto flows = workload::generate_traffic(..., rng);
//   PacketRun run{spec, flows};            // build, endpoints, schedule
//   ... optional hooks: PortSamplers on run.sim(), a FaultInjector on
//       run.network(), rate reservations on the ports of run.leaf_spine()
//   run.run();
//   run.recorder().completed(), run.events(), run.network() ...
//
// The schedule is drawn before the fabric exists, from a fresh
// sim::Rng{spec.seed}. That is the stream Simulation{seed} would have handed
// the traffic engine after the build, because nothing in net/ or transport/
// draws from Simulation::rng().
//
// spec.shards == 1 runs on the serial scheduler of one Simulation; larger
// counts partition the fabric (leaf-spine by leaf, fat-tree by pod) and run
// under ShardedScenario, with the master shard carrying spec.seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "harness/experiment.hpp"
#include "harness/sharded.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/shard.hpp"
#include "stats/fct.hpp"
#include "transport/config.hpp"
#include "workload/traffic.hpp"

namespace amrt::harness {

enum class Topology : std::uint8_t { kLeafSpine, kDumbbell, kChain, kFatTree };

// Topology as data. Only the shape fields of `topology` are read; the link
// and queue fields apply to every shape.
struct FabricSpec {
  Topology topology = Topology::kLeafSpine;
  int leaves = 4, spines = 4, hosts_per_leaf = 8;  // kLeafSpine
  int fat_k = 4;                                   // kFatTree
  int left_hosts = 2, right_hosts = 2;             // kDumbbell
  int chain_switches = 2, hosts_per_switch = 1;    // kChain
  sim::Bandwidth link_rate = sim::Bandwidth::gbps(10);
  sim::Duration link_delay = sim::Duration::microseconds(10);
  core::QueueConfig queues{};
  net::MultipathMode multipath = net::MultipathMode::kPerFlowEcmp;  // leaf-spine, fat-tree

  // The host count the schedule is drawn against (host indices follow the
  // builders' order: leaf-major, pod-major, left to right).
  [[nodiscard]] std::size_t host_count() const;
};

struct RunSpec {
  FabricSpec fabric;
  transport::Protocol proto = transport::Protocol::kAmrt;
  // > 0: AMRT foreground plus DCTCP background senders for this fraction of
  // flows (is_background_flow), on the strict-priority fabric with both ECN
  // markers (DESIGN.md §13).
  double background_dctcp_fraction = 0.0;
  int homa_overcommit = 2;
  sim::Duration loss_timeout = sim::Duration::zero();  // zero: per-protocol default
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
  // Port ids of a leaf-spine fabric (empty for the other topologies).
  [[nodiscard]] const net::LeafSpine& leaf_spine() const { return leaf_spine_; }
  [[nodiscard]] bool sharded() const { return sharded_ != nullptr; }

  // Runs to drain, the horizon or the event limit, whichever comes first.
  void run();

  // The flow records: live during a serial run, merged across shards after
  // a sharded one.
  [[nodiscard]] const stats::FctRecorder& recorder() const;
  [[nodiscard]] std::uint64_t events() const { return group_.events_processed(); }
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
  sim::Duration base_rtt_ = sim::Duration::zero();
  net::LeafSpine leaf_spine_;
};

}  // namespace amrt::harness
