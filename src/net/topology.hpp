// Canonical topologies over the pooled network core.
//
// Builders wire ports, cabling and routing tables on a `net::Network`
// (net/network.hpp). The leaf-spine fabric (Section 8.1's evaluation
// topology) and the three-tier fat-tree used by the scale-out benchmarks
// live here, with the line of switches behind the small fabrics of the
// motivation/testbed figures and the scenario fuzzer.
//
// The result structs hand out Host*/Switch* for convenience. Those pointers
// are resolved after all pools stop growing, so they are stable — but only
// as long as nothing else is added to the same Network afterwards (see the
// invalidation rules in net/network.hpp).
#pragma once

#include <vector>

#include "net/marker.hpp"
#include "net/network.hpp"
#include "net/queue.hpp"

namespace amrt::net {

// Section 8.1 fabric: `leaves` ToR switches, `spines` core switches,
// `hosts_per_leaf` hosts per ToR, every link at `link_rate` with
// `link_delay` propagation, ECMP across all spines.
struct LeafSpineConfig {
  int leaves = 10;
  int spines = 8;
  int hosts_per_leaf = 40;
  sim::Bandwidth link_rate = sim::Bandwidth::gbps(10);
  sim::Duration link_delay = sim::Duration::microseconds(100);
  QueueFactory queue_factory;           // discipline per port (per protocol) and NIC
  MarkerFactory marker_factory;         // optional; applied to switch egress ports
  MultipathMode multipath = MultipathMode::kPerFlowEcmp;
};

struct LeafSpine {
  std::vector<Host*> hosts;          // leaf-major order: hosts[l * hosts_per_leaf + h]
  std::vector<Switch*> leaves;
  std::vector<Switch*> spines;
  // Global port-pool slots for monitoring: net.port_at(...).
  std::vector<std::vector<PortId>> leaf_down;   // leaf_down[l][h]: leaf l -> its h-th host
  std::vector<std::vector<PortId>> leaf_up;     // leaf_up[l][s]:   leaf l -> spine s
  std::vector<std::vector<PortId>> spine_down;  // spine_down[s][l]: spine s -> leaf l

  // The base one-way path: host->leaf(->spine->leaf)->host has 4 links; the
  // minimum RTT (no queueing, MTU-sized data + 64B grant) is derived by the
  // builder and used by transports for BDP and timeout settings.
  sim::Duration base_rtt = sim::Duration::zero();
};

[[nodiscard]] LeafSpine build_leaf_spine(Network& net, const LeafSpineConfig& cfg);

// Three-tier fat-tree (Al-Fares et al.): `k` pods of k/2 edge and k/2
// aggregation switches, (k/2)^2 cores, k/2 hosts per edge — k^3/4 hosts
// total (k=16 -> 1024 hosts, 320 switches). Aggregation switch `a` of every
// pod uplinks to core group [a*(k/2), (a+1)*(k/2)); ECMP sprays upward at
// both the edge and aggregation tiers (util::ecmp_pick tiers 0 and 1, as
// flowsim::Fabric picks). `k` must be even and >= 2.
struct FatTreeConfig {
  int k = 4;
  sim::Bandwidth link_rate = sim::Bandwidth::gbps(10);
  sim::Duration link_delay = sim::Duration::microseconds(100);
  QueueFactory queue_factory;           // discipline per port (per protocol) and NIC
  MarkerFactory marker_factory;         // optional; applied to switch egress ports
  MultipathMode multipath = MultipathMode::kPerFlowEcmp;
};

struct FatTree {
  int k = 0;
  std::vector<Host*> hosts;     // pod-major: hosts[(p*(k/2) + e)*(k/2) + h]
  std::vector<Switch*> edges;   // pod-major: edges[p*(k/2) + e]
  std::vector<Switch*> aggs;    // pod-major: aggs[p*(k/2) + a]
  std::vector<Switch*> cores;   // group-major: cores[a*(k/2) + j]
  // Global port-pool slots, indexed by the flat switch index above.
  std::vector<std::vector<PortId>> edge_down;  // edge_down[e][h]: edge -> its h-th host
  std::vector<std::vector<PortId>> edge_up;    // edge_up[e][a]:   edge -> pod agg a
  std::vector<std::vector<PortId>> agg_down;   // agg_down[a][e]:  agg -> pod edge e
  std::vector<std::vector<PortId>> agg_up;     // agg_up[a][j]:    agg -> its j-th core
  std::vector<std::vector<PortId>> core_down;  // core_down[c][p]: core -> pod p

  [[nodiscard]] std::size_t host_count() const { return hosts.size(); }

  // Worst-case (inter-pod) path: host->edge->agg->core->agg->edge->host is
  // 6 links; transports size BDP and timeouts from this.
  sim::Duration base_rtt = sim::Duration::zero();
};

[[nodiscard]] FatTree build_fat_tree(Network& net, const FatTreeConfig& cfg);

// Switches in a line: switch i cabled to i+1, every switch routing along the
// line. `host_switch[h]` is the switch index of host h; hosts are created in
// that list order (NodeIds, and so each NIC's jitter seed, follow it), so
// one builder covers the dumbbell ({0…0, 1…1}), the uniform chain
// (switch-major), interleaved pairs ({0,1,0,1,…}) and the single-switch
// star. base_rtt is the longest host-to-host path, switches + 1 links.
struct LineConfig {
  int switches = 2;
  std::vector<int> host_switch;
  sim::Bandwidth link_rate = sim::Bandwidth::gbps(10);
  sim::Duration link_delay = sim::Duration::microseconds(10);
  QueueFactory queue_factory;
  MarkerFactory marker_factory;  // optional; applied to switch egress ports
};

struct Line {
  std::vector<Host*> hosts;      // host_switch order
  std::vector<PortId> right;     // right[i]: switch i -> switch i+1
  std::vector<PortId> host_down; // host_down[h]: the switch port down to host h
  sim::Duration base_rtt = sim::Duration::zero();
};

[[nodiscard]] Line build_line(Network& net, const LineConfig& cfg);

// Minimum RTT over an `hops`-link one-way path at `rate`: a full data packet
// out, a control packet back, plus propagation both ways. Store-and-forward
// re-serializes at every hop.
[[nodiscard]] sim::Duration path_base_rtt(int hops, sim::Bandwidth rate, sim::Duration link_delay);

}  // namespace amrt::net
