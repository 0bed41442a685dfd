// Flow-level view of the canonical topologies (DESIGN.md §15).
//
// The packet simulator models a fabric as ports, queues and routing tables;
// the flow-level mode only needs the part of that structure that shapes
// steady-state bandwidth sharing: which directed link capacities a flow's
// bytes cross. A Fabric is therefore just a table of link capacities plus a
// deterministic path resolver mirroring the leaf-spine / fat-tree wiring of
// net/topology.hpp — same shapes, same per-flow ECMP choice (util::ecmp_pick,
// tier 0 at the leaf/edge uplink and tier 1 at the fat-tree agg uplink, as
// the packet fabric's routing tables pick), no per-packet state. A flow
// therefore crosses the same links at both fidelities.
//
// Link ids are stable and topology-ordered so the mixed-fidelity runner can
// map them onto the packet fabric's global PortIds (harness/experiment.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace amrt::flowsim {

using LinkId = std::uint32_t;

class Fabric {
 public:
  enum class Kind : std::uint8_t { kLeafSpine, kFatTree };

  // Section 8.1 leaf-spine: every link at `link_rate`, ECMP across spines.
  [[nodiscard]] static Fabric leaf_spine(int leaves, int spines, int hosts_per_leaf,
                                         sim::Bandwidth link_rate);
  // Three-tier fat-tree (net/topology.hpp semantics): k pods, k^3/4 hosts.
  [[nodiscard]] static Fabric fat_tree(int k, sim::Bandwidth link_rate);

  [[nodiscard]] std::size_t n_hosts() const { return n_hosts_; }
  [[nodiscard]] std::size_t link_count() const { return capacity_bps_.size(); }
  [[nodiscard]] double capacity_bps(LinkId l) const { return capacity_bps_[l]; }
  [[nodiscard]] Kind kind() const { return kind_; }

  // Overrides one link's capacity (a degraded link, a thinner tier). Set it
  // before a FlowSim over this fabric runs.
  void set_capacity_bps(LinkId l, double bps);

  // Appends the directed links flow `id` crosses from `src` to `dst` (host
  // indices in topology order). The multipath choice is a pure function of
  // the flow id, so repeated resolution — and the mixed-fidelity replay of
  // the same schedule — always picks the same path.
  void path(std::uint64_t flow_id, std::size_t src, std::size_t dst,
            std::vector<LinkId>& out) const;

  // --- link naming (leaf-spine), for monitors and the port mapping --------
  [[nodiscard]] LinkId host_up(std::size_t host) const { return static_cast<LinkId>(host); }
  [[nodiscard]] LinkId host_down(std::size_t host) const {
    return static_cast<LinkId>(n_hosts_ + host);
  }
  // Leaf-spine fabric tiers; invalid for fat-tree fabrics.
  [[nodiscard]] LinkId leaf_up(int leaf, int spine) const;
  [[nodiscard]] LinkId spine_down(int spine, int leaf) const;

  [[nodiscard]] int leaves() const { return leaves_; }
  [[nodiscard]] int spines() const { return spines_; }
  [[nodiscard]] int hosts_per_leaf() const { return hosts_per_leaf_; }
  [[nodiscard]] int k() const { return k_; }

 private:
  Kind kind_ = Kind::kLeafSpine;
  std::size_t n_hosts_ = 0;
  std::vector<double> capacity_bps_;
  // Leaf-spine shape.
  int leaves_ = 0;
  int spines_ = 0;
  int hosts_per_leaf_ = 0;
  // Fat-tree shape.
  int k_ = 0;

  // Fat-tree link-id block offsets (computed once in the builder).
  std::uint32_t ft_edge_up_base_ = 0;
  std::uint32_t ft_agg_up_base_ = 0;
  std::uint32_t ft_agg_down_base_ = 0;
  std::uint32_t ft_core_down_base_ = 0;
};

}  // namespace amrt::flowsim
