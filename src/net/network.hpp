// The pooled network core.
//
// `Network` owns every simulation object of the data plane in four
// contiguous pools:
//
//   hosts_     std::vector<Host>        — end hosts, by value
//   switches_  std::vector<Switch>      — switches, by value
//   ports_     std::vector<EgressPort>  — every egress port (host NICs and
//                                         switch ports alike), by value
//   queues_    std::deque<EgressQueue>  — one queue per port slot, by
//                                         value; owned here, never by the
//                                         port, at addresses that stay put
//                                         as the pool grows
//
// Addressing is index-based throughout: a NodeId is a dense index into the
// directory (`dir_`), which maps it to a {kind, pool slot} pair, so packet
// delivery is two indexed loads and a direct (devirtualized) call — no hash
// map, no `at()` bounds checks, no pointer-chasing through unique_ptr cells.
// HostId/SwitchId/PortId (net/node.hpp) are plain pool indices; routing
// tables store global PortIds and AMRT's markers ride inside the pooled
// ports themselves. Names are gone from the object model: `label(NodeId)`
// derives a debug label ("h3", "sw1") on demand.
//
// Invalidation rules (the price of contiguity):
//   * Handles (HostId/SwitchId/PortId/NodeId) are never invalidated.
//   * References and pointers obtained from host()/switch_at()/port_at()
//     are invalidated by any add_host/add_switch/add_switch_port/
//     attach_host call that grows the same pool. Builders therefore carry
//     handles and resolve references only after wiring is complete.
//   * The pools must be frozen before traffic flows: in-flight packets and
//     port wakeups capture port addresses, so growing a pool mid-run is
//     undefined. Build first, then run.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "net/host.hpp"
#include "net/queue.hpp"
#include "net/switch.hpp"
#include "sim/simulation.hpp"

namespace amrt::net {

class Network {
 public:
  explicit Network(sim::Simulation& sim) : sim_{sim}, sched_{sim.scheduler()} {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Creates a host whose NIC transmits at `rate` with `delay` to its switch.
  HostId add_host(sim::Bandwidth rate, sim::Duration delay, EgressQueue nic_queue);
  SwitchId add_switch();

  // Adds an egress port on `from` toward `to` (one direction of a cable).
  // Optionally installs a dequeue marker (AMRT's anti-ECN marker). Returns
  // the new port's global pool slot — exactly what routing tables store.
  PortId add_switch_port(SwitchId from, NodeId to, sim::Bandwidth rate, sim::Duration delay,
                         EgressQueue queue, std::unique_ptr<DequeueMarker> marker = nullptr);

  // Connects a host's NIC to a switch and the switch back to the host.
  // Returns the switch-side downlink's global port slot.
  PortId attach_host(HostId host, SwitchId sw, EgressQueue down_queue,
                     std::unique_ptr<DequeueMarker> down_marker = nullptr);

  // --- pool access (O(1), unchecked on the hot path) ----------------------
  [[nodiscard]] Host& host(HostId h) { return hosts_[h.slot]; }
  [[nodiscard]] const Host& host(HostId h) const { return hosts_[h.slot]; }
  [[nodiscard]] Host& host(std::size_t i) { return hosts_[i]; }
  [[nodiscard]] Switch& switch_at(SwitchId s) { return switches_[s.slot]; }
  [[nodiscard]] const Switch& switch_at(SwitchId s) const { return switches_[s.slot]; }
  [[nodiscard]] EgressPort& port_at(PortId p) { return ports_[static_cast<std::size_t>(p)]; }
  [[nodiscard]] const EgressPort& port_at(PortId p) const {
    return ports_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] std::vector<Host>& hosts() { return hosts_; }
  [[nodiscard]] const std::vector<Host>& hosts() const { return hosts_; }
  [[nodiscard]] std::vector<Switch>& switches() { return switches_; }
  [[nodiscard]] const std::vector<Switch>& switches() const { return switches_; }
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] std::size_t switch_count() const { return switches_.size(); }
  [[nodiscard]] std::size_t port_count() const { return ports_.size(); }

  [[nodiscard]] NodeId id_of(HostId h) const { return hosts_[h.slot].id(); }
  [[nodiscard]] NodeId id_of(SwitchId s) const { return switches_[s.slot].id(); }

  // Reserves pool capacity up front (builders that know their shape call
  // this so wiring never reallocates).
  void reserve(std::size_t n_hosts, std::size_t n_switches, std::size_t n_ports);

  // Packet delivery off the wire: directory lookup, then a direct call into
  // the final Host/Switch handler (no virtual dispatch).
  void deliver(NodeId to, Packet&& pkt, int ingress_port) {
    const NodeRef ref = dir_[to.value];
    if (ref.kind == NodeKind::kHost) {
      hosts_[ref.slot].handle_packet(std::move(pkt), ingress_port);
    } else {
      switches_[ref.slot].handle_packet(std::move(pkt), ingress_port);
    }
  }

  // --- fault control (src/fault's FaultInjector drives these) -------------
  // Takes a link down/up: updates the port (down flushes its queue as
  // faulted drops), and bumps the link-state epoch so every routing table
  // recomputes its ECMP alive view. Idempotent per state.
  void set_link_up(PortId p, bool up);
  // Degrades (scale < 1) or restores (scale = 1) a port's line rate.
  void set_port_rate_scale(PortId p, double scale) { port_at(p).set_rate_scale(scale); }
  // Arms probabilistic blackholing at a port (covers control packets too).
  void set_port_drop_prob(PortId p, double prob, std::uint64_t seed) {
    port_at(p).set_drop_prob(prob, seed);
  }
  [[nodiscard]] const LinkState& link_state() const { return link_state_; }
  // Sum of every port's fault-consumed packets (flushed + refused + blackholed).
  [[nodiscard]] std::uint64_t packets_faulted() const;

  // Debug label for diagnostics ("h3" for host slot 3, "sw1" for switch
  // slot 1). Derived on demand; the pools store no strings.
  [[nodiscard]] std::string label(NodeId id) const;

  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }

 private:
  struct NodeRef {
    NodeKind kind = NodeKind::kHost;
    std::uint32_t slot = 0;
  };

  [[nodiscard]] NodeId next_id() { return NodeId{next_id_++}; }
  // Installs `queue` in the queue pool and a port over it in the port pool.
  PortId new_port(EgressPort::Config cfg, EgressQueue queue);

  sim::Simulation& sim_;
  sim::Scheduler& sched_;
  std::vector<Host> hosts_;
  std::vector<Switch> switches_;
  std::vector<EgressPort> ports_;
  std::deque<EgressQueue> queues_;  // slot-parallel to ports_
  std::vector<NodeRef> dir_;        // indexed by NodeId.value
  LinkState link_state_;
  std::uint32_t next_id_ = 0;
};

// --- inline hot paths (need the complete Network) ---------------------------

inline void Host::send(Packet&& pkt) {
#ifdef AMRT_AUDIT
  if (auto* a = sched_->auditor()) {
    pkt.audit_ce_expected = pkt.ce;
    a->on_inject(audit::info_of(pkt));
  }
#endif
  net_->port_at(nic_).enqueue(std::move(pkt));
}

inline EgressPort& Host::nic() { return net_->port_at(nic_); }
inline const EgressPort& Host::nic() const { return net_->port_at(nic_); }
inline sim::Bandwidth Host::link_rate() const { return nic().config().rate; }

inline EgressPort& Switch::port(int idx) { return net_->port_at(port_id(idx)); }
inline const EgressPort& Switch::port(int idx) const { return net_->port_at(port_id(idx)); }

inline void Switch::handle_packet(Packet&& pkt, int /*ingress_port*/) {
  const PortId out = routes_.select(pkt);
  net_->port_at(out).enqueue(std::move(pkt));
}

}  // namespace amrt::net
