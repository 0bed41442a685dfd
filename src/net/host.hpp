// End host: a single NIC egress port plus a transport attachment point.
//
// The host owns its transport endpoint through the PacketSink interface so
// the network layer never depends on the transport layer's types. The host
// itself lives by value in Network's host pool and addresses its NIC as a
// slot in the network-wide port pool; the hot accessors (send/nic) are
// defined inline in net/network.hpp once Network is complete.
#pragma once

#include <memory>

#include "audit/hooks.hpp"
#include "net/node.hpp"
#include "net/port.hpp"
#include "sim/scheduler.hpp"

namespace amrt::net {

class Network;

class Host final : public Node {
 public:
  Host(sim::Scheduler& sched, Network& net, NodeId id, PortId nic);

  // Installs the transport stack; the host takes ownership.
  void attach(std::unique_ptr<PacketSink> sink);

  // Transmits via the NIC (subject to its queue and line rate). This is the
  // audited injection point: everything a transport puts on the wire enters
  // the packet-conservation ledger here, and the anti-ECN shadow bit starts
  // as the sender's CE (each hop's marker ANDs its verdict into both).
  // Defined in net/network.hpp (needs the port pool).
  inline void send(Packet&& pkt);

  void handle_packet(Packet&& pkt, int ingress_port) override;

  [[nodiscard]] inline EgressPort& nic();
  [[nodiscard]] inline const EgressPort& nic() const;
  [[nodiscard]] inline sim::Bandwidth link_rate() const;
  [[nodiscard]] PortId nic_id() const { return nic_; }

  // Bytes received off the wire (any packet type), for throughput meters.
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_received_; }

  // Re-points the audit hooks at the owning shard's scheduler (sharded runs
  // only; see net/partition.hpp). Must run before traffic flows.
  void rebind_scheduler(sim::Scheduler& sched) { sched_ = &sched; }

 private:
  sim::Scheduler* sched_;
  Network* net_;
  PortId nic_;
  std::unique_ptr<PacketSink> sink_;
  std::uint64_t bytes_received_ = 0;
};

}  // namespace amrt::net
