#include "net/network.hpp"

#include <stdexcept>

namespace amrt::net {

void Network::reserve(std::size_t n_hosts, std::size_t n_switches, std::size_t n_ports) {
  hosts_.reserve(n_hosts);
  switches_.reserve(n_switches);
  ports_.reserve(n_ports);
  dir_.reserve(n_hosts + n_switches);
}

PortId Network::new_port(EgressPort::Config cfg, EgressQueue queue) {
  const PortId id = static_cast<PortId>(ports_.size());
  // The queue's audit shadow is keyed by its pool slot (== the port slot).
  queue.audit_bind(sched_.auditor(), static_cast<std::uint32_t>(id));
  queues_.push_back(std::move(queue));
  ports_.emplace_back(sched_, cfg, queues_.back());
  return id;
}

HostId Network::add_host(sim::Bandwidth rate, sim::Duration delay, EgressQueue nic_queue) {
  EgressPort::Config cfg{rate, delay};
  // Host stacks carry timing noise of a fraction of a packet time; see the
  // Config::tx_jitter comment for why the simulation needs it too.
  cfg.tx_jitter = rate.tx_time(kMtuBytes) / 8;
  cfg.jitter_seed = 0x9e3779b97f4a7c15ULL ^ (static_cast<std::uint64_t>(next_id_) << 17);
  const PortId nic = new_port(cfg, std::move(nic_queue));
  const HostId h{static_cast<std::uint32_t>(hosts_.size())};
  hosts_.emplace_back(sched_, *this, next_id(), nic);
  dir_.push_back(NodeRef{NodeKind::kHost, h.slot});
  return h;
}

SwitchId Network::add_switch() {
  const SwitchId s{static_cast<std::uint32_t>(switches_.size())};
  switches_.emplace_back(*this, next_id());
  dir_.push_back(NodeRef{NodeKind::kSwitch, s.slot});
  return s;
}

PortId Network::add_switch_port(SwitchId from, NodeId to, sim::Bandwidth rate, sim::Duration delay,
                                EgressQueue queue, std::unique_ptr<DequeueMarker> marker) {
  const PortId pid = new_port(EgressPort::Config{rate, delay}, std::move(queue));
  switches_[from.slot].adopt_port(pid);
  EgressPort& port = ports_[static_cast<std::size_t>(pid)];
  port.connect(*this, to, 0);
  if (marker) port.add_marker(std::move(marker));
  return pid;
}

PortId Network::attach_host(HostId host, SwitchId sw, EgressQueue down_queue,
                            std::unique_ptr<DequeueMarker> down_marker) {
  const NodeId host_node = id_of(host);
  const PortId nic = hosts_[host.slot].nic_id();
  // Copy the NIC config out before new_port can grow the pool and invalidate
  // the reference; the downlink mirrors the uplink's rate and delay.
  const EgressPort::Config nic_cfg = ports_[static_cast<std::size_t>(nic)].config();
  ports_[static_cast<std::size_t>(nic)].connect(*this, id_of(sw), switches_[sw.slot].port_count());
  const PortId pid =
      new_port(EgressPort::Config{nic_cfg.rate, nic_cfg.delay}, std::move(down_queue));
  switches_[sw.slot].adopt_port(pid);
  EgressPort& down = ports_[static_cast<std::size_t>(pid)];
  down.connect(*this, host_node, 0);
  if (down_marker) down.add_marker(std::move(down_marker));
  return pid;
}

void Network::set_link_up(PortId p, bool up) {
  const auto slot = static_cast<std::size_t>(p);
  if (slot >= ports_.size()) throw std::out_of_range("set_link_up: no such port");
  if (link_state_.is_up(p) == up) return;
  if (link_state_.up.size() < ports_.size()) link_state_.up.resize(ports_.size(), 1);
  link_state_.up[slot] = up ? 1 : 0;
  link_state_.epoch.fetch_add(1, std::memory_order_relaxed);
  ports_[slot].set_link_up(up);
}

std::uint64_t Network::packets_faulted() const {
  std::uint64_t n = 0;
  for (const auto& port : ports_) n += port.packets_faulted();
  return n;
}

std::string Network::label(NodeId id) const {
  if (id.value >= dir_.size()) return "node" + std::to_string(id.value);
  const NodeRef ref = dir_[id.value];
  return (ref.kind == NodeKind::kHost ? "h" : "sw") + std::to_string(ref.slot);
}

}  // namespace amrt::net
