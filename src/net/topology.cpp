#include "net/topology.hpp"

#include <algorithm>
#include <initializer_list>
#include <stdexcept>
#include <vector>

namespace amrt::net {

namespace {
// Sets every switch's multipath mode, tier by tier, then checks that each
// reaches every host: a gap would abort mid-run from the forwarding fast
// path, so fail at wiring time instead.
void finish_routes(Network& net, std::initializer_list<const std::vector<SwitchId>*> tiers,
                   const std::vector<HostId>& hosts, MultipathMode mode) {
  for (const auto* tier : tiers) {
    for (const SwitchId s : *tier) net.switch_at(s).routes().set_mode(mode);
  }
  for (const auto* tier : tiers) {
    for (const SwitchId s : *tier) {
      const RoutingTable& routes = net.switch_at(s).routes();
      for (const HostId h : hosts) routes.require_route(net.id_of(h));
    }
  }
}
}  // namespace

sim::Duration path_base_rtt(int hops, sim::Bandwidth rate, sim::Duration link_delay) {
  // Data direction: `hops` serializations of an MTU packet + propagation.
  // Control direction: `hops` serializations of a 64B grant + propagation.
  const auto data_way = rate.tx_time(kMtuBytes) * hops + link_delay * hops;
  const auto ctrl_way = rate.tx_time(kCtrlBytes) * hops + link_delay * hops;
  return data_way + ctrl_way;
}

LeafSpine build_leaf_spine(Network& net, const LeafSpineConfig& cfg) {
  if (!cfg.queue_factory) throw std::invalid_argument("LeafSpineConfig.queue_factory is required");
  LeafSpine out;

  auto make_marker = [&]() -> std::unique_ptr<DequeueMarker> {
    return cfg.marker_factory ? cfg.marker_factory() : nullptr;
  };

  const std::size_t n_hosts = static_cast<std::size_t>(cfg.leaves) * cfg.hosts_per_leaf;
  const std::size_t n_switches = static_cast<std::size_t>(cfg.leaves) + cfg.spines;
  // Each host: NIC + leaf downlink; each leaf-spine cable: two ports.
  net.reserve(net.host_count() + n_hosts, net.switch_count() + n_switches,
              net.port_count() + 2 * n_hosts +
                  2 * static_cast<std::size_t>(cfg.leaves) * cfg.spines);

  std::vector<SwitchId> leaves, spines;
  std::vector<HostId> hosts;
  for (int l = 0; l < cfg.leaves; ++l) leaves.push_back(net.add_switch());
  for (int s = 0; s < cfg.spines; ++s) spines.push_back(net.add_switch());
  // Routing entries are indexed by NodeId: size them for every node once.
  const std::size_t n_nodes = net.host_count() + net.switch_count() + n_hosts;
  for (const SwitchId l : leaves) net.switch_at(l).routes().reserve(n_nodes);
  for (const SwitchId s : spines) net.switch_at(s).routes().reserve(n_nodes);

  out.leaf_down.resize(static_cast<std::size_t>(cfg.leaves));
  out.leaf_up.resize(static_cast<std::size_t>(cfg.leaves));
  out.spine_down.resize(static_cast<std::size_t>(cfg.spines),
                        std::vector<PortId>(static_cast<std::size_t>(cfg.leaves), PortId{-1}));

  // Hosts under each leaf.
  for (int l = 0; l < cfg.leaves; ++l) {
    for (int h = 0; h < cfg.hosts_per_leaf; ++h) {
      const HostId host = net.add_host(cfg.link_rate, cfg.link_delay, cfg.queue_factory(true));
      const PortId down = net.attach_host(host, leaves[l], cfg.queue_factory(false), make_marker());
      hosts.push_back(host);
      out.leaf_down[l].push_back(down);
      net.switch_at(leaves[l]).routes().set_routes(net.id_of(host), {&down, 1});
    }
  }

  // Leaf <-> spine fabric.
  for (int l = 0; l < cfg.leaves; ++l) {
    for (int s = 0; s < cfg.spines; ++s) {
      const PortId up = net.add_switch_port(leaves[l], net.id_of(spines[s]), cfg.link_rate,
                                            cfg.link_delay, cfg.queue_factory(false), make_marker());
      out.leaf_up[l].push_back(up);
      const PortId down = net.add_switch_port(spines[s], net.id_of(leaves[l]), cfg.link_rate,
                                              cfg.link_delay, cfg.queue_factory(false), make_marker());
      out.spine_down[s][l] = down;
    }
  }

  // Routing: leaves send remote traffic up any spine (ECMP); spines know
  // which leaf owns each host.
  for (int l = 0; l < cfg.leaves; ++l) {
    RoutingTable& routes = net.switch_at(leaves[l]).routes();
    for (int other = 0; other < cfg.leaves; ++other) {
      if (other == l) continue;
      for (int h = 0; h < cfg.hosts_per_leaf; ++h) {
        const NodeId dst =
            net.id_of(hosts[static_cast<std::size_t>(other) * cfg.hosts_per_leaf + h]);
        routes.set_routes(dst, out.leaf_up[l]);
      }
    }
  }
  for (int s = 0; s < cfg.spines; ++s) {
    for (int l = 0; l < cfg.leaves; ++l) {
      for (int h = 0; h < cfg.hosts_per_leaf; ++h) {
        const NodeId dst = net.id_of(hosts[static_cast<std::size_t>(l) * cfg.hosts_per_leaf + h]);
        net.switch_at(spines[s]).routes().set_routes(dst, {&out.spine_down[s][l], 1});
      }
    }
  }

  finish_routes(net, {&leaves, &spines}, hosts, cfg.multipath);

  // Resolve the convenience pointers only now that the pools are final.
  for (const HostId h : hosts) out.hosts.push_back(&net.host(h));
  for (const SwitchId l : leaves) out.leaves.push_back(&net.switch_at(l));
  for (const SwitchId s : spines) out.spines.push_back(&net.switch_at(s));

  out.base_rtt = path_base_rtt(4, cfg.link_rate, cfg.link_delay);
  return out;
}

FatTree build_fat_tree(Network& net, const FatTreeConfig& cfg) {
  if (!cfg.queue_factory) throw std::invalid_argument("FatTreeConfig.queue_factory is required");
  if (cfg.k < 2 || cfg.k % 2 != 0) throw std::invalid_argument("FatTreeConfig.k must be even");
  const int k = cfg.k;
  const int half = k / 2;
  const int n_pods = k;
  const int n_edges = k * half;       // k/2 per pod
  const int n_aggs = k * half;        // k/2 per pod
  const int n_cores = half * half;    // (k/2)^2
  const int n_hosts = k * half * half;  // k^3/4

  FatTree out;
  out.k = k;

  auto make_marker = [&]() -> std::unique_ptr<DequeueMarker> {
    return cfg.marker_factory ? cfg.marker_factory() : nullptr;
  };

  // Ports: every host contributes a NIC + an edge downlink; every
  // edge<->agg and agg<->core cable contributes two ports.
  const std::size_t n_fabric_cables =
      static_cast<std::size_t>(n_edges) * half + static_cast<std::size_t>(n_aggs) * half;
  net.reserve(net.host_count() + static_cast<std::size_t>(n_hosts),
              net.switch_count() + static_cast<std::size_t>(n_edges + n_aggs + n_cores),
              net.port_count() + 2 * static_cast<std::size_t>(n_hosts) + 2 * n_fabric_cables);

  // Switch tiers first: edges and aggs pod-major, then the core plane.
  std::vector<SwitchId> edges, aggs, cores;
  for (int p = 0; p < n_pods; ++p) {
    for (int e = 0; e < half; ++e) edges.push_back(net.add_switch());
    for (int a = 0; a < half; ++a) aggs.push_back(net.add_switch());
  }
  for (int c = 0; c < n_cores; ++c) cores.push_back(net.add_switch());
  // Routing entries are indexed by NodeId: size them for every node once.
  const std::size_t n_nodes =
      net.host_count() + net.switch_count() + static_cast<std::size_t>(n_hosts);
  for (const SwitchId s : edges) net.switch_at(s).routes().reserve(n_nodes);
  for (const SwitchId s : aggs) net.switch_at(s).routes().reserve(n_nodes);
  for (const SwitchId s : cores) net.switch_at(s).routes().reserve(n_nodes);

  out.edge_down.resize(static_cast<std::size_t>(n_edges));
  out.edge_up.resize(static_cast<std::size_t>(n_edges));
  out.agg_down.resize(static_cast<std::size_t>(n_aggs));
  out.agg_up.resize(static_cast<std::size_t>(n_aggs));
  out.core_down.resize(static_cast<std::size_t>(n_cores),
                       std::vector<PortId>(static_cast<std::size_t>(n_pods), PortId{-1}));

  // Hosts under each edge switch (pod-major), with the edge's local route.
  std::vector<HostId> hosts;
  for (int p = 0; p < n_pods; ++p) {
    for (int e = 0; e < half; ++e) {
      const int ei = p * half + e;
      for (int h = 0; h < half; ++h) {
        const HostId host = net.add_host(cfg.link_rate, cfg.link_delay, cfg.queue_factory(true));
        const PortId down =
            net.attach_host(host, edges[ei], cfg.queue_factory(false), make_marker());
        hosts.push_back(host);
        out.edge_down[ei].push_back(down);
        net.switch_at(edges[ei]).routes().set_routes(net.id_of(host), {&down, 1});
      }
    }
  }

  // Edge <-> agg fabric inside each pod.
  for (int p = 0; p < n_pods; ++p) {
    for (int e = 0; e < half; ++e) {
      const int ei = p * half + e;
      for (int a = 0; a < half; ++a) {
        const int ai = p * half + a;
        const PortId up = net.add_switch_port(edges[ei], net.id_of(aggs[ai]), cfg.link_rate,
                                              cfg.link_delay, cfg.queue_factory(false), make_marker());
        out.edge_up[ei].push_back(up);
        const PortId down = net.add_switch_port(aggs[ai], net.id_of(edges[ei]), cfg.link_rate,
                                                cfg.link_delay, cfg.queue_factory(false), make_marker());
        if (out.agg_down[ai].empty()) {
          out.agg_down[ai].resize(static_cast<std::size_t>(half), PortId{-1});
        }
        out.agg_down[ai][static_cast<std::size_t>(e)] = down;
      }
    }
  }

  // Agg <-> core plane: agg `a` of every pod owns core group
  // [a*(k/2), (a+1)*(k/2)).
  for (int p = 0; p < n_pods; ++p) {
    for (int a = 0; a < half; ++a) {
      const int ai = p * half + a;
      for (int j = 0; j < half; ++j) {
        const int ci = a * half + j;
        const PortId up = net.add_switch_port(aggs[ai], net.id_of(cores[ci]), cfg.link_rate,
                                              cfg.link_delay, cfg.queue_factory(false), make_marker());
        out.agg_up[ai].push_back(up);
        const PortId down = net.add_switch_port(cores[ci], net.id_of(aggs[ai]), cfg.link_rate,
                                                cfg.link_delay, cfg.queue_factory(false), make_marker());
        out.core_down[ci][static_cast<std::size_t>(p)] = down;
      }
    }
  }

  // Routing. Host flat index -> (pod, edge) is positional: hosts are
  // pod-major, half*half per pod, half per edge.
  auto pod_of = [&](int host_idx) { return host_idx / (half * half); };
  auto edge_of = [&](int host_idx) { return host_idx / half; };  // flat edge index

  // Edges: hosts behind other switches go up any pod agg (ECMP).
  for (int ei = 0; ei < n_edges; ++ei) {
    RoutingTable& routes = net.switch_at(edges[ei]).routes();
    for (int hi = 0; hi < n_hosts; ++hi) {
      if (edge_of(hi) == ei) continue;  // local hosts already routed
      const NodeId dst = net.id_of(hosts[static_cast<std::size_t>(hi)]);
      routes.set_routes(dst, out.edge_up[ei]);
    }
  }

  // Aggs: in-pod hosts go down to their edge; everything else up to the
  // agg's core group (ECMP at tier 1, independent of the edge's pick).
  for (int p = 0; p < n_pods; ++p) {
    for (int a = 0; a < half; ++a) {
      const int ai = p * half + a;
      RoutingTable& routes = net.switch_at(aggs[ai]).routes();
      routes.set_ecmp_tier(1);
      for (int hi = 0; hi < n_hosts; ++hi) {
        const NodeId dst = net.id_of(hosts[static_cast<std::size_t>(hi)]);
        if (pod_of(hi) == p) {
          const PortId down = out.agg_down[ai][static_cast<std::size_t>(edge_of(hi) % half)];
          routes.set_routes(dst, {&down, 1});
        } else {
          routes.set_routes(dst, out.agg_up[ai]);
        }
      }
    }
  }

  // Cores: one downlink per pod.
  for (int ci = 0; ci < n_cores; ++ci) {
    RoutingTable& routes = net.switch_at(cores[ci]).routes();
    for (int hi = 0; hi < n_hosts; ++hi) {
      const NodeId dst = net.id_of(hosts[static_cast<std::size_t>(hi)]);
      routes.set_routes(dst, {&out.core_down[ci][static_cast<std::size_t>(pod_of(hi))], 1});
    }
  }

  finish_routes(net, {&edges, &aggs, &cores}, hosts, cfg.multipath);

  // Resolve the convenience pointers only now that the pools are final.
  for (const HostId h : hosts) out.hosts.push_back(&net.host(h));
  for (const SwitchId s : edges) out.edges.push_back(&net.switch_at(s));
  for (const SwitchId s : aggs) out.aggs.push_back(&net.switch_at(s));
  for (const SwitchId s : cores) out.cores.push_back(&net.switch_at(s));

  out.base_rtt = path_base_rtt(6, cfg.link_rate, cfg.link_delay);
  return out;
}

Line build_line(Network& net, const LineConfig& cfg) {
  if (!cfg.queue_factory) throw std::invalid_argument("LineConfig.queue_factory is required");
  for (const int at : cfg.host_switch) {
    if (at < 0 || at >= cfg.switches) {
      throw std::invalid_argument("LineConfig.host_switch out of range");
    }
  }
  const auto& qf = cfg.queue_factory;
  auto marker = [&]() -> std::unique_ptr<DequeueMarker> {
    return cfg.marker_factory ? cfg.marker_factory() : nullptr;
  };
  const auto rate = cfg.link_rate;
  const auto delay = cfg.link_delay;
  const int k = cfg.switches;

  std::vector<SwitchId> switches;
  for (int i = 0; i < k; ++i) switches.push_back(net.add_switch());
  Line out;
  out.right.assign(static_cast<std::size_t>(std::max(k - 1, 0)), -1);
  std::vector<PortId> left(static_cast<std::size_t>(k), -1);  // left[i]: switch i -> i-1
  for (int i = 0; i + 1 < k; ++i) {
    out.right[i] = net.add_switch_port(switches[i], net.id_of(switches[i + 1]), rate, delay,
                                       qf(false), marker());
    left[i + 1] = net.add_switch_port(switches[i + 1], net.id_of(switches[i]), rate, delay,
                                      qf(false), marker());
  }

  std::vector<HostId> hosts;
  for (const int at : cfg.host_switch) {
    const HostId host = net.add_host(rate, delay, qf(true));
    const PortId down = net.attach_host(host, switches[at], qf(false), marker());
    net.switch_at(switches[at]).routes().set_routes(net.id_of(host), {&down, 1});
    hosts.push_back(host);
    out.host_down.push_back(down);
  }
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    const int at = cfg.host_switch[h];
    const NodeId dst = net.id_of(hosts[h]);
    for (int i = 0; i < k; ++i) {
      if (i == at) continue;
      const PortId next = i < at ? out.right[i] : left[i];
      net.switch_at(switches[i]).routes().set_routes(dst, {&next, 1});
    }
    for (int i = 0; i < k; ++i) net.switch_at(switches[i]).routes().require_route(dst);
  }
  for (const HostId h : hosts) out.hosts.push_back(&net.host(h));
  out.base_rtt = path_base_rtt(k + 1, rate, delay);
  return out;
}

}  // namespace amrt::net
