#include "harness/scenarios.hpp"

#include <algorithm>
#include <memory>

#include "net/monitor.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"

namespace amrt::harness {

namespace {

using transport::FlowSpec;
using transport::TransportEndpoint;

// Shared plumbing for the fixed scenarios: endpoints, recorder, throughput
// tracker and flow scheduling.
struct Rig {
  sim::Simulation sim;
  sim::Scheduler& sched;
  net::Network network{sim};
  stats::FctRecorder recorder;
  stats::FlowThroughputTracker throughput;
  std::vector<TransportEndpoint*> endpoints;  // parallel to network.hosts()

  Rig(std::uint64_t seed, sim::Bandwidth rate, sim::Duration base_rtt, sim::Duration bin)
      : sim{seed}, sched{sim.scheduler()}, recorder{rate, base_rtt}, throughput{bin} {
    recorder.set_progress_hook([this](std::uint64_t flow, std::uint64_t delta, sim::TimePoint at) {
      throughput.record(flow, delta, at);
    });
  }

  // Only call once the topology is complete: endpoints hold Host references
  // into the pool, which must not grow afterwards.
  void attach_endpoints(transport::Protocol proto, const transport::TransportConfig& tcfg) {
    for (auto& host : network.hosts()) {
      auto ep = core::make_endpoint(proto, sim, host, tcfg, &recorder);
      endpoints.push_back(ep.get());
      host.attach(std::move(ep));
    }
  }

  void schedule_flow(std::size_t src_host_idx, std::size_t dst_host_idx, net::FlowId id,
                     std::uint64_t bytes, sim::Duration start, sim::Duration jitter) {
    if (jitter > sim::Duration::zero()) {
      start += sim::Duration::nanoseconds(sim.rng().uniform_int(0, jitter.ns()));
    }
    FlowSpec spec{id, network.host(src_host_idx).id(), network.host(dst_host_idx).id(), bytes,
                  sim::TimePoint::zero() + start};
    TransportEndpoint* ep = endpoints[src_host_idx];
    sched.at(spec.start, [ep, spec] { ep->start_flow(spec); });
  }

  [[nodiscard]] double fct_ms(net::FlowId id) const {
    for (const auto& r : recorder.completed()) {
      if (r.flow == id) return r.fct().to_millis();
    }
    return -1.0;
  }
};

std::vector<double> util_series(const net::PortSampler& s) {
  std::vector<double> out;
  out.reserve(s.samples().size());
  for (const auto& sample : s.samples()) out.push_back(sample.utilization);
  return out;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

}  // namespace

// ---------------------------------------------------------------------------
// Chain (Figs. 1, 10/11)
// ---------------------------------------------------------------------------

TimelineResult run_chain(const ChainConfig& cfg) {
  const auto rate = cfg.link_rate;
  const auto delay = cfg.link_delay;
  const auto base_rtt = net::path_base_rtt(4, rate, delay);

  Rig rig{cfg.seed, rate, base_rtt, cfg.bin};
  auto qf = core::make_queue_factory(cfg.proto, cfg.queues);
  auto mf = core::make_marker_factory(cfg.proto);
  auto marker = [&]() -> std::unique_ptr<net::DequeueMarker> { return mf ? mf() : nullptr; };

  net::Network& net = rig.network;
  const net::SwitchId s0 = net.add_switch();
  const net::SwitchId s1 = net.add_switch();
  const net::SwitchId s2 = net.add_switch();
  const net::PortId b1 =
      net.add_switch_port(s0, net.id_of(s1), rate, delay, qf(false), marker());  // bottleneck 1
  const net::PortId b2 =
      net.add_switch_port(s1, net.id_of(s2), rate, delay, qf(false), marker());  // bottleneck 2
  const net::PortId s1_to_s0 =
      net.add_switch_port(s1, net.id_of(s0), rate, delay, qf(false), marker());  // reverse path
  const net::PortId s2_to_s1 =
      net.add_switch_port(s2, net.id_of(s1), rate, delay, qf(false), marker());
  const net::PortId s0_to_s1 = b1, s1_to_s2 = b2;

  // One src/dst host pair per flow, attached per its path. Remember which
  // switch each host hangs off so the chain routes can be derived.
  struct HostPair {
    std::size_t src, dst;
  };
  std::vector<HostPair> pairs;
  std::vector<int> attachment;  // host index -> switch index (0, 1, 2)
  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    const auto& f = cfg.flows[i];
    const int src_at = f.path == ChainPath::kSecond ? 1 : 0;
    const int dst_at = f.path == ChainPath::kFirst ? 1 : 2;
    const net::SwitchId src_sw = src_at == 1 ? s1 : s0;
    const net::SwitchId dst_sw = dst_at == 1 ? s1 : s2;
    const net::HostId src = net.add_host(rate, delay, qf(true));
    const net::HostId dst = net.add_host(rate, delay, qf(true));
    const net::PortId src_down = net.attach_host(src, src_sw, qf(false), marker());
    const net::PortId dst_down = net.attach_host(dst, dst_sw, qf(false), marker());
    net.switch_at(src_sw).routes().add_route(net.id_of(src), src_down);
    net.switch_at(dst_sw).routes().add_route(net.id_of(dst), dst_down);
    pairs.push_back({rig.network.host_count() - 2, rig.network.host_count() - 1});
    attachment.push_back(src_at);
    attachment.push_back(dst_at);
  }

  // Remote routes: traffic for a host attached elsewhere follows the chain.
  for (std::size_t h = 0; h < rig.network.host_count(); ++h) {
    const net::NodeId id = rig.network.host(h).id();
    switch (attachment[h]) {
      case 0:
        net.switch_at(s1).routes().add_route(id, s1_to_s0);
        net.switch_at(s2).routes().add_route(id, s2_to_s1);
        break;
      case 1:
        net.switch_at(s0).routes().add_route(id, s0_to_s1);
        net.switch_at(s2).routes().add_route(id, s2_to_s1);
        break;
      default:
        net.switch_at(s0).routes().add_route(id, s0_to_s1);
        net.switch_at(s1).routes().add_route(id, s1_to_s2);
        break;
    }
  }

  transport::TransportConfig tcfg;
  tcfg.host_rate = rate;
  tcfg.base_rtt = base_rtt;
  tcfg.homa_overcommit = cfg.homa_overcommit;
  rig.attach_endpoints(cfg.proto, tcfg);

  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    rig.schedule_flow(pairs[i].src, pairs[i].dst, i + 1, cfg.flows[i].bytes, cfg.flows[i].start,
                      cfg.start_jitter);
  }

  net::PortSampler sampler1{rig.sim, net.port_at(b1), cfg.bin};
  net::PortSampler sampler2{rig.sim, net.port_at(b2), cfg.bin};
  sampler1.start();
  sampler2.start();

  rig.sched.run_until(sim::TimePoint::zero() + cfg.duration);

  TimelineResult out;
  out.bin = cfg.bin;
  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    out.flow_gbps.push_back(rig.throughput.gbps(i + 1));
    out.flow_fct_ms.push_back(rig.fct_ms(i + 1));
  }
  out.bottleneck1_util = util_series(sampler1);
  out.bottleneck2_util = util_series(sampler2);
  out.mean_util_b1 = mean(out.bottleneck1_util);
  out.mean_util_b2 = mean(out.bottleneck2_util);
  out.max_queue_pkts = std::max(sampler1.max_queue_pkts(), sampler2.max_queue_pkts());
  return out;
}

// ---------------------------------------------------------------------------
// Dynamic traffic, single bottleneck (Figs. 2, 8/9)
// ---------------------------------------------------------------------------

TimelineResult run_dynamic(const DynamicConfig& cfg) {
  const auto rate = cfg.link_rate;
  const auto delay = cfg.link_delay;
  const auto base_rtt = net::path_base_rtt(3, rate, delay);

  Rig rig{cfg.seed, rate, base_rtt, cfg.bin};
  auto qf = core::make_queue_factory(cfg.proto, cfg.queues);
  auto mf = core::make_marker_factory(cfg.proto, cfg.marker_probe_bytes);
  auto marker = [&]() -> std::unique_ptr<net::DequeueMarker> { return mf ? mf() : nullptr; };

  net::Network& net = rig.network;
  const net::SwitchId s0 = net.add_switch();
  const net::SwitchId s1 = net.add_switch();
  const net::PortId bottleneck =
      net.add_switch_port(s0, net.id_of(s1), rate, delay, qf(false), marker());
  const net::PortId s1_to_s0 =
      net.add_switch_port(s1, net.id_of(s0), rate, delay, qf(false), marker());
  const net::PortId s0_to_s1 = bottleneck;

  std::vector<std::size_t> srcs, dsts;
  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    const net::HostId src = net.add_host(rate, delay, qf(true));
    const net::HostId dst = net.add_host(rate, delay, qf(true));
    const net::PortId src_down = net.attach_host(src, s0, qf(false), marker());
    const net::PortId dst_down = net.attach_host(dst, s1, qf(false), marker());
    net.switch_at(s0).routes().add_route(net.id_of(src), src_down);
    net.switch_at(s1).routes().add_route(net.id_of(dst), dst_down);
    net.switch_at(s0).routes().add_route(net.id_of(dst), s0_to_s1);
    net.switch_at(s1).routes().add_route(net.id_of(src), s1_to_s0);
    srcs.push_back(rig.network.host_count() - 2);
    dsts.push_back(rig.network.host_count() - 1);
  }

  transport::TransportConfig tcfg;
  tcfg.host_rate = rate;
  tcfg.base_rtt = base_rtt;
  tcfg.homa_overcommit = cfg.homa_overcommit;
  tcfg.amrt_marked_allowance = cfg.amrt_marked_allowance;
  rig.attach_endpoints(cfg.proto, tcfg);

  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    rig.schedule_flow(srcs[i], dsts[i], i + 1, cfg.flows[i].bytes, cfg.flows[i].start,
                      cfg.start_jitter);
  }

  net::PortSampler sampler{rig.sim, net.port_at(bottleneck), cfg.bin};
  sampler.start();
  rig.sched.run_until(sim::TimePoint::zero() + cfg.duration);

  TimelineResult out;
  out.bin = cfg.bin;
  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    out.flow_gbps.push_back(rig.throughput.gbps(i + 1));
    out.flow_fct_ms.push_back(rig.fct_ms(i + 1));
  }
  out.bottleneck1_util = util_series(sampler);
  out.mean_util_b1 = mean(out.bottleneck1_util);
  out.max_queue_pkts = sampler.max_queue_pkts();
  return out;
}

// ---------------------------------------------------------------------------
// Many-to-many with unresponsive senders (Fig. 14)
// ---------------------------------------------------------------------------

ManyToManyResult run_many_to_many(const ManyToManyConfig& cfg) {
  sim::Simulation simu{cfg.seed};
  sim::Scheduler& sched = simu.scheduler();
  net::Network network{simu};

  net::LeafSpineConfig topo_cfg;
  topo_cfg.leaves = 3;
  topo_cfg.spines = cfg.spines;
  topo_cfg.hosts_per_leaf = cfg.senders_per_leaf;
  topo_cfg.link_rate = cfg.link_rate;
  topo_cfg.link_delay = cfg.link_delay;
  topo_cfg.queue_factory = core::make_queue_factory(cfg.proto, cfg.queues);
  topo_cfg.marker_factory = core::make_marker_factory(cfg.proto);
  net::LeafSpine topo = net::build_leaf_spine(network, topo_cfg);

  transport::TransportConfig tcfg;
  tcfg.host_rate = cfg.link_rate;
  tcfg.base_rtt = topo.base_rtt;
  tcfg.homa_overcommit = cfg.homa_overcommit;
  // Connections are long-established: the experiment isolates grant-driven
  // behaviour, so the blind first-BDP burst is disabled on every endpoint.
  tcfg.unscheduled_start = false;

  stats::FctRecorder recorder{cfg.link_rate, topo.base_rtt};
  sim::Rng& rng = simu.rng();

  // Senders live under leaves 0 and 1; the two receivers under leaf 2.
  const int per_leaf = cfg.senders_per_leaf;
  std::vector<transport::TransportEndpoint*> endpoints(topo.hosts.size(), nullptr);
  ManyToManyResult out;
  for (std::size_t i = 0; i < topo.hosts.size(); ++i) {
    transport::TransportConfig ep_cfg = tcfg;
    const bool is_sender = i < static_cast<std::size_t>(2 * per_leaf);
    if (is_sender) {
      ep_cfg.responsive = rng.bernoulli(cfg.responsive_ratio);
      if (ep_cfg.responsive) ++out.responsive_senders;
    }
    auto ep = core::make_endpoint(cfg.proto, simu, *topo.hosts[i], ep_cfg, &recorder);
    endpoints[i] = ep.get();
    topo.hosts[i]->attach(std::move(ep));
  }

  net::Host* recv0 = topo.hosts[static_cast<std::size_t>(2 * per_leaf)];
  net::Host* recv1 = topo.hosts[static_cast<std::size_t>(2 * per_leaf) + 1];
  net::FlowId next_flow = 1;
  for (int s = 0; s < 2 * per_leaf; ++s) {
    for (net::Host* recv : {recv0, recv1}) {
      // Slightly distinct sizes so SRPT ordering is meaningful (equal sizes
      // would make the overcommitment set a pure id tie-break).
      const std::uint64_t bytes = cfg.flow_bytes + static_cast<std::uint64_t>(s) * net::kMssBytes;
      transport::FlowSpec spec{next_flow++, topo.hosts[s]->id(), recv->id(), bytes,
                               sim::TimePoint::zero()};
      transport::TransportEndpoint* ep = endpoints[s];
      sched.at(spec.start, [ep, spec] { ep->start_flow(spec); });
    }
  }

  net::PortSampler down0{simu, network.port_at(topo.leaf_down[2][0]),
                         sim::Duration::microseconds(100)};
  net::PortSampler down1{simu, network.port_at(topo.leaf_down[2][1]),
                         sim::Duration::microseconds(100)};
  down0.start();
  down1.start();

  sched.run_until(sim::TimePoint::zero() + cfg.duration);

  out.mean_downlink_util = 0.5 * (down0.mean_utilization() + down1.mean_utilization());
  out.max_queue_pkts = std::max(down0.max_queue_pkts(), down1.max_queue_pkts());
  double queue_sum = 0.0;
  std::size_t queue_n = 0;
  for (const auto* s : {&down0, &down1}) {
    for (const auto& sample : s->samples()) {
      queue_sum += static_cast<double>(sample.queue_pkts);
      ++queue_n;
    }
  }
  out.mean_queue_pkts = queue_n == 0 ? 0.0 : queue_sum / static_cast<double>(queue_n);
  return out;
}

// ---------------------------------------------------------------------------
// Incast (Section 8.2)
// ---------------------------------------------------------------------------

IncastResult run_incast(const IncastConfig& cfg) {
  const auto rate = cfg.link_rate;
  const auto delay = cfg.link_delay;
  const auto base_rtt = net::path_base_rtt(2, rate, delay);

  sim::Simulation simu{cfg.seed};
  sim::Scheduler& sched = simu.scheduler();
  net::Network network{simu};
  auto qf = core::make_queue_factory(cfg.proto, cfg.queues);
  auto mf = core::make_marker_factory(cfg.proto);
  auto marker = [&]() -> std::unique_ptr<net::DequeueMarker> { return mf ? mf() : nullptr; };

  const net::SwitchId sw = network.add_switch();
  const net::HostId recv = network.add_host(rate, delay, qf(true));
  const net::PortId recv_down = network.attach_host(recv, sw, qf(false), marker());
  network.switch_at(sw).routes().add_route(network.id_of(recv), recv_down);

  std::vector<net::HostId> senders;
  for (int i = 0; i < cfg.senders; ++i) {
    const net::HostId h = network.add_host(rate, delay, qf(true));
    const net::PortId down = network.attach_host(h, sw, qf(false), marker());
    network.switch_at(sw).routes().add_route(network.id_of(h), down);
    senders.push_back(h);
  }

  transport::TransportConfig tcfg;
  tcfg.host_rate = rate;
  tcfg.base_rtt = base_rtt;

  stats::FctRecorder recorder{rate, base_rtt};
  std::vector<transport::TransportEndpoint*> endpoints;
  for (auto& host : network.hosts()) {
    auto ep = core::make_endpoint(cfg.proto, simu, host, tcfg, &recorder);
    endpoints.push_back(ep.get());
    host.attach(std::move(ep));
  }

  for (int i = 0; i < cfg.senders; ++i) {
    transport::FlowSpec spec{static_cast<net::FlowId>(i + 1),
                             network.id_of(senders[static_cast<std::size_t>(i)]),
                             network.id_of(recv), cfg.bytes_per_sender, sim::TimePoint::zero()};
    transport::TransportEndpoint* ep = endpoints[static_cast<std::size_t>(i) + 1];
    sched.at(spec.start, [ep, spec] { ep->start_flow(spec); });
  }

  net::PortSampler down{simu, network.port_at(recv_down), sim::Duration::microseconds(10)};
  down.start();

  const std::size_t expected = static_cast<std::size_t>(cfg.senders);
  std::function<void()> poll = [&] {
    if (recorder.completed().size() >= expected) {
      sched.stop();
      return;
    }
    sched.after(sim::Duration::microseconds(100), poll);
  };
  sched.after(sim::Duration::microseconds(100), poll);

  sched.run_until(sim::TimePoint::zero() + cfg.max_time);

  IncastResult out;
  out.fct = recorder.summarize();
  out.max_queue_pkts = down.max_queue_pkts();
  const net::Switch& tor = network.switch_at(sw);
  for (int p = 0; p < tor.port_count(); ++p) {
    out.drops += tor.port(p).queue().stats().dropped;
    out.trims += tor.port(p).queue().stats().trimmed;
  }
  const double total_bytes =
      static_cast<double>(cfg.bytes_per_sender) * static_cast<double>(cfg.senders);
  const double makespan_s = out.fct.max_fct_us * 1e-6;
  out.goodput_gbps = makespan_s > 0 ? total_bytes * 8.0 / makespan_s * 1e-9 : 0.0;
  return out;
}

}  // namespace amrt::harness
