#include "harness/run.hpp"

#include <stdexcept>
#include <utility>

#include "net/partition.hpp"
#include "transport/endpoint.hpp"

namespace amrt::harness {

std::size_t FabricSpec::host_count() const {
  switch (topology) {
    case Topology::kLeafSpine:
      return static_cast<std::size_t>(leaves) * static_cast<std::size_t>(hosts_per_leaf);
    case Topology::kDumbbell:
      return static_cast<std::size_t>(left_hosts + right_hosts);
    case Topology::kChain:
      return static_cast<std::size_t>(chain_switches) * static_cast<std::size_t>(hosts_per_switch);
    case Topology::kFatTree:
      return static_cast<std::size_t>(fat_k) * fat_k * fat_k / 4;
  }
  return 0;
}

PacketRun::PacketRun(const RunSpec& spec, const std::vector<workload::GeneratedFlow>& flows)
    : spec_{spec}, group_{spec.seed, spec.shards}, network_{group_.master()} {
  net::Partition part;
  build(part);
  if (spec_.shards > 1) {
    sharded_ = std::make_unique<ShardedScenario>(group_, network_, std::move(part),
                                                 spec_.fabric.link_rate, base_rtt_);
  } else {
    recorder_ = std::make_unique<stats::FctRecorder>(spec_.fabric.link_rate, base_rtt_);
  }

  transport::TransportConfig tcfg;
  tcfg.host_rate = spec_.fabric.link_rate;
  tcfg.base_rtt = base_rtt_;
  tcfg.homa_overcommit = spec_.homa_overcommit;
  tcfg.loss_timeout = spec_.loss_timeout;

  // Each endpoint is built against its host's shard, which pins its timers
  // (and the flow starts below) to the thread that owns the host.
  std::vector<transport::TransportEndpoint*> endpoints;
  endpoints.reserve(hosts_.size());
  const double bg_fraction = spec_.background_dctcp_fraction;
  for (net::Host* host : hosts_) {
    sim::Simulation& sim = sharded_ ? sharded_->sim_of(host->id()) : group_.master();
    stats::FctRecorder* rec = sharded_ ? &sharded_->recorder_of(host->id()) : recorder_.get();
    auto ep = bg_fraction > 0.0
                  ? core::make_mixed_endpoint(sim, *host, tcfg, rec,
                                              [bg_fraction](net::FlowId id) {
                                                return is_background_flow(id, bg_fraction);
                                              })
                  : core::make_endpoint(spec_.proto, sim, *host, tcfg, rec);
    endpoints.push_back(ep.get());
    host->attach(std::move(ep));
  }

  for (const auto& f : flows) {
    transport::FlowSpec fs{f.id, hosts_[f.src_host]->id(), hosts_[f.dst_host]->id(), f.bytes,
                           f.start};
    transport::TransportEndpoint* src_ep = endpoints[f.src_host];
    sim::Scheduler& sched = sharded_ ? sharded_->sched_of(fs.src) : group_.master().scheduler();
    sched.at(f.start, [src_ep, fs] { src_ep->start_flow(fs); });
  }
}

void PacketRun::build(net::Partition& part) {
  const FabricSpec& f = spec_.fabric;
  const bool coexist = spec_.background_dctcp_fraction > 0.0;
  net::QueueFactory queues = coexist ? core::make_mixed_queue_factory(f.queues)
                                     : core::make_queue_factory(spec_.proto, f.queues);
  net::MarkerFactory markers =
      coexist ? core::make_mixed_marker_factory(f.queues)
              : core::make_marker_factory(spec_.proto, net::kMtuBytes, f.queues.ecn_threshold_pkts);
  if (spec_.shards > 1 && f.topology != Topology::kLeafSpine &&
      f.topology != Topology::kFatTree) {
    throw std::invalid_argument("PacketRun: sharded runs need a leaf-spine or fat-tree fabric");
  }

  switch (f.topology) {
    case Topology::kLeafSpine: {
      net::LeafSpineConfig c;
      c.leaves = f.leaves;
      c.spines = f.spines;
      c.hosts_per_leaf = f.hosts_per_leaf;
      c.link_rate = f.link_rate;
      c.link_delay = f.link_delay;
      c.host_nic_queue_pkts = f.queues.host_nic_pkts;
      c.queue_factory = std::move(queues);
      c.marker_factory = std::move(markers);
      c.multipath = f.multipath;
      leaf_spine_ = net::build_leaf_spine(network_, c);
      hosts_ = leaf_spine_.hosts;
      base_rtt_ = leaf_spine_.base_rtt;
      if (spec_.shards > 1) part = net::partition_leaf_spine(network_, leaf_spine_, spec_.shards);
      return;
    }
    case Topology::kFatTree: {
      net::FatTreeConfig c;
      c.k = f.fat_k;
      c.link_rate = f.link_rate;
      c.link_delay = f.link_delay;
      c.host_nic_queue_pkts = f.queues.host_nic_pkts;
      c.queue_factory = std::move(queues);
      c.marker_factory = std::move(markers);
      c.multipath = f.multipath;
      const net::FatTree topo = net::build_fat_tree(network_, c);
      hosts_ = topo.hosts;
      base_rtt_ = topo.base_rtt;
      if (spec_.shards > 1) part = net::partition_fat_tree(network_, topo, spec_.shards);
      return;
    }
    case Topology::kDumbbell:
    case Topology::kChain: {
      net::SmallFabricConfig c;
      c.left_hosts = f.left_hosts;
      c.right_hosts = f.right_hosts;
      c.switches = f.chain_switches;
      c.hosts_per_switch = f.hosts_per_switch;
      c.link_rate = f.link_rate;
      c.link_delay = f.link_delay;
      c.host_nic_queue_pkts = f.queues.host_nic_pkts;
      c.queue_factory = std::move(queues);
      c.marker_factory = std::move(markers);
      net::SmallFabric small = f.topology == Topology::kDumbbell
                                   ? net::build_dumbbell(network_, c)
                                   : net::build_chain(network_, c);
      hosts_ = std::move(small.hosts);
      base_rtt_ = small.base_rtt;
      return;
    }
  }
  throw std::logic_error("PacketRun: unknown topology");
}

void PacketRun::run() {
  if (sharded_) {
    ShardedScenario::RunLimits limits;
    limits.event_limit = spec_.event_limit;
    limits.horizon = spec_.horizon;
    limits.audit_context = spec_.audit_context;
    sharded_->run(limits);
    return;
  }
  sim::Scheduler& sched = group_.master().scheduler();
  if (spec_.event_limit != 0) sched.set_event_limit(spec_.event_limit);
  if (spec_.horizon < sim::TimePoint::max()) {
    sched.run_until(spec_.horizon);
  } else {
    sched.run();
  }
}

const stats::FctRecorder& PacketRun::recorder() const {
  return sharded_ ? sharded_->merged() : *recorder_;
}

}  // namespace amrt::harness
