#include "harness/run.hpp"

#include <stdexcept>
#include <utility>

#include "net/packet.hpp"
#include "net/partition.hpp"
#include "transport/endpoint.hpp"

namespace amrt::harness {

bool is_background_flow(net::FlowId id, double fraction) {
  if (fraction <= 0.0) return false;
  if (fraction >= 1.0) return true;
  const auto cut = static_cast<net::FlowId>(fraction * 100.0 + 0.5);
  return (id % 100) < cut;
}

std::size_t FabricSpec::host_count() const {
  switch (topology) {
    case Topology::kLeafSpine:
      return static_cast<std::size_t>(leaves) * static_cast<std::size_t>(hosts_per_leaf);
    case Topology::kLine:
      return host_switch.size();
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

  transport::TransportConfig tcfg = spec_.transport;
  tcfg.host_rate = spec_.fabric.link_rate;
  tcfg.base_rtt = base_rtt_;
  if (!spec_.responsive.empty() && spec_.responsive.size() != hosts_.size()) {
    throw std::invalid_argument("PacketRun: responsive needs one entry per host");
  }

  // Each endpoint is built against its host's shard, which pins its timers
  // (and the flow starts below) to the thread that owns the host.
  std::vector<transport::TransportEndpoint*> endpoints;
  endpoints.reserve(hosts_.size());
  const double bg_fraction = spec_.background_dctcp_fraction;
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    net::Host* host = hosts_[i];
    sim::Simulation& sim = sharded_ ? sharded_->sim_of(host->id()) : group_.master();
    stats::FctRecorder* rec = sharded_ ? &sharded_->recorder_of(host->id()) : recorder_.get();
    tcfg.responsive = spec_.responsive.empty() || spec_.responsive[i];
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
              : core::make_marker_factory(spec_.proto, f.queues);
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
      c.queue_factory = std::move(queues);
      c.marker_factory = std::move(markers);
      c.multipath = f.multipath;
      leaf_spine_ = net::build_leaf_spine(network_, c);
      hosts_ = leaf_spine_.hosts;
      for (const auto& leaf : leaf_spine_.leaf_down) {
        host_downlinks_.insert(host_downlinks_.end(), leaf.begin(), leaf.end());
      }
      base_rtt_ = leaf_spine_.base_rtt;
      if (spec_.shards > 1) part = net::partition_leaf_spine(network_, leaf_spine_, spec_.shards);
      return;
    }
    case Topology::kFatTree: {
      net::FatTreeConfig c;
      c.k = f.fat_k;
      c.link_rate = f.link_rate;
      c.link_delay = f.link_delay;
      c.queue_factory = std::move(queues);
      c.marker_factory = std::move(markers);
      c.multipath = f.multipath;
      const net::FatTree topo = net::build_fat_tree(network_, c);
      hosts_ = topo.hosts;
      for (const auto& edge : topo.edge_down) {
        host_downlinks_.insert(host_downlinks_.end(), edge.begin(), edge.end());
      }
      base_rtt_ = topo.base_rtt;
      if (spec_.shards > 1) part = net::partition_fat_tree(network_, topo, spec_.shards);
      return;
    }
    case Topology::kLine: {
      net::LineConfig c;
      c.switches = f.switches;
      c.host_switch = f.host_switch;
      c.link_rate = f.link_rate;
      c.link_delay = f.link_delay;
      c.queue_factory = std::move(queues);
      c.marker_factory = std::move(markers);
      line_ = net::build_line(network_, c);
      hosts_ = line_.hosts;
      host_downlinks_ = line_.host_down;
      base_rtt_ = line_.base_rtt;
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
  // Events at the horizon still fire, and the clock stays at the last one,
  // as in a sharded run.
  sched.run_window(spec_.horizon < sim::TimePoint::max()
                       ? spec_.horizon + sim::Duration::nanoseconds(1)
                       : sim::TimePoint::max());
}

const stats::FctRecorder& PacketRun::recorder() const {
  return sharded_ ? sharded_->merged() : *recorder_;
}

stats::FctRecorder& PacketRun::serial_recorder() {
  if (sharded_) throw std::logic_error("PacketRun: a sharded run has no serial recorder");
  return *recorder_;
}

flowsim::RateModel rate_model(transport::Protocol proto) {
  if (proto == transport::Protocol::kAmrt) return flowsim::RateModel::kAmrtGrantClock;
  if (proto == transport::Protocol::kDctcp) return flowsim::RateModel::kDctcpThreshold;
  return flowsim::RateModel::kInstant;
}

namespace {

flowsim::Fabric fluid_fabric(const RunSpec& spec) {
  const FabricSpec& f = spec.fabric;
  if (spec.shards > 1) throw std::invalid_argument("FlowRun: flow-level runs are serial");
  if (f.topology == Topology::kFatTree) return flowsim::Fabric::fat_tree(f.fat_k, f.link_rate);
  if (f.topology == Topology::kLeafSpine) {
    return flowsim::Fabric::leaf_spine(f.leaves, f.spines, f.hosts_per_leaf, f.link_rate);
  }
  throw std::invalid_argument("FlowRun: the flow level models leaf-spine and fat-tree fabrics");
}

}  // namespace

flowsim::FlowSimConfig flow_sim_config(const RunSpec& spec) {
  const FabricSpec& f = spec.fabric;
  if (f.topology == Topology::kLine) {
    throw std::invalid_argument("flow_sim_config: no flow-level model of a line fabric");
  }
  const int hops = f.topology == Topology::kLeafSpine ? 4 : 6;
  flowsim::FlowSimConfig fs;
  fs.rtt = net::path_base_rtt(hops, f.link_rate, f.link_delay);
  fs.payload_fraction =
      static_cast<double>(net::kMssBytes) / static_cast<double>(net::kMtuBytes);
  fs.prop_delay = f.link_delay;
  fs.mtu_tx = f.link_rate.tx_time(net::kMtuBytes);
  fs.mtu_bytes = net::kMtuBytes;
  fs.mss_bytes = net::kMssBytes;
  fs.max_time = spec.horizon;
  return fs;
}

FlowRun::FlowRun(const RunSpec& spec, const std::vector<workload::GeneratedFlow>& flows)
    : fabric_{fluid_fabric(spec)},
      fsim_{fabric_, flow_sim_config(spec)},
      recorder_{spec.fabric.link_rate, fsim_.config().rtt} {
  const flowsim::RateModel model = rate_model(spec.proto);
  for (const auto& f : flows) {
    fsim_.add_flow(f.id, f.src_host, f.dst_host, f.bytes, f.start,
                   is_background_flow(f.id, spec.background_dctcp_fraction)
                       ? flowsim::RateModel::kDctcpThreshold
                       : model);
  }
}

void FlowRun::run() { result_ = fsim_.run(&recorder_); }

}  // namespace amrt::harness
