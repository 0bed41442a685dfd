#include "core/factory.hpp"

#include <utility>

#include "core/anti_ecn.hpp"
#include "core/threshold_ecn.hpp"
#include "transport/dctcp.hpp"
#include "transport/homa.hpp"
#include "transport/ndp.hpp"
#include "transport/phost.hpp"

namespace amrt::core {

using transport::Protocol;

std::unique_ptr<transport::TransportEndpoint> make_endpoint(Protocol proto, sim::Simulation& sim,
                                                            net::Host& host,
                                                            const transport::TransportConfig& cfg,
                                                            stats::FlowObserver* observer) {
  switch (proto) {
    case Protocol::kAmrt:
      return std::make_unique<AmrtEndpoint>(sim, host, cfg, observer);
    case Protocol::kPhost:
      return std::make_unique<transport::PhostEndpoint>(sim, host, cfg, observer);
    case Protocol::kHoma:
      return std::make_unique<transport::HomaEndpoint>(sim, host, cfg, observer);
    case Protocol::kNdp:
      return std::make_unique<transport::NdpEndpoint>(sim, host, cfg, observer);
    case Protocol::kDctcp:
      return std::make_unique<transport::DctcpEndpoint>(sim, host, cfg, observer);
  }
  return nullptr;
}

net::QueueFactory make_queue_factory(Protocol proto, QueueConfig cfg) {
  return [proto, cfg](bool host_nic) -> net::EgressQueue {
    if (host_nic) return net::EgressQueue::drop_tail(cfg.host_nic_pkts);
    switch (proto) {
      case Protocol::kNdp:
        return net::EgressQueue::trimming(cfg.trim_threshold);
      case Protocol::kHoma:
        return net::EgressQueue::strict_priority(cfg.priority_levels, cfg.buffer_pkts);
      case Protocol::kDctcp:
        // PIAS demotion needs the priority bands; the ECN marking itself is
        // the dequeue marker's job, not the queue's.
        return net::EgressQueue::strict_priority(cfg.priority_levels, cfg.buffer_pkts);
      case Protocol::kAmrt:
        if (cfg.selective_drop) return net::EgressQueue::selective_drop(cfg.buffer_pkts);
        return net::EgressQueue::drop_tail(cfg.buffer_pkts);
      case Protocol::kPhost:
        return net::EgressQueue::drop_tail(cfg.buffer_pkts);
    }
    return net::EgressQueue::drop_tail(cfg.buffer_pkts);
  };
}

net::MarkerFactory make_marker_factory(Protocol proto, QueueConfig cfg) {
  if (proto == Protocol::kAmrt) {
    return [probe = cfg.marker_probe_bytes] { return std::make_unique<AntiEcnMarker>(probe); };
  }
  if (proto == Protocol::kDctcp) {
    return [k = cfg.ecn_threshold_pkts] { return std::make_unique<ThresholdEcnMarker>(k); };
  }
  return nullptr;
}

net::QueueFactory make_mixed_queue_factory(QueueConfig cfg) {
  // Both populations share the PIAS strict-priority bands: AMRT data keeps
  // priority 0, so it competes only with a DCTCP flow's first-threshold
  // bytes — the PIAS contract for unknown-size foreground traffic.
  return [cfg](bool host_nic) -> net::EgressQueue {
    if (host_nic) return net::EgressQueue::drop_tail(cfg.host_nic_pkts);
    return net::EgressQueue::strict_priority(cfg.priority_levels, cfg.buffer_pkts);
  };
}

net::MarkerFactory make_mixed_marker_factory(QueueConfig cfg) {
  return [probe = cfg.marker_probe_bytes, k = cfg.ecn_threshold_pkts] {
    return make_mixed_marker(probe, k);
  };
}

namespace {

// Two full endpoints behind one PacketSink; each flow belongs to exactly one
// of them, decided by the id predicate at both the sender and the receiver.
class MixedEndpoint final : public transport::TransportEndpoint {
 public:
  MixedEndpoint(sim::Simulation& sim, net::Host& host, const transport::TransportConfig& cfg,
                stats::FlowObserver* observer, std::function<bool(net::FlowId)> is_background)
      : TransportEndpoint{sim, host, cfg, observer},
        is_background_{std::move(is_background)},
        amrt_{sim, host, cfg, observer},
        dctcp_{sim, host, cfg, observer} {}

  void start_flow(const transport::FlowSpec& spec) override { sub(spec.id).start_flow(spec); }

 protected:
  // deliver() already split by type; re-join and re-dispatch by flow so each
  // sub-endpoint sees the packet through its own deliver() path.
  void on_data(net::Packet&& pkt) override { forward(std::move(pkt)); }
  void on_rts(net::Packet&& pkt) override { forward(std::move(pkt)); }
  void on_grant(net::Packet&& pkt) override { forward(std::move(pkt)); }
  void on_done(net::Packet&& pkt) override { forward(std::move(pkt)); }

 private:
  void forward(net::Packet&& pkt) { sub(pkt.flow).deliver(std::move(pkt)); }
  [[nodiscard]] transport::TransportEndpoint& sub(net::FlowId id) {
    return is_background_(id) ? static_cast<transport::TransportEndpoint&>(dctcp_)
                              : static_cast<transport::TransportEndpoint&>(amrt_);
  }

  std::function<bool(net::FlowId)> is_background_;
  AmrtEndpoint amrt_;
  transport::DctcpEndpoint dctcp_;
};

}  // namespace

std::unique_ptr<transport::TransportEndpoint> make_mixed_endpoint(
    sim::Simulation& sim, net::Host& host, const transport::TransportConfig& cfg,
    stats::FlowObserver* observer, std::function<bool(net::FlowId)> is_background) {
  return std::make_unique<MixedEndpoint>(sim, host, cfg, observer, std::move(is_background));
}

}  // namespace amrt::core
