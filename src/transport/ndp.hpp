// NDP (Handley et al., SIGCOMM'17) as the AMRT paper evaluates it:
// senders start at line rate; overloaded switch queues trim payloads to
// headers (EgressQueue::trimming) which reach the receiver in the control band; the
// receiver paces one pull per MTU-time from a shared pull queue, pulling
// retransmissions of trimmed packets before new data.
#pragma once

#include "net/ring_deque.hpp"
#include "transport/receiver_driven.hpp"

namespace amrt::transport {

class NdpEndpoint final : public ReceiverDrivenEndpoint {
 public:
  NdpEndpoint(sim::Simulation& sim, net::Host& host, TransportConfig cfg,
              stats::FlowObserver* observer)
      : ReceiverDrivenEndpoint{sim, host, cfg, observer, Protocol::kNdp},
        pull_spacing_{cfg.host_rate.tx_time(net::kMtuBytes)} {}

 protected:
  void after_arrival(ReceiverFlow& flow, const net::Packet& pkt, bool fresh) override;
  bool detect_holes() const override { return false; }  // trimming names losses

 private:
  struct PullRequest {
    net::FlowId flow = 0;
    // A retransmission pull for this seq, or kNoRequestSeq for a new one.
    std::uint32_t rtx_seq = net::kNoRequestSeq;
  };

  void enqueue_new_pull(ReceiverFlow& flow);
  void enqueue_rtx_pull(ReceiverFlow& flow, std::uint32_t seq);
  void arm_pacer();
  void pacer_fire();

  // Per-flow "queued but unsent" pull counts live in ReceiverFlow
  // (`pending_new_pulls`), so an arrival touches no side table.
  net::RingDeque<PullRequest> pull_queue_;
  sim::Duration pull_spacing_;
  sim::TimePoint last_pull_ = sim::TimePoint::zero();
  bool pacer_armed_ = false;
};

}  // namespace amrt::transport
